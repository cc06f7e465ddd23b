// The TL2 validation-ordering bug (§5.4 of the paper).
//
// Published TL2 keeps each variable's version number and lock bit in one
// memory word, so commit-time read-set validation checks both atomically.
// If the two checks are split into separate atomic steps — rvalidate (the
// version check) first, chklock (the lock check) second — a window opens:
// another transaction can commit (bumping versions) and release its locks
// between the two checks, and the stale reader commits anyway.
//
// This example rediscovers the bug automatically: it model checks the
// modified TL2 with the polite contention manager against strict
// serializability, prints the counterexample, replays the unsafe
// interleaving step by step, and shows that unmodified TL2 refuses the
// same word.
//
// Run with:
//
//	go run ./examples/tl2bug
package main

import (
	"fmt"

	"tmcheck/internal/core"
	"tmcheck/internal/explore"
	"tmcheck/internal/safety"
	"tmcheck/internal/spec"
	"tmcheck/internal/tm"
)

func main() {
	modTS := explore.BuildWorkers(tm.NewTL2Mod(2, 2), tm.Polite{}, 1)
	res := safety.Check(modTS, spec.StrictSerializability)
	fmt.Printf("modified TL2 + polite: %d states\n", res.TMStates)
	if res.Holds {
		fmt.Println("unexpectedly safe — the bug did not reproduce")
		return
	}
	fmt.Printf("NOT strictly serializable; counterexample:\n    %s\n\n", res.Counterexample)
	fmt.Printf("oracle agrees: strictly serializable = %v, opaque = %v\n\n",
		core.IsStrictlySerializable(res.Counterexample), core.IsOpaque(res.Counterexample))

	// Replay the window explicitly with per-thread programs: t1 reads v1
	// and writes v2; t2 reads v2 and writes v1. t2 commits fully first,
	// but t1's rvalidate runs BEFORE t2 publishes (versions still clean)
	// and t1's chklock runs AFTER t2 releases its locks — so both checks
	// pass and t1 commits on a stale read of v1.
	prog := explore.Program{
		0: {core.Read(0), core.Write(1), core.Commit()},
		1: {core.Read(1), core.Write(0), core.Commit()},
	}
	schedule := []core.Thread{
		0, 0, // t1: read v1, write v2
		1, 1, // t2: read v2, write v1
		1, 1, 1, // t2: lock v1, rvalidate, chklock
		0, 0, // t1: lock v2, rvalidate        (before t2 publishes!)
		1,    // t2: commit — publishes v1, releases locks
		0, 0, // t1: chklock (nothing locked), commit
	}
	run := modTS.RunProgram(schedule, prog)
	fmt.Println("unsafe run (extended statements):")
	fmt.Printf("    %s\n", explore.FormatRun(run))
	word := modTS.WordOf(run)
	fmt.Printf("emitted word: %s\n", word)
	commits := 0
	for _, s := range word {
		if s.Cmd.Op == core.OpCommit {
			commits++
		}
	}
	fmt.Printf("committed transactions: %d; strictly serializable = %v\n\n",
		commits, core.IsStrictlySerializable(word))

	// The unmodified TL2 — atomic validate — cannot emit this word.
	tl2TS := explore.BuildWorkers(tm.NewTL2(2, 2), tm.Polite{}, 1)
	fmt.Printf("unmodified TL2 accepts the word: %v\n", tl2TS.InLanguage(word))
	safe := safety.Check(tl2TS, spec.Opacity)
	fmt.Printf("unmodified TL2 + polite ensures opacity: %v\n", safe.Holds)
}
