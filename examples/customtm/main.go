// Verifying your own TM: implement the tm.Algorithm interface and run the
// full pipeline against it.
//
// The TM below is a "global lock" STM: the first access of a transaction
// acquires a single global lock; every read and write then runs under it;
// commit releases it. It is the coarsest possible design — trivially
// opaque, and as non-obstruction-free as the sequential TM. A second
// variant releases the lock after every access (a broken "fine-grained"
// optimization) and loses opacity; the checker produces the interleaving
// that breaks it.
//
// Run with:
//
//	go run ./examples/customtm
package main

import (
	"fmt"

	"tmcheck/internal/core"
	"tmcheck/internal/explore"
	"tmcheck/internal/liveness"
	"tmcheck/internal/safety"
	"tmcheck/internal/spec"
	"tmcheck/internal/tm"
)

// glState is the global-lock TM state: which thread holds the lock (-1 if
// free). It must be a comparable value.
type glState struct {
	Holder int8
}

// GlobalLockTM serializes whole transactions under one lock.
type GlobalLockTM struct {
	n, k int
	// releaseEarly simulates the broken variant: the lock is dropped after
	// every access instead of at commit.
	releaseEarly bool
}

// Name implements tm.Algorithm.
func (g *GlobalLockTM) Name() string {
	if g.releaseEarly {
		return "globallock-early"
	}
	return "globallock"
}

// Threads implements tm.Algorithm.
func (g *GlobalLockTM) Threads() int { return g.n }

// Vars implements tm.Algorithm.
func (g *GlobalLockTM) Vars() int { return g.k }

// Initial implements tm.Algorithm.
func (g *GlobalLockTM) Initial() tm.State { return glState{Holder: -1} }

// Conflict implements tm.Algorithm: the global lock never consults a
// contention manager.
func (g *GlobalLockTM) Conflict(q tm.State, c core.Command, t core.Thread) bool { return false }

// Steps implements tm.Algorithm.
func (g *GlobalLockTM) Steps(q tm.State, c core.Command, t core.Thread) []tm.Step {
	st := q.(glState)
	switch c.Op {
	case core.OpRead, core.OpWrite:
		if st.Holder == int8(t) {
			next := st
			if g.releaseEarly {
				next.Holder = -1
			}
			return []tm.Step{{X: tm.Base(c), R: tm.Resp1, Next: next}}
		}
		if st.Holder == -1 {
			// Acquire, then (atomically, as one extended command here)
			// perform the access.
			next := glState{Holder: int8(t)}
			if g.releaseEarly {
				next.Holder = -1
			}
			return []tm.Step{{X: tm.Base(c), R: tm.Resp1, Next: next}}
		}
		return nil // lock held elsewhere: abort enabled
	case core.OpCommit:
		if st.Holder == int8(t) || st.Holder == -1 {
			return []tm.Step{{X: tm.Base(c), R: tm.Resp1, Next: glState{Holder: -1}}}
		}
		return nil
	}
	return nil
}

// AbortStep implements tm.Algorithm: an aborting holder releases the lock.
func (g *GlobalLockTM) AbortStep(q tm.State, t core.Thread) tm.State {
	st := q.(glState)
	if st.Holder == int8(t) {
		st.Holder = -1
	}
	return st
}

func main() {
	good := &GlobalLockTM{n: 2, k: 2}
	bad := &GlobalLockTM{n: 2, k: 2, releaseEarly: true}

	for _, alg := range []tm.Algorithm{good, bad} {
		fmt.Printf("=== %s ===\n", alg.Name())
		for _, prop := range []spec.Property{spec.StrictSerializability, spec.Opacity} {
			res, err := safety.VerifyOpts(alg, nil, prop, safety.Options{})
			if err != nil {
				panic(err)
			}
			if res.Holds {
				fmt.Printf("%-24s HOLDS (%d TM states, %v)\n", prop.String()+":", res.TMStates, res.Elapsed)
			} else {
				fmt.Printf("%-24s FAILS: %s\n", prop.String()+":", res.Counterexample)
			}
		}
		ts := explore.BuildWorkers(alg, nil, 1)
		of := liveness.CheckObstructionFreedom(ts)
		if of.Holds {
			fmt.Println("obstruction freedom:     HOLDS")
		} else {
			fmt.Printf("obstruction freedom:     FAILS, loop %s\n", of.LoopWord())
		}
		fmt.Println()
	}

	// The whole methodology in one call: (2,2) model checking plus
	// structural-property sampling at three instance sizes, which is what
	// licenses the "all programs" conclusion.
	rep := safety.VerifyViaReduction("globallock",
		func(n, k int) tm.Algorithm { return &GlobalLockTM{n: n, k: k} }, 7)
	fmt.Print(rep)
}
