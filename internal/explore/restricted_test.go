package explore

import (
	"math/rand"
	"runtime"
	"testing"

	"tmcheck/internal/core"
	"tmcheck/internal/tm"
)

func TestRestrictedWithAnyProgramMatchesBuild(t *testing.T) {
	for _, alg := range []func() tm.Algorithm{
		func() tm.Algorithm { return tm.NewSeq(2, 2) },
		func() tm.Algorithm { return tm.NewTwoPL(2, 2) },
		func() tm.Algorithm { return tm.NewDSTM(2, 1) },
	} {
		general := BuildWorkers(alg(), nil, runtime.GOMAXPROCS(0))
		restricted := BuildRestricted(alg(), nil, nil)
		if general.NumStates() != restricted.NumStates() ||
			general.NumEdges() != restricted.NumEdges() {
			t.Errorf("%s: general %d/%d vs restricted-any %d/%d states/edges",
				general.Alg.Name(), general.NumStates(), general.NumEdges(),
				restricted.NumStates(), restricted.NumEdges())
		}
	}
}

func TestRestrictedLanguageIsIncluded(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	general := BuildWorkers(tm.NewDSTM(2, 2), nil, runtime.GOMAXPROCS(0)).NFA()
	restricted := BuildRestricted(tm.NewDSTM(2, 2), nil,
		[]ThreadProgram{ReadOnlyProgram{}, nil})
	ab := restricted.Alphabet
	for i := 0; i < 200; i++ {
		var w core.Word
		cur := int32(0)
		for steps := 0; steps < 30 && len(w) < 8; steps++ {
			es := restricted.Out[cur]
			if len(es) == 0 {
				break
			}
			e := es[rng.Intn(len(es))]
			if e.Emit >= 0 {
				w = append(w, ab.Decode(int(e.Emit)))
			}
			cur = e.To
		}
		if !general.Accepts(ab.EncodeWord(w)) {
			t.Fatalf("restricted word %q not in general language", w)
		}
		// Thread 1 is read-only: it must never emit a write.
		for _, s := range w {
			if s.T == 0 && s.Cmd.Op == core.OpWrite {
				t.Fatalf("read-only thread wrote: %q", w)
			}
		}
	}
}

func TestFixedProgramRunsToCompletion(t *testing.T) {
	prog := &FixedProgram{Commands: []core.Command{
		core.Read(0), core.Write(1), core.Commit(),
	}}
	ts := BuildRestricted(tm.NewTwoPL(2, 2), nil,
		[]ThreadProgram{prog, &FixedProgram{}})
	// Thread 1 executes its three commands; thread 2 does nothing. The
	// longest emitted word is exactly the program.
	nfa := ts.NFA()
	want := core.MustParseWord("(r,1)1, (w,2)1, c1")
	if !nfa.Accepts(ts.Alphabet.EncodeWord(want)) {
		t.Errorf("fixed program's word %q not accepted", want)
	}
	tooMuch := append(want.Clone(), core.St(core.Read(0), 0))
	if nfa.Accepts(ts.Alphabet.EncodeWord(tooMuch)) {
		t.Errorf("program should stop after its commands")
	}
}

func TestFixedProgramRetriesAfterAbort(t *testing.T) {
	// Under the sequential TM, thread 2's single-write program aborts
	// while thread 1 is mid-transaction, then retries and succeeds.
	prog2 := &FixedProgram{Commands: []core.Command{core.Write(0), core.Commit()}}
	ts := BuildRestricted(tm.NewSeq(2, 1), nil, []ThreadProgram{nil, prog2})
	w := core.MustParseWord("(r,1)1, a2, c1, (w,1)2, c2")
	if !ts.NFA().Accepts(ts.Alphabet.EncodeWord(w)) {
		t.Errorf("retry word %q not accepted", w)
	}
}

// The headline use: DSTM is not obstruction free in general, but for
// read-only workloads nothing ever aborts, so every liveness property
// holds. (Checked here structurally: the restricted system has no abort
// edges at all.)
func TestDSTMReadOnlyWorkloadNeverAborts(t *testing.T) {
	ts := BuildRestricted(tm.NewDSTM(2, 2), nil,
		[]ThreadProgram{ReadOnlyProgram{}, ReadOnlyProgram{}})
	for s := range ts.Out {
		for _, e := range ts.Out[s] {
			if e.X.Kind == tm.XAbort {
				t.Fatalf("read-only DSTM workload has an abort edge at state %d", s)
			}
		}
	}
}
