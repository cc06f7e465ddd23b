package explore

import (
	"math/rand"
	"runtime"
	"testing"

	"tmcheck/internal/core"
	"tmcheck/internal/tm"
)

func TestBuildDeterministicAndNamed(t *testing.T) {
	a := BuildWorkers(tm.NewDSTM(2, 2), nil, runtime.GOMAXPROCS(0))
	b := BuildWorkers(tm.NewDSTM(2, 2), nil, runtime.GOMAXPROCS(0))
	if a.NumStates() != b.NumStates() || a.NumEdges() != b.NumEdges() {
		t.Errorf("nondeterministic build: %d/%d vs %d/%d states/edges",
			a.NumStates(), a.NumEdges(), b.NumStates(), b.NumEdges())
	}
	if a.Name() != "dstm" {
		t.Errorf("Name = %q", a.Name())
	}
	c := BuildWorkers(tm.NewDSTM(2, 2), tm.Polite{}, runtime.GOMAXPROCS(0))
	if c.Name() != "dstm+polite" {
		t.Errorf("Name = %q", c.Name())
	}
}

func TestSeqTransitionSystemExact(t *testing.T) {
	ts := BuildWorkers(tm.NewSeq(2, 2), nil, runtime.GOMAXPROCS(0))
	// The paper's Table 2: the sequential TM's most general program for
	// (2,2) has exactly 3 states.
	if ts.NumStates() != 3 {
		t.Errorf("seq states = %d, want 3", ts.NumStates())
	}
	// From the initial state, each thread can issue 2 reads, 2 writes and
	// a commit; nothing is abort enabled (commit of an idle thread is an
	// empty transaction).
	var aborts int
	for _, e := range ts.Out[0] {
		if e.X.Kind == tm.XAbort {
			aborts++
		}
	}
	if aborts != 0 {
		t.Errorf("initial state has %d abort edges, want 0", aborts)
	}
}

func TestPendingIsExclusive(t *testing.T) {
	// While a command is pending for a thread, the explorer must only
	// offer continuations of that command for that thread.
	ts := BuildWorkers(tm.NewTwoPL(2, 2), nil, runtime.GOMAXPROCS(0))
	for s := range ts.Out {
		// Find the pending command per thread by looking at the state.
		st := ts.StateAt(int32(s))
		for _, e := range ts.Out[s] {
			p := st.Pending[e.T]
			if p.Active && e.Cmd != p.C {
				t.Fatalf("state %d: edge %v executes %v while %v is pending",
					s, e, e.Cmd, p.C)
			}
		}
	}
}

func TestEmittedLettersMatchResponses(t *testing.T) {
	ts := BuildWorkers(tm.NewTL2(2, 2), nil, runtime.GOMAXPROCS(0))
	for s := range ts.Out {
		for _, e := range ts.Out[s] {
			switch {
			case e.R == tm.Resp1 && e.Emit < 0:
				t.Fatalf("completing edge without letter: %+v", e)
			case e.R == tm.RespPending && e.Emit >= 0:
				t.Fatalf("internal edge with letter: %+v", e)
			case e.X.Kind == tm.XAbort && (e.R != tm.Resp0 || e.Emit < 0):
				t.Fatalf("abort edge malformed: %+v", e)
			}
			if e.Emit >= 0 {
				dec := ts.Alphabet.Decode(int(e.Emit))
				if dec.T != e.T {
					t.Fatalf("letter thread mismatch: %+v", e)
				}
				if e.X.Kind == tm.XAbort && dec.Cmd.Op != core.OpAbort {
					t.Fatalf("abort letter mismatch: %+v", e)
				}
				if e.X.Kind != tm.XAbort && dec.Cmd != e.Cmd {
					t.Fatalf("letter command mismatch: %+v", e)
				}
			}
		}
	}
}

func TestRunPrefersNonAbort(t *testing.T) {
	ts := BuildWorkers(tm.NewSeq(2, 1), nil, runtime.GOMAXPROCS(0))
	run := ts.Run([]core.Thread{0, 0})
	if len(run) != 2 {
		t.Fatalf("run length = %d", len(run))
	}
	for _, e := range run {
		if e.X.Kind == tm.XAbort {
			t.Errorf("run chose abort needlessly: %v", e)
		}
	}
	// Thread 2 scheduled under thread 1's transaction can only abort.
	run = ts.Run([]core.Thread{0, 1})
	if len(run) != 2 || run[1].X.Kind != tm.XAbort {
		t.Errorf("expected forced abort, got %v", FormatRun(run))
	}
}

func TestRunStopsWhenStuck(t *testing.T) {
	// A program that exhausts a thread's commands stops the replay early.
	ts := BuildWorkers(tm.NewSeq(2, 1), nil, runtime.GOMAXPROCS(0))
	run := ts.RunProgram([]core.Thread{0, 0, 0}, Program{0: {core.Commit()}})
	if len(run) != 1 {
		t.Errorf("run = %v, want single commit", FormatRun(run))
	}
}

func TestInLanguageOnRandomWalks(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, alg := range []tm.Algorithm{tm.NewTwoPL(2, 2), tm.NewDSTM(2, 2)} {
		ts := BuildWorkers(alg, nil, runtime.GOMAXPROCS(0))
		for i := 0; i < 100; i++ {
			var w core.Word
			cur := int32(0)
			for steps := 0; steps < 30 && len(w) < 8; steps++ {
				es := ts.Out[cur]
				if len(es) == 0 {
					break
				}
				e := es[rng.Intn(len(es))]
				if e.Emit >= 0 {
					w = append(w, ts.Alphabet.Decode(int(e.Emit)))
				}
				cur = e.To
			}
			if !ts.InLanguage(w) {
				t.Fatalf("%s: emitted word %q not accepted by own NFA", alg.Name(), w)
			}
		}
	}
}

func TestNFAStateCountMatchesTS(t *testing.T) {
	ts := BuildWorkers(tm.NewTwoPL(2, 1), nil, runtime.GOMAXPROCS(0))
	nfa := ts.NFA()
	if nfa.NumStates() != ts.NumStates() {
		t.Errorf("NFA states = %d, TS states = %d", nfa.NumStates(), ts.NumStates())
	}
}

// Words of every TM are opacity-shaped: thread projections alternate
// accesses with at most one finishing statement per transaction, and no
// thread has two finishing statements in a row without intervening
// accesses... more precisely, the projection is well formed: aborts and
// commits only ever close a transaction.
func TestEmittedWordsAreWellFormed(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	ts := BuildWorkers(tm.NewDSTM(2, 2), nil, runtime.GOMAXPROCS(0))
	for i := 0; i < 200; i++ {
		var w core.Word
		cur := int32(0)
		for steps := 0; steps < 40 && len(w) < 12; steps++ {
			es := ts.Out[cur]
			if len(es) == 0 {
				break
			}
			e := es[rng.Intn(len(es))]
			if e.Emit >= 0 {
				w = append(w, ts.Alphabet.Decode(int(e.Emit)))
			}
			cur = e.To
		}
		// Verify DSTM's emitted words are opaque — Theorem 4, sampled.
		if !core.IsOpaque(w) {
			t.Fatalf("DSTM emitted non-opaque word %q", w)
		}
	}
}
