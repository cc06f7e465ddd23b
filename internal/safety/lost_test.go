package safety

import (
	"runtime"
	"testing"

	"tmcheck/internal/core"
	"tmcheck/internal/explore"
	"tmcheck/internal/spec"
	"tmcheck/internal/tm"
)

// Every paper TM gives up some safe concurrency; the witness must be
// opaque yet outside the TM's language.
func TestLostConcurrencyWitnesses(t *testing.T) {
	for _, name := range []string{"seq", "2pl", "dstm", "tl2", "norec", "etl"} {
		alg, err := tm.NewAlgorithm(name, 2, 2)
		if err != nil {
			t.Fatal(err)
		}
		ts := explore.BuildWorkers(alg, nil, runtime.GOMAXPROCS(0))
		w, ok := LostConcurrency(ts, spec.Opacity)
		if !ok {
			t.Errorf("%s: no lost-concurrency witness found (maximally permissive?)", name)
			continue
		}
		if !core.IsOpaque(w) {
			t.Errorf("%s: witness %q is not opaque", name, w)
		}
		if ts.InLanguage(w) {
			t.Errorf("%s: witness %q is in the TM's language", name, w)
		}
		t.Logf("%-6s forbids the safe word %q", name, w)
	}
}

// The sequential TM's lost concurrency is the most basic: any overlap of
// two transactions. Its witness must be very short.
func TestSeqLosesOverlapImmediately(t *testing.T) {
	ts := explore.BuildWorkers(tm.NewSeq(2, 2), nil, runtime.GOMAXPROCS(0))
	w, ok := LostConcurrency(ts, spec.Opacity)
	if !ok {
		t.Fatal("no witness")
	}
	if len(w) > 2 {
		t.Errorf("seq witness should be minimal (≤ 2 statements), got %q", w)
	}
}

// WitnessRun reconstructs full extended-command runs for emitted words —
// here for the modified-TL2 counterexample, whose run must pass through
// rvalidate and chklock with a commit in between.
func TestWitnessRunForCounterexample(t *testing.T) {
	ts := explore.BuildWorkers(tm.NewTL2Mod(2, 2), tm.Polite{}, runtime.GOMAXPROCS(0))
	res := Check(ts, spec.StrictSerializability)
	if res.Holds {
		t.Fatal("expected counterexample")
	}
	run, ok := ts.WitnessRun(res.Counterexample)
	if !ok {
		t.Fatal("counterexample not realizable — inconsistent checker state")
	}
	// The emitted letters of the run must be exactly the counterexample.
	if got := ts.WordOf(run); !got.Equal(res.Counterexample) {
		t.Errorf("run emits %q, want %q", got, res.Counterexample)
	}
	// The run includes internal steps (locks, rvalidate, chklock).
	if len(run) <= len(res.Counterexample) {
		t.Errorf("run has no internal steps: %s", explore.FormatRun(run))
	}
	kinds := map[tm.XKind]bool{}
	for _, e := range run {
		kinds[e.X.Kind] = true
	}
	for _, want := range []tm.XKind{tm.XLock, tm.XRValidate, tm.XChkLock} {
		if !kinds[want] {
			t.Errorf("run lacks %v step: %s", want, explore.FormatRun(run))
		}
	}
}

func TestWitnessRunRejectsForeignWords(t *testing.T) {
	ts := explore.BuildWorkers(tm.NewTwoPL(2, 2), nil, runtime.GOMAXPROCS(0))
	// 2PL can never emit two commits of overlapping writers to the same
	// variable in this order without releasing locks.
	w := core.MustParseWord("(w,1)1, (w,1)2, c1, c2")
	if _, ok := ts.WitnessRun(w); ok {
		t.Errorf("2PL should not realize %q", w)
	}
	// And accepts the empty word trivially.
	if run, ok := ts.WitnessRun(nil); !ok || len(run) != 0 {
		t.Errorf("empty word: run=%v ok=%v", run, ok)
	}
}
