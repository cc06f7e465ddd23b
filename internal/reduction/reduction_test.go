package reduction

import (
	"runtime"
	"testing"

	"tmcheck/internal/core"
	"tmcheck/internal/explore"
	"tmcheck/internal/tm"
)

func TestTransactionProjectionBasics(t *testing.T) {
	w := core.MustParseWord("(r,1)1, (w,2)2, a2, c1, (r,1)2, (w,1)3")
	// Keep only committing transactions.
	got := ProjectCommitted(w, false)
	want := core.MustParseWord("(r,1)1, c1")
	if !got.Equal(want) {
		t.Errorf("ProjectCommitted(false) = %q, want %q", got, want)
	}
	// Keep unfinished ones too.
	got = ProjectCommitted(w, true)
	want = core.MustParseWord("(r,1)1, c1, (r,1)2, (w,1)3")
	if !got.Equal(want) {
		t.Errorf("ProjectCommitted(true) = %q, want %q", got, want)
	}
}

func TestDropAborting(t *testing.T) {
	w := core.MustParseWord("(r,1)1, (w,2)2, a2, c1, (w,2)2, c2")
	got := DropAborting(w)
	want := core.MustParseWord("(r,1)1, c1, (w,2)2, c2")
	if !got.Equal(want) {
		t.Errorf("DropAborting = %q, want %q", got, want)
	}
}

func TestVariableProjection(t *testing.T) {
	w := core.MustParseWord("(r,1)1, (w,2)1, c1, (r,2)2, a2")
	got := VariableProjection(w, core.VarSet(0).Add(0))
	want := core.MustParseWord("(r,1)1, c1, a2")
	if !got.Equal(want) {
		t.Errorf("VariableProjection = %q, want %q", got, want)
	}
	// Projecting on all variables is the identity.
	if got := VariableProjection(w, core.VarSet(0).Add(0).Add(1)); !got.Equal(w) {
		t.Errorf("full projection changed word to %q", got)
	}
}

func TestRenameThread(t *testing.T) {
	w := core.MustParseWord("(r,1)1, c1, (r,1)2, c2")
	got := RenameThread(w, 1, 0)
	want := core.MustParseWord("(r,1)1, c1, (r,1)1, c1")
	if !got.Equal(want) {
		t.Errorf("RenameThread = %q, want %q", got, want)
	}
}

func TestNonOverlapping(t *testing.T) {
	if !NonOverlapping(core.MustParseWord("(r,1)1, c1, (r,1)2, c2"), 0, 1) {
		t.Error("sequential transactions should be non-overlapping")
	}
	if NonOverlapping(core.MustParseWord("(r,1)1, (r,1)2, c1, c2"), 0, 1) {
		t.Error("interleaved transactions should overlap")
	}
}

func TestHasAborting(t *testing.T) {
	if HasAborting(core.MustParseWord("(r,1)1, c1")) {
		t.Error("no abort expected")
	}
	if !HasAborting(core.MustParseWord("(r,1)1, a1")) {
		t.Error("abort expected")
	}
}

// The paper asserts that the sequential TM, 2PL, DSTM and TL2 satisfy the
// structural properties P1–P4. Sample them.
func TestStructuralPropertiesOfPaperTMs(t *testing.T) {
	systems := []struct {
		alg tm.Algorithm
		cm  tm.ContentionManager
	}{
		{tm.NewSeq(2, 2), nil},
		{tm.NewTwoPL(2, 2), nil},
		{tm.NewDSTM(2, 2), nil},
		{tm.NewTL2(2, 2), nil},
	}
	for _, sys := range systems {
		ts := explore.BuildWorkers(sys.alg, sys.cm, runtime.GOMAXPROCS(0))
		s := NewSampler(ts, 42)
		if v := s.CheckAll(); v != nil {
			t.Errorf("%s: %v", ts.Name(), v)
		}
	}
}

// The paper (§4) notes that a contention manager can break P1: a manager
// whose decisions depend on past aborts makes an abort of one transaction
// the reason a later one commits. The timid manager is exactly of that
// kind — removing an aborting transaction changes the manager's state.
// Sampling may or may not surface a violation on short words, so this test
// only documents the mechanism: it must not report violations for the
// stateless managers.
func TestStatelessManagersPreserveP1(t *testing.T) {
	for _, cm := range []tm.ContentionManager{tm.Aggressive{}, tm.Polite{}} {
		ts := explore.BuildWorkers(tm.NewDSTM(2, 2), cm, runtime.GOMAXPROCS(0))
		s := NewSampler(ts, 43)
		if v := s.CheckP1(); v != nil {
			t.Errorf("dstm+%s: %v", cm.Name(), v)
		}
	}
}

func TestUnfinishedCommutativitySamples(t *testing.T) {
	for _, alg := range []tm.Algorithm{tm.NewSeq(2, 2), tm.NewTwoPL(2, 2), tm.NewDSTM(2, 2), tm.NewTL2(2, 2)} {
		ts := explore.BuildWorkers(alg, nil, runtime.GOMAXPROCS(0))
		s := NewSampler(ts, 44)
		if v := s.CheckUnfinishedCommutative(); v != nil {
			t.Errorf("%s: %v", alg.Name(), v)
		}
	}
}

// End-to-end reduction-theorem narrative on a concrete word: starting from
// the Figure 1(b) word on 3 threads and 3 variables, the proof's
// transformations produce a 2-thread 2-variable word that is still not
// strictly serializable.
func TestReductionNarrativeFigure1b(t *testing.T) {
	w := core.MustParseWord("(w,1)2, (r,2)2, (r,3)3, (r,1)1, c2, (w,2)3, (w,3)1, c1, c3")
	if core.IsStrictlySerializable(w) {
		t.Fatal("premise: Figure 1(b) word must not be strictly serializable")
	}
	// Project away nothing (no aborts, all commit), then project variables
	// to the pair {v1, v3} that carries one of the conflict-cycle edges.
	p := VariableProjection(w, core.VarSet(0).Add(0).Add(2))
	if len(p) >= len(w) {
		t.Fatal("projection should shrink the word")
	}
	// The projected word involves threads 1, 2, 3 still; keeping just two
	// threads' transactions of a cycle needs the renaming step in general.
	// Here projecting to {v1,v3} keeps the cycle x→y (via v1) only if y
	// and z merge; simply check the transformations compose without
	// leaving the framework.
	if got := len(p.Threads()); got == 0 {
		t.Fatal("empty projection")
	}
}

// The violation error string mentions both words.
func TestViolationError(t *testing.T) {
	v := &Violation{
		Property: "P1",
		Word:     core.MustParseWord("(r,1)1, c1"),
		Derived:  core.MustParseWord("c1"),
	}
	msg := v.Error()
	if msg == "" || len(msg) < 10 {
		t.Errorf("Error() = %q", msg)
	}
}

// The liveness reduction's structural properties P5 and P6 hold on samples
// for the paper's TMs.
func TestLivenessStructuralProperties(t *testing.T) {
	for _, alg := range []tm.Algorithm{tm.NewSeq(2, 2), tm.NewTwoPL(2, 2), tm.NewDSTM(2, 2), tm.NewTL2(2, 2)} {
		ts := explore.BuildWorkers(alg, nil, runtime.GOMAXPROCS(0))
		s := NewSampler(ts, 45)
		if v := s.CheckP5(); v != nil {
			t.Errorf("%s: %v", alg.Name(), v)
		}
		if v := s.CheckP6(); v != nil {
			t.Errorf("%s: %v", alg.Name(), v)
		}
	}
}

// Commit commutativity (the second half of P4's sufficient condition)
// holds on samples.
func TestCommitCommutativitySamples(t *testing.T) {
	for _, alg := range []tm.Algorithm{tm.NewSeq(2, 2), tm.NewTwoPL(2, 2), tm.NewDSTM(2, 2), tm.NewTL2(2, 2)} {
		ts := explore.BuildWorkers(alg, nil, runtime.GOMAXPROCS(0))
		s := NewSampler(ts, 46)
		if v := s.CheckCommitCommutative(); v != nil {
			t.Errorf("%s: %v", alg.Name(), v)
		}
	}
}
