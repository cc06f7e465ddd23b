package liveness

import (
	"runtime"
	"testing"

	"tmcheck/internal/explore"
	"tmcheck/internal/space"
	"tmcheck/internal/tm"
)

// TestTheorem6Table3 reproduces the paper's Table 3 and Theorem 6: DSTM
// with the aggressive manager is obstruction free, everything else is not;
// no system is livelock free (hence none is wait free).
func TestTheorem6Table3(t *testing.T) {
	rows := Table3(PaperSystems(2, 1), Options{Engine: space.EngineMaterialized})
	names := []string{"seq", "2pl", "dstm+aggressive", "tl2+polite"}
	wantObstruction := []bool{false, false, true, false}
	for i, row := range rows {
		if row.Obstruction.System != names[i] {
			t.Errorf("row %d system = %q, want %q", i, row.Obstruction.System, names[i])
		}
		if row.Obstruction.Holds != wantObstruction[i] {
			t.Errorf("%s: obstruction freedom = %v, want %v (loop %q)",
				names[i], row.Obstruction.Holds, wantObstruction[i], row.Obstruction.LoopWord())
		}
		if row.Livelock.Holds {
			t.Errorf("%s: livelock freedom should fail", names[i])
		}
		if row.Wait.Holds {
			t.Errorf("%s: wait freedom should fail", names[i])
		}
		t.Logf("%-16s size=%-5d obstruction=%v (loop %q) livelock=%v (loop %q)",
			names[i], row.Obstruction.TMStates,
			row.Obstruction.Holds, row.Obstruction.LoopWord(),
			row.Livelock.Holds, row.Livelock.LoopWord())
	}
}

// The seq, 2PL, and TL2+polite obstruction-freedom counterexamples in the
// paper are the single-abort loop "a1" (one thread aborting forever while
// another holds the resource). Check the loop shape: all statements from
// one thread, at least one abort, no commit.
func TestObstructionLoopShape(t *testing.T) {
	for _, sys := range []System{
		{Alg: tm.NewSeq(2, 1)},
		{Alg: tm.NewTwoPL(2, 1)},
		{Alg: tm.NewTL2(2, 1), CM: tm.Polite{}},
	} {
		ts := explore.BuildWorkers(sys.Alg, sys.CM, runtime.GOMAXPROCS(0))
		res := CheckObstructionFreedom(ts)
		if res.Holds {
			t.Errorf("%s: expected an obstruction-freedom violation", ts.Name())
			continue
		}
		if len(res.Loop) == 0 {
			t.Errorf("%s: missing loop", ts.Name())
			continue
		}
		thread := res.Loop[0].T
		hasAbort := false
		for _, e := range res.Loop {
			if e.T != thread {
				t.Errorf("%s: loop mixes threads: %q", ts.Name(), res.LoopWord())
			}
			if e.X.Kind == tm.XCommit {
				t.Errorf("%s: loop contains a commit: %q", ts.Name(), res.LoopWord())
			}
			if e.X.Kind == tm.XAbort {
				hasAbort = true
			}
		}
		if !hasAbort {
			t.Errorf("%s: loop lacks an abort: %q", ts.Name(), res.LoopWord())
		}
	}
}

// The paper's minimal counterexamples are a single abort; our search finds
// loops of the same length for seq and 2PL.
func TestMinimalAbortLoops(t *testing.T) {
	for _, sys := range []System{
		{Alg: tm.NewSeq(2, 1)},
		{Alg: tm.NewTwoPL(2, 1)},
	} {
		ts := explore.BuildWorkers(sys.Alg, sys.CM, runtime.GOMAXPROCS(0))
		res := CheckObstructionFreedom(ts)
		if res.Holds {
			t.Fatalf("%s: expected violation", ts.Name())
		}
		if len(res.Loop) != 1 || res.Loop[0].X.Kind != tm.XAbort {
			t.Errorf("%s: loop = %q, want a single abort", ts.Name(), res.LoopWord())
		}
	}
}

// DSTM+aggressive's livelock loop must abort every participating thread
// and never commit — the shape of the paper's w2.
func TestDSTMAggressiveLivelockLoop(t *testing.T) {
	ts := explore.BuildWorkers(tm.NewDSTM(2, 1), tm.Aggressive{}, runtime.GOMAXPROCS(0))
	res := CheckLivelockFreedom(ts)
	if res.Holds {
		t.Fatal("dstm+aggressive should not be livelock free")
	}
	abortsOf := map[int]bool{}
	statementsOf := map[int]bool{}
	for _, e := range res.Loop {
		statementsOf[int(e.T)] = true
		if e.X.Kind == tm.XAbort {
			abortsOf[int(e.T)] = true
		}
		if e.X.Kind == tm.XCommit {
			t.Errorf("loop contains a commit: %q", res.LoopWord())
		}
	}
	for th := range statementsOf {
		if !abortsOf[th] {
			t.Errorf("thread %d has statements but no abort in loop %q", th+1, res.LoopWord())
		}
	}
	// The paper's w2 uses both threads: a one-thread livelock loop would
	// contradict obstruction freedom.
	if len(statementsOf) < 2 {
		t.Errorf("expected a two-thread livelock loop, got %q", res.LoopWord())
	}
}

// The stem must lead from the initial state to the loop: replaying
// stem+loop edge targets must be consistent.
func TestStemConnectsToLoop(t *testing.T) {
	ts := explore.BuildWorkers(tm.NewTwoPL(2, 1), nil, runtime.GOMAXPROCS(0))
	res := CheckObstructionFreedom(ts)
	if res.Holds {
		t.Fatal("expected violation")
	}
	// Verify the stem is a valid path from state 0 and ends where the loop
	// begins, and that the loop returns to its start.
	cur := int32(0)
	for _, e := range res.Stem {
		found := false
		for _, e2 := range ts.Out[cur] {
			if e2 == e {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("stem edge %v not found from state %d", e, cur)
		}
		cur = e.To
	}
	loopStart := cur
	for _, e := range res.Loop {
		found := false
		for _, e2 := range ts.Out[cur] {
			if e2 == e {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("loop edge %v not found from state %d", e, cur)
		}
		cur = e.To
	}
	if cur != loopStart {
		t.Fatalf("loop does not close: start %d, end %d", loopStart, cur)
	}
}

// Wait freedom must fail even for systems that are obstruction free: a
// wait-free TM would need every transaction to commit eventually, but
// DSTM+aggressive can abort one thread whenever another keeps committing.
func TestWaitFreedomStrictlyStronger(t *testing.T) {
	ts := explore.BuildWorkers(tm.NewDSTM(2, 1), tm.Aggressive{}, runtime.GOMAXPROCS(0))
	obstruction := CheckObstructionFreedom(ts)
	wait := CheckWaitFreedom(ts)
	if !obstruction.Holds {
		t.Error("dstm+aggressive should be obstruction free")
	}
	if wait.Holds {
		t.Error("dstm+aggressive should not be wait free")
	}
}

// Liveness verdicts are stable at (2,2): the reduction theorem says (2,1)
// suffices, and adding a variable must not rescue any property.
func TestLivenessAtTwoVars(t *testing.T) {
	rows := Table3(PaperSystems(2, 2), Options{Engine: space.EngineMaterialized})
	wantObstruction := []bool{false, false, true, false}
	for i, row := range rows {
		if row.Obstruction.Holds != wantObstruction[i] {
			t.Errorf("%s at (2,2): obstruction freedom = %v, want %v",
				row.Obstruction.System, row.Obstruction.Holds, wantObstruction[i])
		}
		if row.Livelock.Holds {
			t.Errorf("%s at (2,2): livelock freedom should fail", row.Livelock.System)
		}
	}
}

// A sequential TM with a single thread is trivially obstruction free,
// livelock free and wait free: nothing ever aborts.
func TestSingleThreadIsLive(t *testing.T) {
	ts := explore.BuildWorkers(tm.NewSeq(1, 1), nil, runtime.GOMAXPROCS(0))
	if res := CheckObstructionFreedom(ts); !res.Holds {
		t.Errorf("single-thread seq: obstruction freedom fails with %q", res.LoopWord())
	}
	if res := CheckLivelockFreedom(ts); !res.Holds {
		t.Errorf("single-thread seq: livelock freedom fails with %q", res.LoopWord())
	}
	if res := CheckWaitFreedom(ts); !res.Holds {
		t.Errorf("single-thread seq: wait freedom fails with %q", res.LoopWord())
	}
}

// Verdicts must be consistent between (2,1) and (2,2) for every registered
// TM × manager combination: the liveness reduction theorem says (2,1)
// suffices, so adding a variable must never change a verdict.
func TestVerdictsStableAcrossInstances(t *testing.T) {
	if testing.Short() {
		t.Skip("builds many systems")
	}
	for _, name := range []string{"seq", "2pl", "dstm", "tl2", "norec", "etl"} {
		for _, cmName := range []string{"", "aggressive", "polite", "karma", "timid"} {
			verdicts := make([]bool, 2)
			for i, k := range []int{1, 2} {
				alg, err := tm.NewAlgorithm(name, 2, k)
				if err != nil {
					t.Fatal(err)
				}
				cm, err := tm.NewContentionManager(cmName)
				if err != nil {
					t.Fatal(err)
				}
				ts := explore.BuildWorkers(alg, cm, runtime.GOMAXPROCS(0))
				verdicts[i] = CheckObstructionFreedom(ts).Holds
			}
			if verdicts[0] != verdicts[1] {
				t.Errorf("%s+%s: obstruction freedom differs between k=1 (%v) and k=2 (%v)",
					name, cmName, verdicts[0], verdicts[1])
			}
		}
	}
}

// Program-restricted liveness: DSTM is not obstruction free in general,
// but a read-only workload never conflicts, so every liveness property
// holds there — the checkers run unchanged on the restricted system.
func TestDSTMReadOnlyWorkloadIsLive(t *testing.T) {
	ts := explore.BuildRestricted(tm.NewDSTM(2, 2), nil,
		[]explore.ThreadProgram{explore.ReadOnlyProgram{}, explore.ReadOnlyProgram{}})
	if res := CheckObstructionFreedom(ts); !res.Holds {
		t.Errorf("read-only DSTM: obstruction freedom fails with %q", res.LoopWord())
	}
	if res := CheckLivelockFreedom(ts); !res.Holds {
		t.Errorf("read-only DSTM: livelock freedom fails with %q", res.LoopWord())
	}
	if res := CheckWaitFreedom(ts); !res.Holds {
		t.Errorf("read-only DSTM: wait freedom fails with %q", res.LoopWord())
	}
	// One writer is already enough to break it again.
	mixed := explore.BuildRestricted(tm.NewDSTM(2, 1), tm.Polite{},
		[]explore.ThreadProgram{explore.ReadOnlyProgram{}, nil})
	if res := CheckObstructionFreedom(mixed); res.Holds {
		t.Error("reader+writer DSTM+polite should not be obstruction free")
	}
}

func TestPropString(t *testing.T) {
	if ObstructionFreedom.String() != "obstruction freedom" ||
		LivelockFreedom.String() != "livelock freedom" ||
		WaitFreedom.String() != "wait freedom" {
		t.Error("Prop names wrong")
	}
}
