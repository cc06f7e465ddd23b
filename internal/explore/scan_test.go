package explore

import (
	"errors"
	"runtime"
	"testing"

	"tmcheck/internal/guard"
	"tmcheck/internal/space"
	"tmcheck/internal/tm"
)

// barrierTrace records the (expanded, interned) pairs and the resolved
// prefix adjacency a ScanLevels run presents at its barriers.
type barrierTrace struct {
	expanded, interned []int
	edges              [][]int32 // successor ids of each expanded state, in order
}

func traceScan(t *testing.T, alg tm.Algorithm, cm tm.ContentionManager, workers int) barrierTrace {
	t.Helper()
	var tr barrierTrace
	err := ScanLevels(alg, cm, workers, nil, func(out [][]Edge, interned, expanded int) error {
		tr.expanded = append(tr.expanded, expanded)
		tr.interned = append(tr.interned, interned)
		if len(tr.edges) == 0 { // capture the final adjacency once at the fixpoint
			if expanded == interned {
				for s := 0; s < expanded; s++ {
					var succ []int32
					for _, e := range out[s] {
						succ = append(succ, e.To)
					}
					tr.edges = append(tr.edges, succ)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatalf("ScanLevels(workers=%d): %v", workers, err)
	}
	return tr
}

// TestScanLevelsBarrierSequence checks the cross-engine contract the
// on-the-fly liveness engine builds on: the sequential and parallel
// scans fire the identical (expanded, interned) barrier sequence and
// resolve the identical adjacency, for any worker count.
func TestScanLevelsBarrierSequence(t *testing.T) {
	cases := []struct {
		alg tm.Algorithm
		cm  tm.ContentionManager
	}{
		{tm.NewDSTM(2, 1), tm.Aggressive{}},
		{tm.NewTL2(2, 1), tm.Polite{}},
		{tm.NewSeq(2, 1), nil},
	}
	for _, c := range cases {
		ref := traceScan(t, c.alg, c.cm, 1)
		ts := BuildWorkers(c.alg, c.cm, runtime.GOMAXPROCS(0))
		if last := ref.expanded[len(ref.expanded)-1]; last != ts.NumStates() {
			t.Errorf("%s: final barrier expanded %d, want %d states", ts.Name(), last, ts.NumStates())
		}
		for _, workers := range []int{2, 4} {
			got := traceScan(t, c.alg, c.cm, workers)
			if len(got.expanded) != len(ref.expanded) {
				t.Fatalf("%s workers=%d: %d barriers, sequential fired %d",
					ts.Name(), workers, len(got.expanded), len(ref.expanded))
			}
			for i := range ref.expanded {
				if got.expanded[i] != ref.expanded[i] || got.interned[i] != ref.interned[i] {
					t.Errorf("%s workers=%d barrier %d: (%d, %d), sequential (%d, %d)",
						ts.Name(), workers, i, got.expanded[i], got.interned[i],
						ref.expanded[i], ref.interned[i])
				}
			}
			if len(got.edges) != len(ref.edges) {
				t.Fatalf("%s workers=%d: fixpoint adjacency has %d states, sequential %d",
					ts.Name(), workers, len(got.edges), len(ref.edges))
			}
			for s := range ref.edges {
				if len(got.edges[s]) != len(ref.edges[s]) {
					t.Fatalf("%s workers=%d state %d: edge counts differ", ts.Name(), workers, s)
				}
				for j := range ref.edges[s] {
					if got.edges[s][j] != ref.edges[s][j] {
						t.Errorf("%s workers=%d state %d edge %d: to %d, sequential %d",
							ts.Name(), workers, s, j, got.edges[s][j], ref.edges[s][j])
					}
				}
			}
		}
	}
}

// TestScanLevelsBarrierError checks that a barrier's error stops the
// scan and surfaces verbatim, from both engines.
func TestScanLevelsBarrierError(t *testing.T) {
	sentinel := errors.New("stop here")
	for _, workers := range []int{1, 4} {
		calls := 0
		err := ScanLevels(tm.NewDSTM(2, 1), tm.Aggressive{}, workers, nil, func(out [][]Edge, interned, expanded int) error {
			calls++
			if calls == 2 {
				return sentinel
			}
			return nil
		})
		if !errors.Is(err, sentinel) {
			t.Errorf("workers=%d: err = %v, want sentinel", workers, err)
		}
		if calls != 2 {
			t.Errorf("workers=%d: %d barrier calls after stop, want 2", workers, calls)
		}
	}
}

// TestScanLevelsBudgetBeforeBarrier checks the ordering contract: a
// blown budget is reported even when a barrier hook would also have
// stopped the scan at the same boundary.
func TestScanLevelsBudgetBeforeBarrier(t *testing.T) {
	sentinel := errors.New("barrier ran")
	for _, workers := range []int{1, 4} {
		err := ScanLevels(tm.NewDSTM(2, 1), tm.Aggressive{}, workers, guard.New(nil, 2, 0), func(out [][]Edge, interned, expanded int) error {
			if interned > 2 {
				return sentinel
			}
			return nil
		})
		if !errors.Is(err, space.ErrBudgetExceeded) {
			t.Errorf("workers=%d: err = %v, want budget error before the barrier", workers, err)
		}
	}
}
