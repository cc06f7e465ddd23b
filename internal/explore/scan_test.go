package explore

import (
	"errors"
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

func traceScan(t *testing.T, alg tm.Algorithm, cm tm.ContentionManager) barrierTrace {
	t.Helper()
	var tr barrierTrace
	err := ScanLevels(alg, cm, nil, func(out [][]Edge, interned, expanded int) error {
		if len(out) != expanded {
			t.Errorf("barrier (%d, %d): len(out) = %d, want the expanded count", expanded, interned, len(out))
		}
		tr.expanded = append(tr.expanded, expanded)
		tr.interned = append(tr.interned, interned)
		if expanded == interned { // capture the final adjacency at the fixpoint
			for s := 0; s < expanded; s++ {
				var succ []int32
				for _, e := range out[s] {
					succ = append(succ, e.To)
				}
				tr.edges = append(tr.edges, succ)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatalf("ScanLevels: %v", err)
	}
	return tr
}

// TestScanLevelsBarrierSequence checks the contract the on-the-fly
// liveness engine builds on and the materialized one replays: the scan
// hands over len(out) == expanded at every barrier, fires the barrier
// sequence (cum(0), cum(1)), …, (total, total) of the built system's
// BFS levels, and resolves the built system's adjacency.
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
		got := traceScan(t, c.alg, c.cm)
		ts := BuildWorkers(c.alg, c.cm, 1)
		var want [][2]int // (expanded, interned) per barrier
		cum := 0
		for _, n := range ts.LevelSizes() {
			if cum > 0 {
				want = append(want, [2]int{cum, cum + n})
			}
			cum += n
		}
		want = append(want, [2]int{cum, cum})
		if len(got.expanded) != len(want) {
			t.Fatalf("%s: %d barriers, the built system has %d levels", ts.Name(), len(got.expanded), len(want))
		}
		for i := range want {
			if pair := [2]int{got.expanded[i], got.interned[i]}; pair != want[i] {
				t.Errorf("%s barrier %d: (expanded, interned) = %v, want %v", ts.Name(), i, pair, want[i])
			}
		}
		if len(got.edges) != ts.NumStates() {
			t.Fatalf("%s: fixpoint adjacency has %d states, built system %d", ts.Name(), len(got.edges), ts.NumStates())
		}
		for s, succ := range got.edges {
			if len(succ) != len(ts.Out[s]) {
				t.Fatalf("%s state %d: %d edges, built system %d", ts.Name(), s, len(succ), len(ts.Out[s]))
			}
			for j, to := range succ {
				if to != ts.Out[s][j].To {
					t.Errorf("%s state %d edge %d: to %d, built system %d", ts.Name(), s, j, to, ts.Out[s][j].To)
				}
			}
		}
	}
}

// TestScanLevelsBarrierError checks that a barrier's error stops the
// scan and surfaces verbatim.
func TestScanLevelsBarrierError(t *testing.T) {
	sentinel := errors.New("stop here")
	calls := 0
	err := ScanLevels(tm.NewDSTM(2, 1), tm.Aggressive{}, nil, func(out [][]Edge, interned, expanded int) error {
		calls++
		if calls == 2 {
			return sentinel
		}
		return nil
	})
	if !errors.Is(err, sentinel) {
		t.Errorf("err = %v, want sentinel", err)
	}
	if calls != 2 {
		t.Errorf("%d barrier calls after stop, want 2", calls)
	}
}

// TestScanLevelsBudgetBeforeBarrier checks the ordering contract: a
// blown budget is reported even when a barrier hook would also have
// stopped the scan at the same boundary.
func TestScanLevelsBudgetBeforeBarrier(t *testing.T) {
	sentinel := errors.New("barrier ran")
	err := ScanLevels(tm.NewDSTM(2, 1), tm.Aggressive{}, guard.New(nil, 2, 0), func(out [][]Edge, interned, expanded int) error {
		if interned > 2 {
			return sentinel
		}
		return nil
	})
	if !errors.Is(err, space.ErrBudgetExceeded) {
		t.Errorf("err = %v, want budget error before the barrier", err)
	}
}
