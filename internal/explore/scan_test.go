package explore

import (
	"errors"
	"reflect"
	"testing"

	"tmcheck/internal/guard"
	"tmcheck/internal/tm"
)

// barrierTrace records the (expanded, interned) pairs and the resolved
// prefix adjacency a barrier source presents at its barriers.
type barrierTrace struct {
	expanded, interned []int
	edges              [][][]int32 // per barrier: successor ids of each expanded state, in order
}

func traceBarriers(t *testing.T, source func(Barrier) error) barrierTrace {
	t.Helper()
	var tr barrierTrace
	err := source(func(out [][]Edge, interned, expanded int) error {
		if len(out) != expanded {
			t.Errorf("barrier (%d, %d): len(out) = %d, want the expanded count", expanded, interned, len(out))
		}
		tr.expanded = append(tr.expanded, expanded)
		tr.interned = append(tr.interned, interned)
		prefix := make([][]int32, len(out))
		for s, es := range out {
			for _, e := range es {
				prefix[s] = append(prefix[s], e.To)
			}
		}
		tr.edges = append(tr.edges, prefix)
		return nil
	})
	if err != nil {
		t.Fatalf("barrier source: %v", err)
	}
	return tr
}

// TestScanLevelsBarrierSequence checks the contract both liveness
// engines build on: the scan hands over len(out) == expanded at every
// barrier, fires the barrier sequence (cum(0), cum(1)), …, (total,
// total) of the built system's BFS levels, and resolves the built
// system's adjacency; and TS.Levels replays over the built system the
// same pairs with the same prefix adjacency at every barrier.
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
		got := traceBarriers(t, func(b Barrier) error { return ScanLevels(c.alg, c.cm, nil, b) })
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
		final := got.edges[len(got.edges)-1]
		if len(final) != ts.NumStates() {
			t.Fatalf("%s: fixpoint adjacency has %d states, built system %d", ts.Name(), len(final), ts.NumStates())
		}
		for s, succ := range final {
			if len(succ) != len(ts.Out[s]) {
				t.Fatalf("%s state %d: %d edges, built system %d", ts.Name(), s, len(succ), len(ts.Out[s]))
			}
			for j, to := range succ {
				if to != ts.Out[s][j].To {
					t.Errorf("%s state %d edge %d: to %d, built system %d", ts.Name(), s, j, to, ts.Out[s][j].To)
				}
			}
		}

		replay := traceBarriers(t, ts.Levels)
		if !reflect.DeepEqual(replay.expanded, got.expanded) || !reflect.DeepEqual(replay.interned, got.interned) {
			t.Errorf("%s: TS.Levels fires (expanded %v, interned %v), ScanLevels (%v, %v)",
				ts.Name(), replay.expanded, replay.interned, got.expanded, got.interned)
		}
		if !reflect.DeepEqual(replay.edges, got.edges) {
			t.Errorf("%s: TS.Levels hands over a prefix adjacency that differs from ScanLevels'", ts.Name())
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
	if !errors.Is(err, guard.ErrStates) {
		t.Errorf("err = %v, want budget error before the barrier", err)
	}
}
