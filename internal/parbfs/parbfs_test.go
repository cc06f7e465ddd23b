package parbfs

import (
	"errors"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"tmcheck/internal/guard"
)

// succsOf defines a deterministic synthetic graph over uint32 states:
// each state has a pseudo-random fan-out with duplicates and back-edges,
// bounded so the reachable set stays finite.
func succsOf(s uint32) []uint32 {
	x := s*2654435761 + 1
	deg := int(x % 5)
	out := make([]uint32, 0, deg+1)
	for i := 0; i < deg; i++ {
		x = x*1664525 + 1013904223
		out = append(out, x%4096)
	}
	if deg == 0 {
		out = append(out, (s+1)%4096)
	}
	return out
}

// refBFS is the sequential scan-order BFS the engine must reproduce
// bit-identically: states interned on first sight, processed in id
// order.
func refBFS(init uint32) (states []uint32, edges [][]int32) {
	index := map[uint32]int32{init: 0}
	states = []uint32{init}
	edges = [][]int32{nil}
	for qi := 0; qi < len(states); qi++ {
		for _, t := range succsOf(states[qi]) {
			id, ok := index[t]
			if !ok {
				id = int32(len(states))
				index[t] = id
				states = append(states, t)
				edges = append(edges, nil)
			}
			edges[qi] = append(edges[qi], id)
		}
	}
	return states, edges
}

func runEngine(init uint32, workers int) (states []uint32, edges [][]int32, st Stats) {
	st = Run(init, workers,
		func(id int, emit func(uint32)) {
			for _, t := range succsOf(states[id]) {
				emit(t)
			}
		},
		func(id int, s uint32) {
			states = append(states, s)
			edges = append(edges, nil)
		},
		func(id int, succ []int32) {
			edges[id] = succ
		},
	)
	return states, edges, st
}

func TestRunMatchesSequentialBFS(t *testing.T) {
	wantStates, wantEdges := refBFS(7)
	if len(wantStates) < 100 {
		t.Fatalf("synthetic graph too small (%d states) to exercise the engine", len(wantStates))
	}
	for _, workers := range []int{1, 2, 3, 8} {
		states, edges, st := runEngine(7, workers)
		if !reflect.DeepEqual(states, wantStates) {
			t.Fatalf("workers=%d: state numbering diverges from sequential BFS", workers)
		}
		if !reflect.DeepEqual(edges, wantEdges) {
			t.Fatalf("workers=%d: edge resolution diverges from sequential BFS", workers)
		}
		var emitted int64
		for _, e := range edges {
			emitted += int64(len(e))
		}
		if got := st.DupHits; got != emitted-int64(len(states)-1) {
			t.Errorf("workers=%d: DupHits = %d, want %d", workers, got, emitted-int64(len(states)-1))
		}
		var levelTotal int
		for _, n := range st.LevelSizes {
			levelTotal += n
		}
		if levelTotal != len(states) || st.Levels != len(st.LevelSizes) {
			t.Errorf("workers=%d: level sizes %v inconsistent with %d states", workers, st.LevelSizes, len(states))
		}
	}
}

func TestResolveWorkers(t *testing.T) {
	if got := ResolveWorkers(3); got != 3 {
		t.Errorf("ResolveWorkers(3) = %d", got)
	}
	for _, unset := range []int{0, -1} {
		if got := ResolveWorkers(unset); got != runtime.GOMAXPROCS(0) {
			t.Errorf("ResolveWorkers(%d) = %d, want GOMAXPROCS %d", unset, got, runtime.GOMAXPROCS(0))
		}
	}
}

func TestForCoversAllIndices(t *testing.T) {
	for _, workers := range []int{1, 2, 7} {
		seen := make([]int32, 1000)
		For(len(seen), workers, func(i int) { seen[i]++ })
		for i, c := range seen {
			if c != 1 {
				t.Fatalf("workers=%d: index %d visited %d times", workers, i, c)
			}
		}
	}
}

// TestForWorkerPanicReachesCaller pins the panic contract of the worker
// pool: a panic in a ForWorker body surfaces on the calling goroutine
// as a *guard.LimitError of kind KindPanic — carrying the value and a
// stack — only after every other worker has finished, so guard.Capture
// in the engines can turn it into a LIMIT(panic) at any worker count.
func TestForWorkerPanicReachesCaller(t *testing.T) {
	for _, workers := range []int{1, 4} {
		var inflight, done atomic.Int64
		err := guard.Capture(func() error {
			ForWorker(200, workers, func(_, i int) {
				inflight.Add(1)
				defer inflight.Add(-1)
				if i == 37 {
					panic("boom")
				}
				time.Sleep(50 * time.Microsecond)
				done.Add(1)
			})
			return nil
		})
		if n := inflight.Load(); n != 0 {
			t.Errorf("workers=%d: %d calls still running after ForWorker returned", workers, n)
		}
		var le *guard.LimitError
		if !errors.As(err, &le) || le.Kind != guard.KindPanic {
			t.Fatalf("workers=%d: got %v, want a KindPanic *guard.LimitError", workers, err)
		}
		if le.Value != "boom" || len(le.Stack) == 0 {
			t.Errorf("workers=%d: limit error carries value %v and a %d-byte stack", workers, le.Value, len(le.Stack))
		}
		if n := done.Load(); n == 0 || n > 199 {
			t.Errorf("workers=%d: %d of the 199 non-panicking calls ran", workers, n)
		}
	}
}
