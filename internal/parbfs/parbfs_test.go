package parbfs

import (
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"tmcheck/internal/guard"
)

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
// pool: a panic in a For body surfaces on the calling goroutine
// as a *guard.LimitError of kind KindPanic — carrying the value and a
// stack — only after every other worker has finished, so guard.Capture
// in the engines can turn it into a LIMIT(panic) at any worker count.
func TestForWorkerPanicReachesCaller(t *testing.T) {
	for _, workers := range []int{1, 4} {
		var inflight, done atomic.Int64
		err := guard.Capture(func() error {
			For(200, workers, func(i int) {
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
			t.Errorf("workers=%d: %d calls still running after For returned", workers, n)
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
