package explore

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"

	"tmcheck/internal/core"
	"tmcheck/internal/guard"
	"tmcheck/internal/tm"
)

// cancelTrace scans dstm at (2,2), recording each barrier's
// (expanded, interned) pair, and cancels the context from inside
// barrier number cancelAt (0 = never).
func cancelTrace(t *testing.T, cancelAt int) ([][2]int, error) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var trace [][2]int
	err := ScanLevels(tm.NewDSTM(2, 2), nil, guard.New(ctx, 0, 0),
		func(out [][]Edge, interned, expanded int) error {
			trace = append(trace, [2]int{expanded, interned})
			if len(trace) == cancelAt {
				cancel()
			}
			return nil
		})
	return trace, err
}

// TestCancellationDeterminism is the determinism contract of guarded
// stops: cancelling at a fixed barrier yields the same (expanded,
// interned) prefix of the uncancelled scan's barrier trace, with the
// typed cancellation error. A limited run is a prefix of the full run,
// never a different run.
func TestCancellationDeterminism(t *testing.T) {
	full, err := cancelTrace(t, 0)
	if err != nil {
		t.Fatalf("uncancelled scan failed: %v", err)
	}
	const cancelAt = 4
	if len(full) <= cancelAt {
		t.Fatalf("scan has only %d barriers, need > %d", len(full), cancelAt)
	}
	trace, err := cancelTrace(t, cancelAt)
	if !errors.Is(err, guard.ErrCancelled) || !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want cancellation", err)
	}
	var le *guard.LimitError
	if !errors.As(err, &le) || le.Kind != guard.KindCancelled {
		t.Fatalf("err = %v, want *guard.LimitError{KindCancelled}", err)
	}
	if len(trace) != cancelAt {
		t.Fatalf("%d barriers ran after cancelling at %d", len(trace), cancelAt)
	}
	for i, pair := range trace {
		if pair != full[i] {
			t.Errorf("barrier %d = %v, full run has %v", i, pair, full[i])
		}
	}
}

// panicAfter wraps a TM algorithm and panics on the Nth Steps call,
// modelling a buggy TM implementation crashing mid-exploration.
type panicAfter struct {
	tm.Algorithm
	calls *atomic.Int64
	after int64
}

func (p panicAfter) Steps(q tm.State, c core.Command, t core.Thread) []tm.Step {
	if p.calls.Add(1) > p.after {
		panic(fmt.Sprintf("injected TM fault after %d steps", p.after))
	}
	return p.Algorithm.Steps(q, c, t)
}

// TestBuildGuardedIsolatesPanics crashes the TM mid-exploration: the
// build must return a typed *guard.LimitError carrying the panic value
// and a stack trace instead of crashing the process.
func TestBuildGuardedIsolatesPanics(t *testing.T) {
	var calls atomic.Int64
	alg := panicAfter{Algorithm: tm.NewDSTM(2, 2), calls: &calls, after: 100}
	ts, err := BuildGuarded(alg, nil, nil, nil)
	if ts != nil {
		t.Error("got a transition system from a crashed build")
	}
	if !errors.Is(err, guard.ErrPanic) {
		t.Fatalf("err = %v, want panic limit", err)
	}
	var le *guard.LimitError
	if !errors.As(err, &le) {
		t.Fatalf("err = %v, want *guard.LimitError", err)
	}
	if le.Kind != guard.KindPanic || le.Value == nil || len(le.Stack) == 0 {
		t.Errorf("limit = kind %v value %v stack %d bytes, want isolated panic with stack",
			le.Kind, le.Value, len(le.Stack))
	}
}

// TestScanLevelsMemoryWatchdog grows the heap from the barrier hook —
// 16KiB retained per interned state — under a -maxmem cap 16MiB above
// the current heap. The heap is only sampled every so many guard
// polls, so the watchdog's schedule must follow the states scanned, not
// the number of polls: the scan must stop at or before the first
// barrier after the one whose growth passed the cap, long before dstm
// (2,2) is fully interned.
func TestScanLevelsMemoryWatchdog(t *testing.T) {
	const headroom, perState = 16 << 20, 16 << 10
	var levels []int // interned count at each barrier of the full scan
	if err := ScanLevels(tm.NewDSTM(2, 2), nil, nil, func(_ [][]Edge, interned, _ int) error {
		levels = append(levels, interned)
		return nil
	}); err != nil {
		t.Fatalf("unguarded scan failed: %v", err)
	}
	// bound is the first barrier after the one whose retained bytes
	// pass the headroom.
	bound := 0
	for i := 0; i+1 < len(levels) && bound == 0; i++ {
		if levels[i]*perState > headroom {
			bound = levels[i+1]
		}
	}
	if bound == 0 || bound == levels[len(levels)-1] {
		t.Fatalf("barriers %v leave no room to stop before the scan ends", levels)
	}
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	var retained [][]byte
	err := ScanLevels(tm.NewDSTM(2, 2), nil, guard.New(nil, 0, ms.HeapAlloc+headroom),
		func(_ [][]Edge, interned, _ int) error {
			for len(retained) < interned {
				chunk := make([]byte, perState)
				chunk[0] = 1 // touch so the page is really committed
				retained = append(retained, chunk)
			}
			return nil
		})
	runtime.KeepAlive(retained)
	var le *guard.LimitError
	if !errors.As(err, &le) || le.Kind != guard.KindMemory {
		t.Fatalf("err = %v after retaining %s, want a memory limit",
			err, guard.FormatBytes(uint64(len(retained)*perState)))
	}
	if le.Visited > bound {
		t.Errorf("tripped at %d states, want at most %d (barriers %v)", le.Visited, bound, levels)
	}
}
