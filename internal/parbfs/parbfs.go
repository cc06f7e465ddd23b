// Package parbfs is the worker pool shared by the checkers: For fans
// independent work items (Table 2/3 rows) out over a fixed number of
// goroutines, and ResolveWorkers maps an unset worker count to
// GOMAXPROCS. Every state space — the TM unfolding, the Σ and Σd
// enumerations, the on-the-fly products — is explored on one
// sequential loop; the only other use of the worker count is the
// on-the-fly safety search's TM stage, which explores ahead of its
// product loop on a goroutine of its own (explore.NewLazyWorkers).
package parbfs

import (
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"tmcheck/internal/guard"
	"tmcheck/internal/obs"
)

// ResolveWorkers returns workers, or GOMAXPROCS when workers <= 0: the
// default every front-end applies to an unset -workers value.
func ResolveWorkers(workers int) int {
	if workers > 0 {
		return workers
	}
	return runtime.GOMAXPROCS(0)
}

// For runs f(0..n-1) on the given number of workers, in chunks, and
// returns when every call has completed. With one worker (or n ≤ 1) it
// runs inline, preserving the caller's sequential behavior exactly.
//
// A panic in f reaches the caller either way: a worker goroutine
// recovers it and stops, the other workers finish, and For then
// re-panics on the calling goroutine with a *guard.LimitError of kind
// KindPanic carrying the value and the worker's stack — so the
// engines' guard.Capture turns it into a LIMIT(panic) instead of the
// process dying.
func For(n, workers int, f func(i int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			f(i)
		}
		return
	}
	chunk := n / (workers * 4)
	if chunk < 1 {
		chunk = 1
	}
	if chunk > 64 {
		chunk = 64
	}
	// With the telemetry bus on, each worker reports its activity window
	// as one EvWorkerSpan — the per-worker tracks of the -trace view.
	// Disabled (the common case), the loop body is untouched.
	spans := obs.EventsEnabled()
	var next atomic.Int64
	var wg sync.WaitGroup
	var mu sync.Mutex
	var first *guard.LimitError
	// catch, deferred on each worker, files the first panic of the pool;
	// a *guard.LimitError re-raised by a nested pool is kept as is.
	catch := func() {
		v := recover()
		if v == nil {
			return
		}
		le, ok := v.(*guard.LimitError)
		if !ok {
			le = &guard.LimitError{Kind: guard.KindPanic, Value: v, Stack: debug.Stack()}
		}
		mu.Lock()
		filed := first == nil
		if filed {
			first = le
		}
		mu.Unlock()
		if filed && obs.EventsEnabled() {
			obs.Emit(obs.Event{Kind: obs.EvPanicRecovered, Detail: le.Error()})
		}
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			defer catch()
			var start time.Time
			items := 0
			if spans {
				start = time.Now()
			}
			for {
				end := int(next.Add(int64(chunk)))
				begin := end - chunk
				if begin >= n {
					break
				}
				if end > n {
					end = n
				}
				for i := begin; i < end; i++ {
					f(i)
				}
				items += end - begin
			}
			if spans && items > 0 {
				obs.Emit(obs.Event{
					Kind: obs.EvWorkerSpan, Worker: int32(w),
					States: int64(items), DurNS: time.Since(start).Nanoseconds(),
				})
			}
		}(w)
	}
	wg.Wait()
	if first != nil {
		panic(first)
	}
}
