// Package parbfs is the parallel state-space engine shared by the
// explorers of this repository: a level-synchronized breadth-first
// search over an implicitly defined graph whose states are interned
// into a sharded (hash-partitioned) table, with state numbering
// canonicalized per level so the result is bit-identical to a
// sequential scan-order BFS.
//
// The determinism argument: a sequential BFS that processes states in
// id order and interns successors on first sight assigns, within each
// distance level, ids in lexicographic order of (position of the
// discovering parent in the level, ordinal of the discovering emission
// within that parent's expansion). The engine expands a whole level in
// parallel, records for every newly discovered state the minimum such
// discovery key across all racing discoverers, sorts the new states by
// that key at the level barrier, and only then assigns ids — exactly
// the sequential numbering, independent of scheduling. Per-state edge
// order is deterministic too, because a single worker expands each
// state and emissions are resolved positionally.
//
// Worker counts are passed down explicitly by every caller; one worker
// selects the callers' plain sequential code paths, and ResolveWorkers
// maps an unset (<= 0) count to GOMAXPROCS.
package parbfs

import (
	"hash/maphash"
	"runtime"
	"runtime/debug"
	"sort"
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

// Stats reports the work profile of one Run, for the observability
// layer. Levels, LevelSizes and DupHits are deterministic for a given
// graph; Shards and MaxShardLoad depend on the per-process hash seed
// (like wall-clock timers, they vary between runs but not within one).
type Stats struct {
	// Levels is the number of BFS levels (the initial state is level 0).
	Levels int
	// LevelSizes is the number of states first discovered per level.
	LevelSizes []int
	// DupHits counts emissions that hit an already-interned state — the
	// intern-table collisions that produce no new state.
	DupHits int64
	// Shards is the number of intern-table shards used.
	Shards int
	// MaxShardLoad is the largest number of states interned into a
	// single shard (hash-seed dependent).
	MaxShardLoad int
}

// cand is a state discovered during the current level, before its id is
// assigned at the barrier. fi/di form the discovery key: the minimum
// (frontier position, emission ordinal) over all events that reached
// the state this level.
type cand[S comparable] struct {
	s  S
	fi int32
	di int32
	id int32
}

// succRef is one emission: either an already-known id or a pointer to a
// same-level candidate whose id is assigned at the barrier.
type succRef[S comparable] struct {
	id int32
	c  *cand[S]
}

// shard is one partition of the intern table. known is read without
// locking during level expansion (it is only written at level barriers,
// with the worker pool joined); cands is locked.
type shard[S comparable] struct {
	mu    sync.Mutex
	known map[S]int32
	cands map[S]*cand[S]
}

func (sh *shard[S]) candidate(s S, fi, di int32) *cand[S] {
	sh.mu.Lock()
	c, ok := sh.cands[s]
	if !ok {
		c = &cand[S]{s: s, fi: fi, di: di}
		sh.cands[s] = c
	} else if fi < c.fi || (fi == c.fi && di < c.di) {
		c.fi, c.di = fi, di
	}
	sh.mu.Unlock()
	return c
}

// Run explores the graph reachable from init with the given number of
// workers and returns the work profile. The caller supplies three
// hooks:
//
//   - place(id, s) is called exactly once per reachable state, in id
//     order (starting with place(0, init)), before the state is ever
//     expanded — append the state to caller-side storage here;
//   - expand(id, emit) enumerates the successors of the already-placed
//     state id, calling emit once per outgoing edge (self-loops and
//     duplicates included). It runs concurrently with other expand
//     calls of the same level;
//   - finish(id, succ) delivers the successor ids of state id, aligned
//     one-to-one with that state's emit calls. It runs concurrently
//     with other finish calls of the same level.
//
// The assigned numbering, and hence the succ slices, are bit-identical
// to a sequential scan-order BFS using the same expand enumeration
// order, for any worker count and schedule.
func Run[S comparable](
	init S,
	workers int,
	expand func(id int, emit func(S)),
	place func(id int, s S),
	finish func(id int, succ []int32),
) Stats {
	st, err := RunControlled(init, workers, nil, expand, place, finish)
	if err != nil {
		// With a nil control the only possible error is an isolated
		// worker panic; Run has no error channel, so re-panic with the
		// *guard.LimitError — guard.Capture in the engine entry points
		// converts it back into the error, unwrapped.
		panic(err)
	}
	return st
}

// panicBox records the first panic of a run's worker pool. parbfs
// converts it into a *guard.LimitError carrying the recovered value
// and the crashing worker's stack, so one broken user-supplied TM
// degrades that search instead of killing the whole process.
type panicBox struct {
	mu  sync.Mutex
	err *guard.LimitError
}

// catch, deferred on a worker goroutine, files the panic in flight, if
// any. A *guard.LimitError re-raised by a nested pool is kept as is.
func (b *panicBox) catch() {
	v := recover()
	if v == nil {
		return
	}
	le, ok := v.(*guard.LimitError)
	if !ok {
		le = &guard.LimitError{Kind: guard.KindPanic, Value: v, Stack: debug.Stack()}
	}
	b.mu.Lock()
	first := b.err == nil
	if first {
		b.err = le
	}
	b.mu.Unlock()
	if first && obs.EventsEnabled() {
		obs.Emit(obs.Event{Kind: obs.EvPanicRecovered, Detail: le.Error()})
	}
}

// protect wraps a worker task with catch, so the rest of the level
// still runs and the engine stops at the barrier with the filed panic.
func (b *panicBox) protect(f func(w, i int)) func(w, i int) {
	return func(w, i int) {
		defer b.catch()
		f(w, i)
	}
}

// limit returns the filed error, if any.
func (b *panicBox) limit() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.err != nil {
		return b.err
	}
	return nil
}

// RunControlled is Run with a stopping hook for searches that may end
// before the fixpoint: control(states) is called at every level barrier
// — after the level's finish calls, with the number of states placed so
// far — and a non-nil return stops the search cleanly. The error is
// returned verbatim, with the stats of the truncated run. The boxed
// scans and the Σd enumeration use this for their guards; because the
// check sits at the barrier, a truncated run still carries the exact
// canonical numbering of its completed levels.
func RunControlled[S comparable](
	init S,
	workers int,
	control func(states int) error,
	expand func(id int, emit func(S)),
	place func(id int, s S),
	finish func(id int, succ []int32),
) (Stats, error) {
	if workers < 1 {
		workers = 1
	}
	nshards := shardCount(workers)
	shards := make([]shard[S], nshards)
	for i := range shards {
		shards[i].known = map[S]int32{}
		shards[i].cands = map[S]*cand[S]{}
	}
	seed := maphash.MakeSeed()
	shardOf := func(s S) *shard[S] {
		return &shards[maphash.Comparable(seed, s)&uint64(nshards-1)]
	}

	st := Stats{Shards: nshards}
	var panics panicBox
	place(0, init)
	shardOf(init).known[init] = 0
	level := []int32{0}
	nextID := int32(1)
	var emissions int64

	for len(level) > 0 {
		st.Levels++
		st.LevelSizes = append(st.LevelSizes, len(level))
		outs := make([][]succRef[S], len(level))

		ForWorker(len(level), workers, panics.protect(func(_, fi int) {
			id := level[fi]
			var refs []succRef[S]
			di := int32(0)
			expand(int(id), func(s S) {
				sh := shardOf(s)
				if kid, ok := sh.known[s]; ok {
					refs = append(refs, succRef[S]{id: kid})
				} else {
					refs = append(refs, succRef[S]{c: sh.candidate(s, int32(fi), di)})
				}
				di++
			})
			outs[fi] = refs
		}))
		// A crashed worker poisons the level (its discoveries may be
		// incomplete): stop at this barrier with the isolated panic
		// instead of assigning ids from partial expansions.
		if err := panics.limit(); err != nil {
			finalize(shards, &st, emissions, nextID)
			return st, err
		}

		// Barrier: gather this level's discoveries, order them by their
		// minimal discovery key, and assign the canonical ids.
		var fresh []*cand[S]
		for i := range shards {
			for _, c := range shards[i].cands {
				fresh = append(fresh, c)
			}
		}
		sort.Slice(fresh, func(i, j int) bool {
			if fresh[i].fi != fresh[j].fi {
				return fresh[i].fi < fresh[j].fi
			}
			return fresh[i].di < fresh[j].di
		})
		newLevel := make([]int32, 0, len(fresh))
		for _, c := range fresh {
			c.id = nextID
			place(int(nextID), c.s)
			newLevel = append(newLevel, nextID)
			nextID++
		}
		for i := range shards {
			for s, c := range shards[i].cands {
				shards[i].known[s] = c.id
			}
			clear(shards[i].cands)
		}

		ForWorker(len(level), workers, panics.protect(func(_, fi int) {
			refs := outs[fi]
			succ := make([]int32, len(refs))
			for j, r := range refs {
				if r.c != nil {
					succ[j] = r.c.id
				} else {
					succ[j] = r.id
				}
			}
			finish(int(level[fi]), succ)
		}))
		if err := panics.limit(); err != nil {
			finalize(shards, &st, emissions, nextID)
			return st, err
		}
		for _, refs := range outs {
			emissions += int64(len(refs))
		}
		level = newLevel

		if control != nil {
			if err := control(int(nextID)); err != nil {
				finalize(shards, &st, emissions, nextID)
				return st, err
			}
		}
	}

	finalize(shards, &st, emissions, nextID)
	return st, nil
}

// finalize fills in the run-wide intern-table statistics.
func finalize[S comparable](shards []shard[S], st *Stats, emissions int64, nextID int32) {
	for i := range shards {
		if l := len(shards[i].known); l > st.MaxShardLoad {
			st.MaxShardLoad = l
		}
	}
	// Every emission either discovers a new state or collides with an
	// interned one, so collisions = emissions − (states − 1).
	st.DupHits = emissions - (int64(nextID) - 1)
}

// shardCount picks a power-of-two shard count comfortably above the
// worker count, capped so the per-build footprint stays small.
func shardCount(workers int) int {
	n := 16
	for n < 8*workers && n < 256 {
		n <<= 1
	}
	return n
}

// For runs f(0..n-1) on the given number of workers, in chunks, and
// returns when every call has completed. With one worker (or n ≤ 1) it
// runs inline, preserving the caller's sequential behavior exactly.
func For(n, workers int, f func(i int)) {
	ForWorker(n, workers, func(_, i int) { f(i) })
}

// ForWorker is For passing each call the index of the worker goroutine
// executing it (0 when running inline), so callers can keep per-worker
// scratch without locking.
//
// A panic in f reaches the caller either way: a worker goroutine
// recovers it and stops, the other workers finish, and ForWorker then
// re-panics on the calling goroutine with a *guard.LimitError of kind
// KindPanic carrying the value and the worker's stack — so the
// engines' guard.Capture turns it into a LIMIT(panic) instead of the
// process dying.
func ForWorker(n, workers int, f func(w, i int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			f(0, i)
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
	var panics panicBox
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			defer panics.catch()
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
					f(w, i)
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
	if panics.err != nil {
		panic(panics.err)
	}
}
