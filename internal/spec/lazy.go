package spec

import (
	"tmcheck/internal/core"
	"tmcheck/internal/parbfs"
	"tmcheck/internal/space"
)

// Memo cells hold a successor id, space.None for a computed "no
// transition", or one of these markers.
const (
	stepUnknown space.State = -2 // not computed yet
	stepQueued  space.State = -3 // queued for the next Fill
)

// Lazy is the deterministic specification as an implicit space.Space:
// states are interned DStates, successors are computed by Det.Step on
// demand and memoized per (state, letter). The on-the-fly safety engine
// steps it from the product search, so only the spec states the product
// actually reaches are ever constructed — on TM products that is a
// small fraction of the full enumeration (the gap the obs counter
// "spec_states" vs. a full Enumerate measures).
//
// The memo is one flat table with a row of alphabet-size cells per
// state, so a known step is a single slice read.
type Lazy struct {
	Det *Det
	ab  core.Alphabet

	in    *space.Interner[DState]
	memo  []space.State // memo[s*ab.Size()+l]
	queue []int         // cells queued for Fill
	next  []DState      // Fill scratch: the computed successors
	ok    []bool
}

// NewLazy returns the lazy view of the specification. It is
// single-goroutine; only Fill fans work out.
func NewLazy(d *Det) *Lazy {
	lz := &Lazy{Det: d, ab: core.Alphabet{Threads: d.Threads, Vars: d.Vars}, in: space.NewInterner[DState]()}
	lz.intern(d.Initial())
	return lz
}

// intern interns q, appending a fresh memo row on first sight.
func (lz *Lazy) intern(q DState) space.State {
	id, fresh := lz.in.InternFresh(q)
	if fresh {
		for range lz.ab.Size() {
			lz.memo = append(lz.memo, stepUnknown)
		}
	}
	return id
}

// Init implements space.Space.
func (lz *Lazy) Init() space.State { return 0 }

// NumStates implements space.Space: the number of spec states
// constructed so far.
func (lz *Lazy) NumStates() int { return lz.in.Len() }

// Succ implements space.Space, enumerating the defined transitions in
// letter order. The specification is deterministic, so there is exactly
// one emission per defined letter and never an ε.
func (lz *Lazy) Succ(s space.State, emit func(l space.Letter, to space.State)) {
	for l := 0; l < lz.ab.Size(); l++ {
		if to := lz.Step(s, l); to != space.None {
			emit(space.Letter(l), to)
		}
	}
}

// Step returns the successor of the already-interned spec state s under
// letter l, or space.None when the specification refuses the statement
// (the detSpec ⊥ — in the product search this is exactly a safety
// violation). Results are memoized per (state, letter); a cell queued
// for Fill is treated as unknown.
func (lz *Lazy) Step(s space.State, l int) space.State {
	c := int(s)*lz.ab.Size() + l
	if r := lz.memo[c]; r >= space.None {
		return r
	}
	id := space.None
	if q2, ok := lz.Det.Step(lz.in.At(s), lz.ab.Decode(l)); ok {
		id = lz.intern(q2)
	}
	lz.memo[c] = id
	return id
}

// Want queues the cell (s, l) for the next Fill unless it is already
// known or queued.
func (lz *Lazy) Want(s space.State, l int) {
	c := int(s)*lz.ab.Size() + l
	if lz.memo[c] == stepUnknown {
		lz.memo[c] = stepQueued
		lz.queue = append(lz.queue, c)
	}
}

// Fill computes every queued cell. Det.Step runs across the workers —
// it is pure on DState values, and nothing is interned meanwhile — and
// the successors are then interned on the calling goroutine in queue
// order, so the numbering does not depend on the schedule.
func (lz *Lazy) Fill(workers int) {
	q, size := lz.queue, lz.ab.Size()
	if cap(lz.next) < len(q) {
		lz.next, lz.ok = make([]DState, len(q)), make([]bool, len(q))
	}
	next, ok := lz.next[:len(q)], lz.ok[:len(q)]
	parbfs.For(len(q), workers, func(i int) {
		next[i], ok[i] = lz.Det.Step(lz.in.At(space.State(q[i]/size)), lz.ab.Decode(q[i]%size))
	})
	for i, c := range q {
		id := space.None
		if ok[i] {
			id = lz.intern(next[i])
		}
		lz.memo[c] = id
	}
	lz.queue = q[:0]
}
