package spec

import (
	"tmcheck/internal/core"
	"tmcheck/internal/space"
)

// stepUnknown marks a memo cell not computed yet; the others hold a
// successor id or space.None for a computed "no transition".
const stepUnknown space.State = -2

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

	in   *space.Interner[DState]
	memo []space.State // memo[s*ab.Size()+l]
}

// NewLazy returns the lazy view of the specification. It is
// single-goroutine.
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
// violation). Results are memoized per (state, letter).
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
