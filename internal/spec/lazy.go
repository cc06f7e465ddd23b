package spec

import (
	"tmcheck/internal/core"
	"tmcheck/internal/pack"
)

// None is the absent spec state: Lazy.Step returns it when the
// specification refuses the statement.
const None int32 = -1

// stepUnknown marks a memo cell not computed yet; the others hold a
// successor id or None for a computed "no transition".
const stepUnknown int32 = -2

// statusBits is the width of a packed Det status (stFinished, stStarted,
// stInvalid or stPending, the largest of which is 4).
const statusBits = 3

// Lazy is the deterministic specification stepped on demand: states are
// packed DState keys interned densely in first-sight order in a
// pack.Map, and successors are computed by Det.Step and memoized per
// (state, letter). The on-the-fly safety engine steps it from the
// product search, so only the spec states the product actually reaches
// are ever constructed — on TM products that is a small fraction of the
// full enumeration (the gap the obs counter "spec_states" vs. a full
// enumeration measures).
//
// A key holds, per thread, the status, the four variable sets and the
// two thread sets at their exact widths: 3 + 4k + 2n bits, at most 300
// at the (4,16) bound. The memo is one flat table with a row of
// alphabet-size cells per state, so a known step is a single slice
// read; an unknown one decodes the state it steps from its key, keeping
// the last decoded state, since a search steps one state under several
// letters in a row.
type Lazy struct {
	Det *Det
	ab  core.Alphabet

	kw   int
	keys *pack.Map
	memo []int32 // memo[s*ab.Size()+l]

	last int32 // id of q, or -1
	q    DState
	key  [pack.MaxWords]uint64
	wtr  pack.Writer
	rdr  pack.Reader
}

// NewLazy returns the lazy view of the specification. It is
// single-goroutine.
func NewLazy(d *Det) *Lazy {
	lz := &Lazy{Det: d, ab: core.Alphabet{Threads: d.Threads, Vars: d.Vars}, last: -1}
	lz.kw = pack.WordsFor(d.Threads * (statusBits + 4*d.Vars + 2*d.Threads))
	lz.keys = pack.NewMap(lz.kw, 0)
	lz.intern(d.Initial())
	return lz
}

// encode packs q into lz.key and returns the key.
func (lz *Lazy) encode(q *DState) []uint64 {
	key := lz.key[:lz.kw]
	clear(key)
	lz.wtr.Reset(key)
	k, n := uint(lz.Det.Vars), uint(lz.Det.Threads)
	for t := range lz.Det.Threads {
		lz.wtr.Put(uint64(q.Status[t]), statusBits)
		lz.wtr.Put(uint64(q.RS[t]), k)
		lz.wtr.Put(uint64(q.WS[t]), k)
		lz.wtr.Put(uint64(q.PRS[t]), k)
		lz.wtr.Put(uint64(q.PWS[t]), k)
		lz.wtr.Put(uint64(q.WP[t]), n)
		lz.wtr.Put(uint64(q.SP[t]), n)
	}
	return key
}

// decode unpacks key into q.
func (lz *Lazy) decode(key []uint64, q *DState) {
	*q = DState{}
	lz.rdr.Reset(key)
	k, n := uint(lz.Det.Vars), uint(lz.Det.Threads)
	for t := range lz.Det.Threads {
		q.Status[t] = uint8(lz.rdr.Get(statusBits))
		q.RS[t] = core.VarSet(lz.rdr.Get(k))
		q.WS[t] = core.VarSet(lz.rdr.Get(k))
		q.PRS[t] = core.VarSet(lz.rdr.Get(k))
		q.PWS[t] = core.VarSet(lz.rdr.Get(k))
		q.WP[t] = core.ThreadSet(lz.rdr.Get(n))
		q.SP[t] = core.ThreadSet(lz.rdr.Get(n))
	}
}

// intern interns q, appending a fresh memo row on first sight.
func (lz *Lazy) intern(q DState) int32 {
	id, fresh := lz.keys.Intern(lz.encode(&q))
	if fresh {
		for range lz.ab.Size() {
			lz.memo = append(lz.memo, stepUnknown)
		}
	}
	return id
}

// NumStates returns the number of spec states constructed so far.
func (lz *Lazy) NumStates() int { return lz.keys.Len() }

// Step returns the successor of the already-interned spec state s under
// letter l, or None when the specification refuses the statement (the
// detSpec ⊥ — in the product search this is exactly a safety
// violation). Results are memoized per (state, letter).
func (lz *Lazy) Step(s int32, l int) int32 {
	c := int(s)*lz.ab.Size() + l
	if r := lz.memo[c]; r >= None {
		return r
	}
	if s != lz.last {
		lz.decode(lz.keys.KeyAt(s), &lz.q)
		lz.last = s
	}
	id := None
	if q2, ok := lz.Det.Step(lz.q, lz.ab.Decode(l)); ok {
		id = lz.intern(q2)
	}
	lz.memo[c] = id
	return id
}
