package spec

import (
	"fmt"
	"time"

	"tmcheck/internal/automata"
	"tmcheck/internal/core"
	"tmcheck/internal/guard"
	"tmcheck/internal/obs"
	"tmcheck/internal/tm"
)

// DState is a state of the deterministic specification (Algorithm 6):
// per-thread status, read/write sets, prohibited read/write sets, weak
// predecessor set, and strong predecessor set.
type DState struct {
	Status [tm.MaxThreads]uint8
	RS     [tm.MaxThreads]core.VarSet
	WS     [tm.MaxThreads]core.VarSet
	PRS    [tm.MaxThreads]core.VarSet
	PWS    [tm.MaxThreads]core.VarSet
	WP     [tm.MaxThreads]core.ThreadSet
	SP     [tm.MaxThreads]core.ThreadSet
}

// Det is the deterministic TM specification Σdss / Σdop: instead of
// guessing serialization points, it tracks weak predecessors (u must
// serialize before t if both commit) and strong predecessors (u must
// serialize before t outright), together with prohibited read and write
// sets. The status "pending" marks a transaction with a commit-dependent
// predecessor: it must serialize before a transaction that has already
// committed.
type Det struct {
	Prop    Property
	Threads int
	Vars    int
}

// NewDet returns Σdss (prop = StrictSerializability) or Σdop
// (prop = Opacity) for n threads and k variables.
func NewDet(prop Property, n, k int) *Det {
	tm.CheckBounds(n, k)
	return &Det{Prop: prop, Threads: n, Vars: k}
}

// Initial returns q_init: all statuses finished, all sets empty.
func (sp *Det) Initial() DState { return DState{} }

func resetDet(q *DState, t core.Thread, n int) {
	q.Status[t] = stFinished
	q.RS[t] = 0
	q.WS[t] = 0
	q.PRS[t] = 0
	q.PWS[t] = 0
	q.WP[t] = 0
	q.SP[t] = 0
	for u := 0; u < n; u++ {
		if u != int(t) {
			q.WP[u] = q.WP[u].Remove(t)
			q.SP[u] = q.SP[u].Remove(t)
		}
	}
}

// begin starts a fresh transaction for thread t when its status is
// finished: every thread with a pending transaction — and, transitively,
// the strong predecessors of pending threads — must serialize before t,
// because pending transactions serialize before commits that have already
// happened. It returns the set U ∪ U′ of acquired strong predecessors.
//
// Deviation from the printed algorithm (see DESIGN.md): under opacity,
// invalid threads are collected alongside pending ones. An invalid thread
// is pinned before a past commit just like a pending one (every path to
// invalid passes through a predecessor set); although it can never commit,
// its remaining reads must stay consistent with that pin, so later
// committers must learn about it through the new transaction's predecessor
// sets. The printed rule collects only pending threads, which lets a
// doomed transaction read a value committed after its pin.
func (sp *Det) begin(q *DState, t core.Thread) core.ThreadSet {
	if q.Status[t] != stFinished {
		return 0
	}
	var u, uPrime core.ThreadSet
	for x := 0; x < sp.Threads; x++ {
		if q.Status[x] == stPending ||
			(sp.Prop == Opacity && q.Status[x] == stInvalid) {
			u = u.Add(core.Thread(x))
			uPrime = uPrime.Union(q.SP[x])
		}
	}
	q.WP[t] = q.WP[t].Union(u)
	q.SP[t] = q.SP[t].Union(u).Union(uPrime)
	q.Status[t] = stStarted
	return u.Union(uPrime)
}

// addStrictPreds records that every member of ms strictly precedes
// receiver, and eagerly detects the resulting contradictions: a member m
// that must also come after the receiver if m commits (receiver ∈ wp(m))
// can never commit and becomes invalid on the spot.
//
// Deviation from the printed algorithm (see DESIGN.md): the printed
// detSpec defers this contradiction to m's commit-time closure check,
// which is sound only while the constraint graph persists — but the
// weak-predecessor edge may have been contributed by a transaction that
// later aborts and is reset, erasing the evidence. Opacity makes read
// obligations of aborted transactions permanent, so the contradiction
// must be recorded the moment it forms. (The printed write rule already
// performs the mirror-image eager check.) Found by the 4-thread fuzzer.
func (sp *Det) addStrictPreds(q *DState, receiver int, ms core.ThreadSet) {
	q.SP[receiver] = q.SP[receiver].Union(ms)
	for m := range sp.Threads {
		if ms.Has(core.Thread(m)) && q.WP[m].Has(core.Thread(receiver)) {
			q.Status[m] = stInvalid
		}
	}
}

// Step is the detSpec procedure: it returns the successor state, or
// ok = false when the statement is not allowed (the procedure's ⊥).
func (sp *Det) Step(q DState, s core.Stmt) (DState, bool) {
	t := s.T
	ti := int(t)
	switch s.Cmd.Op {
	case core.OpRead:
		v := s.Cmd.V
		if q.WS[ti].Has(v) {
			return q, true // not a global read
		}
		// newSP accumulates the strong predecessors t acquires by this
		// read, to be propagated transitively below.
		var newSP core.ThreadSet
		if sp.Prop == Opacity {
			// Reading v is impossible when v is prohibited for t directly
			// or for a transaction t must serialize before.
			for u := 0; u < sp.Threads; u++ {
				if !q.PRS[u].Has(v) {
					continue
				}
				if u == ti || q.SP[u].Has(t) {
					return q, false
				}
				// Threads prohibited from reading v serialize before v's
				// committed writer; t, reading v after that commit, gains
				// them as strong predecessors.
				newSP = newSP.Add(core.Thread(u))
			}
		}
		newSP = newSP.Union(sp.begin(&q, t))
		q.RS[ti] = q.RS[ti].Add(v)
		if q.PRS[ti].Has(v) {
			q.Status[ti] = stInvalid
		}
		for u := 0; u < sp.Threads; u++ {
			if q.WS[u].Has(v) {
				q.WP[u] = q.WP[u].Add(t)
			}
			if q.PRS[u].Has(v) {
				q.WP[ti] = q.WP[ti].Add(core.Thread(u))
			}
		}
		if sp.Prop == StrictSerializability {
			return q, true
		}
		for u := 0; u < sp.Threads; u++ {
			if u == ti || q.SP[u].Has(t) {
				sp.addStrictPreds(&q, u, newSP)
			}
		}
		for u := 0; u < sp.Threads; u++ {
			if u != ti && q.SP[ti].Has(core.Thread(u)) {
				q.PWS[u] = q.PWS[u].Add(v)
				if q.WS[u].Has(v) {
					q.Status[u] = stInvalid
				}
			}
		}
		return q, true

	case core.OpWrite:
		v := s.Cmd.V
		sp.begin(&q, t)
		q.WS[ti] = q.WS[ti].Add(v)
		if q.PWS[ti].Has(v) {
			q.Status[ti] = stInvalid
		}
		for u := 0; u < sp.Threads; u++ {
			if u == ti {
				continue
			}
			if q.RS[u].Has(v) {
				q.WP[ti] = q.WP[ti].Add(core.Thread(u))
				if sp.Prop == Opacity && q.SP[u].Has(t) {
					q.Status[ti] = stInvalid
				}
			}
			if q.PWS[u].Has(v) {
				q.WP[ti] = q.WP[ti].Add(core.Thread(u))
			}
		}
		return q, true

	case core.OpCommit:
		if q.WP[ti].Has(t) {
			return q, false
		}
		if q.Status[ti] == stInvalid {
			return q, false
		}
		var uClose core.ThreadSet
		if sp.Prop == Opacity {
			// The closure of weak predecessors under strong predecessors:
			// if it contains t itself, t would have to serialize before
			// its own commit's predecessors — impossible.
			uClose = q.WP[ti]
			for u := 0; u < sp.Threads; u++ {
				if q.WP[ti].Has(core.Thread(u)) {
					uClose = uClose.Union(q.SP[u])
				}
			}
			if uClose.Has(t) {
				return q, false
			}
		}
		wsT, rsT := q.WS[ti], q.RS[ti]
		prsT, pwsT := q.PRS[ti], q.PWS[ti]
		wpT := q.WP[ti]
		// Deviation from the printed algorithm (see DESIGN.md): under
		// opacity the pending/prohibited-set updates must reach the whole
		// closure U — the weak predecessors AND their strict predecessors
		// — not just wp(t). A member m ∈ sp(u) with u ∈ wp(t) satisfies
		// m < u unconditionally and u < t firmly now that t commits, so m
		// is pinned before this commit exactly like u. The printed rule
		// updates only wp(t); transitive predecessors then miss their
		// prohibited reads, which a fuzz soak exposed at three threads
		// (invisible at two, where the closure beyond wp(t) can only
		// contain t itself).
		members := wpT
		if sp.Prop == Opacity {
			members = uClose
		}
		for u := 0; u < sp.Threads; u++ {
			if u == ti || !members.Has(core.Thread(u)) {
				continue
			}
			// u must serialize before the now-committed t. A thread that is
			// already invalid stays invalid — pending must not resurrect
			// its chance to commit.
			if q.WS[u].Intersects(wsT) {
				q.Status[u] = stInvalid
			} else if q.Status[u] != stInvalid {
				q.Status[u] = stPending
			}
			q.PRS[u] = q.PRS[u].Union(prsT).Union(wsT)
			q.PWS[u] = q.PWS[u].Union(pwsT).Union(wsT).Union(rsT)
			// Weak predecessors propagate: anything that had to serialize
			// after t (t in its wp set, or a write-write conflict with t)
			// must now also serialize after u, since u precedes t.
			for u2 := 0; u2 < sp.Threads; u2++ {
				if q.WP[u2].Has(t) {
					q.WP[u2] = q.WP[u2].Add(core.Thread(u))
				}
				if q.WS[u2].Intersects(wsT) {
					q.WP[u2] = q.WP[u2].Add(core.Thread(u))
				}
			}
		}
		if sp.Prop == Opacity {
			for u := 0; u < sp.Threads; u++ {
				if u == ti || q.SP[u].Has(t) {
					sp.addStrictPreds(&q, u, uClose)
				}
			}
		}
		resetDet(&q, t, sp.Threads)
		return q, true

	case core.OpAbort:
		// Deviation from the printed algorithm (see DESIGN.md): under
		// opacity the aborting thread's constraints do not all die with
		// it. Its strict predecessors are pinned before it outright, and
		// the chain continues through it: anything that must follow t if
		// it commits (t ∈ wp(z)) must then also follow t's strict
		// predecessors, and anything t strictly precedes (t ∈ sp(z))
		// inherits them as strict predecessors. The commit rule performs
		// exactly this propagation ("for all u′ such that t ∈ wp(u′):
		// wp(u′) ∪= {u}"); the printed abort rule resets without it,
		// losing obligations carried only by the aborted transaction —
		// the 4-thread fuzz soak found words slipping through. Note that
		// wp(t) itself rightly evaporates: those edges were conditional
		// on t committing.
		if sp.Prop == Opacity {
			spT := q.SP[ti]
			for z := 0; z < sp.Threads; z++ {
				if z == ti {
					continue
				}
				if q.WP[z].Has(t) {
					q.WP[z] = q.WP[z].Union(spT)
				}
				if q.SP[z].Has(t) {
					sp.addStrictPreds(&q, z, spT)
				}
			}
		}
		resetDet(&q, t, sp.Threads)
		return q, true
	}
	return q, false
}

// Accepts reports whether w ∈ L(Σd) by direct simulation.
func (sp *Det) Accepts(w core.Word) bool {
	ok, _ := sp.AcceptsStates(w)
	return ok
}

// AcceptsStates is Accepts also reporting the number of specification
// states visited by the simulation (the initial state plus one per
// consumed letter) — the unit the fuzzer charges against its state
// budget.
func (sp *Det) AcceptsStates(w core.Word) (bool, int) {
	q := sp.Initial()
	visited := 1
	for _, s := range w {
		var ok bool
		q, ok = sp.Step(q, s)
		if !ok {
			return false, visited
		}
		visited++
	}
	return true, visited
}

// EnumerateWorkers builds the explicit DFA of the specification over
// the instance alphabet. The enumeration is one sequential scan, so the
// worker count changes nothing: the DFA — state numbering and edges —
// is the same for every value. Callers without a count of their own
// pass 1. The enumeration size and time are recorded under
// "spec.det.<prop>.n<n>k<k>.*" in the obs registry. It is unguarded: a
// panicking specification panics through.
func (sp *Det) EnumerateWorkers(workers int) *automata.DFA {
	dfa, err := sp.EnumerateGuarded(nil) // unbounded: only a panic can fail it
	if err != nil {
		panic(err)
	}
	return dfa
}

// EnumerateGuarded is EnumerateWorkers under a guard: its context,
// state budget, and heap watchdog are consulted per state, so a budget
// trips at an exact state count, and a panicking specification is
// isolated into a *guard.LimitError. A nil guard sets no limits.
func (sp *Det) EnumerateGuarded(g *guard.Guard) (dfa *automata.DFA, err error) {
	start := time.Now()
	err = guard.Capture(func() (err error) {
		dfa, err = sp.enumerate(g)
		return err
	})
	if err != nil {
		return nil, err
	}
	if obs.Enabled() {
		key := fmt.Sprintf("spec.det.%s.n%dk%d", sp.Prop.Key(), sp.Threads, sp.Vars)
		obs.Inc(key+".enumerations", 1)
		obs.Inc(key+".states", int64(dfa.NumStates()))
		obs.AddTime(key+".enumerate", time.Since(start))
	}
	return dfa, nil
}

// enumerateProgressEvery is the heartbeat granularity of the
// enumeration on the telemetry bus: one EvProgress per this many
// expanded states.
const enumerateProgressEvery = 8192

// enumerate is the scan-order enumeration: the lazy view's states are
// stepped under every letter in id order to the fixpoint, so the
// numbering is first-sight scan order and every memo cell is known at
// the end. The DFA is then the memo itself — its None is the DFA's -1 —
// so the transition table is held once. The guard is consulted once per
// expanded state.
func (sp *Det) enumerate(g *guard.Guard) (*automata.DFA, error) {
	lz := NewLazy(sp)
	active, events := g.Active(), obs.EventsEnabled()
	for from := int32(0); int(from) < lz.NumStates(); from++ {
		if active {
			if err := g.Check(lz.NumStates()); err != nil {
				return nil, err
			}
		}
		if events && from > 0 && from%enumerateProgressEvery == 0 {
			obs.Emit(obs.Event{
				Kind: obs.EvProgress, Name: "spec.enumerate",
				States: int64(lz.NumStates()), Frontier: int64(lz.NumStates() - int(from)),
				HeapBytes: obs.SampledHeap(),
			})
		}
		for l := range lz.ab.Size() {
			lz.Step(from, l)
		}
	}
	return automata.NewDFATable(lz.ab.Size(), lz.memo), nil
}
