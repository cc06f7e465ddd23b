package spec

import (
	"fmt"
	"time"

	"tmcheck/internal/automata"
	"tmcheck/internal/core"
	"tmcheck/internal/obs"
	"tmcheck/internal/tm"
)

// NState is a state of the nondeterministic specification (Algorithm 5):
// per-thread status, read set, write set, prohibited read set, prohibited
// write set, and serialization-predecessor set.
type NState struct {
	Status [tm.MaxThreads]uint8
	RS     [tm.MaxThreads]core.VarSet
	WS     [tm.MaxThreads]core.VarSet
	PRS    [tm.MaxThreads]core.VarSet
	PWS    [tm.MaxThreads]core.VarSet
	SP     [tm.MaxThreads]core.ThreadSet
}

// Nondet is the nondeterministic TM specification Σss / Σop for a bounded
// instance: a transition system over statements plus internal ε(t)
// serialization guesses.
type Nondet struct {
	Prop    Property
	Threads int
	Vars    int
}

// NewNondet returns Σss (prop = StrictSerializability) or Σop
// (prop = Opacity) for n threads and k variables.
func NewNondet(prop Property, n, k int) *Nondet {
	tm.CheckBounds(n, k)
	return &Nondet{Prop: prop, Threads: n, Vars: k}
}

// Initial returns q_init: all statuses finished, all sets empty.
func (sp *Nondet) Initial() NState { return NState{} }

// resetThread implements the paper's ResetState(q, t).
func resetNondet(q *NState, t core.Thread, n int) {
	q.Status[t] = stFinished
	q.RS[t] = 0
	q.WS[t] = 0
	q.PRS[t] = 0
	q.PWS[t] = 0
	q.SP[t] = 0
	for u := 0; u < n; u++ {
		if u != int(t) {
			q.SP[u] = q.SP[u].Remove(t)
		}
	}
}

// normalize clears state fields that can never be read again, so that
// behaviourally identical states coincide. This is language preserving:
//
//   - sp(t) of a started thread is overwritten at ε before any rule reads
//     it (every consumer of sp(u) requires u to be serialized or
//     committing, and commit requires serialized status);
//   - an invalid thread can neither commit nor serialize again, so its pws
//     and sp are dead; under strict serializability its reads are never
//     checked either, so rs, ws and prs are also dead and the two invalid
//     flavours collapse into one. Under opacity rs, ws and prs stay live:
//     future commits extend prs from rs, reads are checked against prs,
//     and ws distinguishes local reads from global ones.
//
// The randomized oracle tests exercise exactly this claim.
func (sp *Nondet) normalize(q NState) NState {
	for u := 0; u < sp.Threads; u++ {
		switch q.Status[u] {
		case stStarted:
			q.SP[u] = 0
		case stInvalid, stInvalidSer:
			q.PWS[u] = 0
			q.SP[u] = 0
			if sp.Prop == StrictSerializability {
				q.Status[u] = stInvalid
				q.RS[u] = 0
				q.WS[u] = 0
				q.PRS[u] = 0
			}
		}
	}
	return q
}

// markInvalid dooms thread u's commit, preserving the serialization
// standing of a thread that already took its ε.
func markInvalid(q *NState, u int) {
	if q.Status[u] == stSerialized || q.Status[u] == stInvalidSer {
		q.Status[u] = stInvalidSer
	} else {
		q.Status[u] = stInvalid
	}
}

// serializedSet collects the threads that have serialized — including
// those that have since become unable to commit, whose place in the
// serialization order still constrains others.
func (sp *Nondet) serializedSet(q NState) core.ThreadSet {
	var s core.ThreadSet
	for u := 0; u < sp.Threads; u++ {
		if q.Status[u] == stSerialized || q.Status[u] == stInvalidSer {
			s = s.Add(core.Thread(u))
		}
	}
	return s
}

// Step is the nondetSpec procedure for a statement: it returns the
// successor state, or ok = false when the statement is not allowed (the
// procedure's ⊥). Successor states are normalized.
func (sp *Nondet) Step(q NState, s core.Stmt) (NState, bool) {
	q2, ok := sp.step(q, s)
	if !ok {
		return q2, false
	}
	return sp.normalize(q2), true
}

func (sp *Nondet) step(q NState, s core.Stmt) (NState, bool) {
	t := s.T
	ti := int(t)
	switch s.Cmd.Op {
	case core.OpRead:
		v := s.Cmd.V
		if q.WS[ti].Has(v) {
			return q, true // not a global read
		}
		if q.Status[ti] == stFinished {
			q.SP[ti] = sp.serializedSet(q)
			q.Status[ti] = stStarted
		}
		q.RS[ti] = q.RS[ti].Add(v)
		if sp.Prop == Opacity {
			if q.PRS[ti].Has(v) {
				return q, false
			}
			for u := 0; u < sp.Threads; u++ {
				if u == ti {
					continue
				}
				if q.Status[u] == stSerialized && !q.SP[u].Has(t) {
					if q.WS[u].Has(v) {
						markInvalid(&q, u)
					} else {
						q.PWS[u] = q.PWS[u].Add(v)
					}
				}
			}
		} else {
			if q.Status[ti] == stSerialized && q.PRS[ti].Has(v) {
				markInvalid(&q, ti)
			}
		}
		return q, true

	case core.OpWrite:
		v := s.Cmd.V
		if q.Status[ti] == stFinished {
			q.SP[ti] = sp.serializedSet(q)
			q.Status[ti] = stStarted
		} else if q.Status[ti] == stSerialized && q.PWS[ti].Has(v) {
			markInvalid(&q, ti)
		}
		q.WS[ti] = q.WS[ti].Add(v)
		return q, true

	case core.OpCommit:
		if q.Status[ti] == stStarted || q.Status[ti] == stInvalid ||
			q.Status[ti] == stInvalidSer {
			return q, false
		}
		for u := 0; u < sp.Threads; u++ {
			if u == ti {
				continue
			}
			if q.SP[ti].Has(core.Thread(u)) {
				q.PRS[u] = q.PRS[u].Union(q.WS[ti])
				q.PWS[u] = q.PWS[u].Union(q.RS[ti]).Union(q.WS[ti])
				if q.WS[u].Intersects(q.WS[ti].Union(q.RS[ti])) {
					markInvalid(&q, u)
				}
			} else {
				if q.WS[ti].Intersects(q.RS[u]) {
					// u read a variable this commit overwrites, yet u is
					// not a serialization predecessor of t: u's ε — taken
					// or still to come — orders u after t, contradicting
					// the read. Deviation from the printed algorithm (see
					// DESIGN.md): for opacity this run cannot represent
					// the word at all, because even an aborting or
					// unfinished u must serialize before t; the branches
					// where u serialized before t's ε carry the word. The
					// printed nondetSpec marks u invalid, which blocks u's
					// commit (enough for strict serializability) but not
					// the doomed transaction's later inconsistent reads.
					if sp.Prop == Opacity {
						return q, false
					}
					markInvalid(&q, u)
				}
			}
		}
		resetNondet(&q, t, sp.Threads)
		return q, true

	case core.OpAbort:
		resetNondet(&q, t, sp.Threads)
		return q, true
	}
	return q, false
}

// Eps is the nondetSpec procedure for the internal statement (ε, t): the
// nondeterministic guess that thread t's transaction serializes now.
// Successor states are normalized.
func (sp *Nondet) Eps(q NState, t core.Thread) (NState, bool) {
	q2, ok := sp.eps(q, t)
	if !ok {
		return q2, false
	}
	return sp.normalize(q2), true
}

func (sp *Nondet) eps(q NState, t core.Thread) (NState, bool) {
	ti := int(t)
	if q.Status[ti] != stStarted {
		return q, false
	}
	// Following the paper's order of assignments, the status flips to
	// serialized before sp(t) is recomputed, so t lands in its own sp set;
	// the commit rule only ever consults sp(t) for other threads.
	q.Status[ti] = stSerialized
	q.SP[ti] = sp.serializedSet(q)
	if sp.Prop == Opacity {
		for u := 0; u < sp.Threads; u++ {
			if u == ti {
				continue
			}
			switch q.Status[u] {
			case stStarted:
				if q.RS[u].Intersects(q.WS[ti]) {
					markInvalid(&q, ti)
				}
				q.PWS[ti] = q.PWS[ti].Union(q.RS[u])
			case stSerialized:
				if q.WS[u].Intersects(q.RS[ti]) {
					markInvalid(&q, u)
				}
				q.PWS[u] = q.PWS[u].Union(q.RS[ti])
			}
		}
	}
	return q, true
}

// Accepts reports whether w ∈ L(Σ) by subset simulation with ε-closure.
func (sp *Nondet) Accepts(w core.Word) bool {
	ok, _ := sp.AcceptsStates(w)
	return ok
}

// AcceptsStates is Accepts also reporting the number of specification
// states inserted into subset sets during the simulation (ε-closure
// members included) — the unit the fuzzer charges against its state
// budget.
func (sp *Nondet) AcceptsStates(w core.Word) (bool, int) {
	visited := 0
	cur := map[NState]bool{}
	add := func(set map[NState]bool, q NState) {
		if set[q] {
			return
		}
		set[q] = true
		visited++
		// ε-closure: follow every enabled ε(t), recursively.
		var stack []NState
		stack = append(stack, q)
		for len(stack) > 0 {
			x := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for t := 0; t < sp.Threads; t++ {
				if y, ok := sp.Eps(x, core.Thread(t)); ok && !set[y] {
					set[y] = true
					visited++
					stack = append(stack, y)
				}
			}
		}
	}
	add(cur, sp.Initial())
	for _, s := range w {
		next := map[NState]bool{}
		for q := range cur {
			if q2, ok := sp.Step(q, s); ok {
				add(next, q2)
			}
		}
		if len(next) == 0 {
			return false, visited
		}
		cur = next
	}
	return true, visited
}

// Enumerate builds the explicit NFA of the specification over the
// instance alphabet, with ε(t) guesses as ε-transitions, in first-sight
// scan order: each state's letters first, then its ε(t) guesses. The
// enumeration size and time are recorded under
// "spec.nondet.<prop>.n<n>k<k>.*" in the obs registry.
func (sp *Nondet) Enumerate() *automata.NFA {
	start := time.Now()
	ab := core.Alphabet{Threads: sp.Threads, Vars: sp.Vars}
	nfa := automata.NewNFA(ab.Size())
	sp.enumerate(nfa, ab)
	if obs.Enabled() {
		key := fmt.Sprintf("spec.nondet.%s.n%dk%d", sp.Prop.Key(), sp.Threads, sp.Vars)
		obs.Inc(key+".enumerations", 1)
		obs.Inc(key+".states", int64(nfa.NumStates()))
		obs.AddTime(key+".enumerate", time.Since(start))
	}
	return nfa
}

// enumerate is the scan-order enumeration loop.
func (sp *Nondet) enumerate(nfa *automata.NFA, ab core.Alphabet) {
	index := map[NState]int{sp.Initial(): 0}
	states := []NState{sp.Initial()}
	intern := func(q NState) (int, bool) {
		if id, ok := index[q]; ok {
			return id, false
		}
		id := nfa.AddState()
		index[q] = id
		states = append(states, q)
		return id, true
	}
	for qi := 0; qi < len(states); qi++ {
		q := states[qi]
		for l := 0; l < ab.Size(); l++ {
			if q2, ok := sp.Step(q, ab.Decode(l)); ok {
				id, _ := intern(q2)
				nfa.AddEdge(qi, l, id)
			}
		}
		for t := 0; t < sp.Threads; t++ {
			if q2, ok := sp.Eps(q, core.Thread(t)); ok {
				id, _ := intern(q2)
				nfa.AddEps(qi, id)
			}
		}
	}
}
