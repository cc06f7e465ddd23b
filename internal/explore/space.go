package explore

import (
	"tmcheck/internal/core"
	"tmcheck/internal/pack"
	"tmcheck/internal/parbfs"
	"tmcheck/internal/space"
	"tmcheck/internal/tm"
)

// unfolding is the boxed successor generator of the TM×CM×most-general-
// program product: it runs the TM semantics on boxed tm.State values.
// The generic scans use it for products the packed core rejects, and so
// does Lazy. Every engine funnels through forEachEnabled/forEachStep (or
// the packed core's mirror of them), so per-state edge order — and hence
// every canonical numbering and every counterexample downstream — is
// bit-identical across engines by construction.
type unfolding struct {
	alg      tm.Algorithm
	cm       tm.ContentionManager // nil when the TM runs without a manager
	ab       core.Alphabet
	commands []core.Command
}

func newUnfolding(alg tm.Algorithm, cm tm.ContentionManager) *unfolding {
	ab := core.Alphabet{Threads: alg.Threads(), Vars: alg.Vars()}
	return &unfolding{alg: alg, cm: cm, ab: ab, commands: ab.Commands()}
}

// initial returns the product's initial state.
func (u *unfolding) initial() prodState {
	var cmInit tm.State
	if u.cm != nil {
		cmInit = u.cm.Initial()
	}
	return prodState{TM: u.alg.Initial(), CM: cmInit}
}

// expand enumerates the successors of product state q without interning
// anything: the edge templates are yielded with To unset.
func (u *unfolding) expand(q prodState, yield func(next prodState, e Edge)) {
	u.forEachEnabled(q, func(c core.Command, t core.Thread) {
		u.forEachStep(q, c, t, yield)
	})
}

// forEachEnabled calls yield for every (command, thread) pair the most
// general program may issue from q: everything when the thread has no
// pending command, only the pending command otherwise.
func (u *unfolding) forEachEnabled(q prodState, yield func(core.Command, core.Thread)) {
	n := u.alg.Threads()
	for t := core.Thread(0); int(t) < n; t++ {
		if q.Pending[t].Active {
			yield(q.Pending[t].C, t)
			continue
		}
		for _, c := range u.commands {
			yield(c, t)
		}
	}
}

// forEachStep enumerates every transition for command c by thread t from
// state q, calling yield with the successor product state and the edge
// template (To left unset — the caller interns the successor). Every
// engine funnels through this single enumerator, so their edge order
// agrees by construction.
func (u *unfolding) forEachStep(q prodState, c core.Command, t core.Thread, yield func(next prodState, e Edge)) {
	steps := u.alg.Steps(q.TM, c, t)
	conflict := u.alg.Conflict(q.TM, c, t)

	// cmStep resolves the contention-manager product for extended command
	// x: allowed reports whether the transition survives, and next is the
	// manager's state afterwards.
	cmStep := func(x tm.XCmd) (next tm.State, allowed bool) {
		if u.cm == nil {
			return q.CM, true
		}
		p2, has := u.cm.Step(q.CM, x, t)
		if conflict && !has {
			return nil, false
		}
		if has {
			return p2, true
		}
		return q.CM, true
	}

	for _, step := range steps {
		cmNext, ok := cmStep(step.X)
		if !ok {
			continue
		}
		next := prodState{TM: step.Next, Pending: q.Pending, CM: cmNext}
		emit := int16(-1)
		if step.R == tm.RespPending {
			next.Pending[t] = pending{Active: true, C: c}
		} else {
			next.Pending[t] = pending{}
			if step.R == tm.Resp1 {
				emit = int16(u.ab.Encode(core.St(c, t)))
			}
		}
		yield(next, Edge{Cmd: c, T: t, X: step.X, R: step.R, Emit: emit})
	}

	// Abort transitions exist when the command is abort enabled (no
	// extended-command step) or the conflict function is true.
	if len(steps) == 0 || conflict {
		if cmNext, ok := cmStep(tm.XCmd{Kind: tm.XAbort}); ok {
			next := prodState{TM: u.alg.AbortStep(q.TM, t), Pending: q.Pending, CM: cmNext}
			next.Pending[t] = pending{}
			emit := int16(u.ab.Encode(core.St(core.Abort(), t)))
			yield(next, Edge{
				Cmd: c, T: t,
				X: tm.XCmd{Kind: tm.XAbort}, R: tm.Resp0, Emit: emit,
			})
		}
	}
}

// LazyEdge is one cached transition of a Lazy state: the successor's id
// and the emitted letter, or -1 for an internal ⊥-step.
type LazyEdge struct {
	To   int32
	Emit int16
}

// noEdges marks a state as expanded (or queued for expansion) with no
// edge list of its own; nil marks a state not expanded yet.
var noEdges = []LazyEdge{}

// Lazy is the lazily expanded TM×CM product the on-the-fly safety search
// walks. States get dense ids on first sight and are expanded at most
// once; each expansion is cached as its (successor, letter) list, ε-steps
// first and then by letter, in stable order — the successor order of the
// materialized inclusion walk, so the product BFS and its counterexample
// are bit-identical across engines. Products that pack (packedFor) intern
// bit-packed keys in a pack.Map; the others run the boxed unfolding
// behind the same cache. A Lazy is single-goroutine: only Prefetch fans
// work out, and it joins its workers before returning.
type Lazy struct {
	pc      packedIface // nil: boxed fallback through u and boxed
	keys    *pack.Map
	u       *unfolding
	boxed   *space.Interner[prodState]
	edges   [][]LazyEdge // per state; nil until expanded
	arena   arena[LazyEdge]
	scratch []LazyEdge
	cur     [pack.MaxWords]uint64
	yield   func(next []uint64, e Edge)
	yieldQ  func(next prodState, e Edge)

	// Prefetch scratch, reused across calls.
	todo  []int32
	spans []prefetchSpan
	bufs  []*prefetchBuf
}

// prefetchBuf is one Prefetch worker's packed core and output: the
// successor keys (flat, at the key stride) and their letters.
type prefetchBuf struct {
	pc    packedIface
	keys  []uint64
	emits []int16
	yield func(next []uint64, e Edge)
}

// prefetchSpan locates one expanded state's successors in a worker's
// prefetchBuf.
type prefetchSpan struct{ w, start, end int32 }

// NewLazy returns the lazy product of alg (with an optional manager cm)
// and the most general program, holding only the initial state (id 0).
func NewLazy(alg tm.Algorithm, cm tm.ContentionManager) *Lazy {
	lz := &Lazy{pc: packedFor(alg, cm), arena: arena[LazyEdge]{chunkSize: 64}}
	if lz.pc != nil {
		kw := lz.pc.keyWords()
		lz.keys = pack.NewMap(kw, 0)
		lz.pc.writeInit(lz.cur[:kw])
		lz.keys.Intern(lz.cur[:kw])
		lz.yield = func(next []uint64, e Edge) {
			lz.scratch = append(lz.scratch, LazyEdge{To: lz.internKey(next), Emit: e.Emit})
		}
	} else {
		lz.u = newUnfolding(alg, cm)
		lz.boxed = space.NewInterner[prodState]()
		lz.boxed.Intern(lz.u.initial())
		lz.yieldQ = func(next prodState, e Edge) {
			id, fresh := lz.boxed.InternFresh(next)
			if fresh {
				lz.edges = append(lz.edges, nil)
			}
			lz.scratch = append(lz.scratch, LazyEdge{To: id, Emit: e.Emit})
		}
	}
	lz.edges = append(lz.edges, nil)
	return lz
}

// NumStates returns the number of states interned so far.
func (lz *Lazy) NumStates() int { return len(lz.edges) }

func (lz *Lazy) internKey(key []uint64) int32 {
	id, fresh := lz.keys.Intern(key)
	if fresh {
		lz.edges = append(lz.edges, nil)
	}
	return id
}

// Edges returns the cached edge list of state id, expanding the state on
// first request. The list stays valid for the Lazy's lifetime; callers
// must not modify it.
func (lz *Lazy) Edges(id int32) []LazyEdge {
	if es := lz.edges[id]; es != nil {
		return es
	}
	lz.scratch = lz.scratch[:0]
	if lz.pc != nil {
		// KeyAt aliases the table and interning may grow it: expand a copy.
		kw := lz.pc.keyWords()
		copy(lz.cur[:kw], lz.keys.KeyAt(id))
		lz.pc.expandKey(lz.cur[:kw], lz.yield)
	} else {
		lz.u.expand(lz.boxed.At(id), lz.yieldQ)
	}
	return lz.settle(id)
}

// settle sorts the scratch edges ε-first and then by letter — an
// insertion sort, stable, as edge lists are a few elements long — and
// caches them as state id's list.
func (lz *Lazy) settle(id int32) []LazyEdge {
	es := lz.scratch
	for i := 1; i < len(es); i++ {
		e, j := es[i], i
		for ; j > 0 && es[j-1].Emit > e.Emit; j-- {
			es[j] = es[j-1]
		}
		es[j] = e
	}
	placed := lz.arena.place(es)
	if placed == nil {
		placed = noEdges
	}
	lz.edges[id] = placed
	return placed
}

// Prefetch expands the not-yet-expanded states among ids: the TM
// semantics runs across the workers, one packed-core clone each, writing
// successor keys into per-worker buffers, and the successors are then
// interned on the calling goroutine in (ids, edge) order. Afterwards
// Edges returns every listed state's cached list without expanding.
// Boxed products expand inline.
func (lz *Lazy) Prefetch(ids []int32, workers int) {
	if lz.pc == nil || workers <= 1 {
		for _, id := range ids {
			lz.Edges(id)
		}
		return
	}
	todo := lz.todo[:0]
	for _, id := range ids {
		if lz.edges[id] == nil {
			lz.edges[id] = noEdges // queued: keeps duplicates out of todo
			todo = append(todo, id)
		}
	}
	lz.todo = todo
	for len(lz.bufs) < workers {
		b := &prefetchBuf{pc: lz.pc.clone()}
		b.yield = func(next []uint64, e Edge) {
			b.keys = append(b.keys, next...)
			b.emits = append(b.emits, e.Emit)
		}
		lz.bufs = append(lz.bufs, b)
	}
	for _, b := range lz.bufs {
		b.keys, b.emits = b.keys[:0], b.emits[:0]
	}
	if cap(lz.spans) < len(todo) {
		lz.spans = make([]prefetchSpan, len(todo))
	}
	spans := lz.spans[:len(todo)]
	// The workers only read the intern table; nothing is interned until
	// they have all returned.
	parbfs.ForWorker(len(todo), workers, func(w, i int) {
		b := lz.bufs[w]
		start := len(b.emits)
		b.pc.expandKey(lz.keys.KeyAt(todo[i]), b.yield)
		spans[i] = prefetchSpan{w: int32(w), start: int32(start), end: int32(len(b.emits))}
	})
	kw := lz.pc.keyWords()
	for i, id := range todo {
		sp, b := spans[i], lz.bufs[spans[i].w]
		lz.scratch = lz.scratch[:0]
		for j := int(sp.start); j < int(sp.end); j++ {
			to := lz.internKey(b.keys[j*kw : (j+1)*kw])
			lz.scratch = append(lz.scratch, LazyEdge{To: to, Emit: b.emits[j]})
		}
		lz.settle(id)
	}
}
