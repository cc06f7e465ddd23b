package explore

import (
	"fmt"
	"slices"
	"sync"
	"time"

	"tmcheck/internal/chaos"
	"tmcheck/internal/guard"
	"tmcheck/internal/obs"
	"tmcheck/internal/pack"
	"tmcheck/internal/tm"
)

// LazyEdge is one cached transition of a Lazy state: the successor's id
// and the emitted letter, or -1 for an internal ⊥-step.
type LazyEdge struct {
	To   int32
	Emit int16
}

// noEdges marks a state as expanded with no edge list of its own; nil
// marks a state not expanded yet.
var noEdges = []LazyEdge{}

// Lazy is the lazily expanded TM×CM product the on-the-fly safety search
// walks. States get dense ids on first sight and are expanded at most
// once; each expansion is cached as its (successor, letter) list, ε-steps
// first and then by letter, in stable order — the successor order of the
// materialized inclusion walk, so the product BFS and its counterexample
// are bit-identical across engines. Every product interns its core's
// keys in a pack.Map: bit-packed keys when it packs (packedFor), the
// boxed core's one-word numbers otherwise.
//
// A Lazy belongs to one goroutine. Prefetch hands the expansion of
// states the caller will ask for soon to helper goroutines, which read
// copies of the keys and write only their own buffers; Edges interns a
// prefetched expansion's successors exactly when and in the order it
// would intern an inline expansion's, so ids never depend on the
// helpers. Wait joins them.
type Lazy struct {
	pc      packedIface
	packed  bool // false: pc is a boxed core, which is never prefetched
	keys    *pack.Map
	edges   [][]LazyEdge // per state; nil until expanded
	arena   arena[LazyEdge]
	scratch []LazyEdge
	cur     [pack.MaxWords]uint64
	yield   func(next []uint64, e Edge)

	// Prefetch state. Every prefetched state is an entry numbered in
	// prefetch order; slot[id] is one more than its entry's number (0:
	// never prefetched; ids past len(slot) are newer than the last
	// Prefetch). Entries [readyLo, readyHi) are in ready, whose helpers
	// have been joined; entries [readyHi, entries) are in ahead, which
	// the helpers may still be filling.
	slot             []int32
	entries          int32
	readyLo, readyHi int32
	ready, ahead     *aheadBatch
	cores            []packedIface // one per helper
	wg               sync.WaitGroup
}

// aheadBatch is one Prefetch call's work: its entries' keys, copied so
// the helpers never read the intern table the caller grows, and the
// helpers' output.
type aheadBatch struct {
	in    []uint64 // entry keys at the key stride
	spans []aheadSpan
	outs  []*aheadOut // one per helper
}

// aheadOut is one helper's output: successor keys at the key stride and
// their letters in expansion order, and the *guard.LimitError of a
// panic that stopped the helper.
type aheadOut struct {
	keys  []uint64
	emits []int16
	yield func(next []uint64, e Edge)
	err   error
}

// aheadSpan locates one entry's successors in helper h's output.
type aheadSpan struct{ h, start, end int32 }

// NewLazy returns the lazy product of alg (with an optional manager cm)
// and the most general program, holding only the initial state (id 0).
func NewLazy(alg tm.Algorithm, cm tm.ContentionManager) *Lazy {
	lz := &Lazy{arena: arena[LazyEdge]{chunkSize: 64}}
	lz.pc, lz.packed = coreFor(alg, cm)
	kw := lz.pc.keyWords()
	lz.keys = pack.NewMap(kw, 0)
	lz.pc.writeInit(lz.cur[:kw])
	lz.keys.Intern(lz.cur[:kw])
	lz.yield = func(next []uint64, e Edge) {
		lz.scratch = append(lz.scratch, LazyEdge{To: lz.internKey(next), Emit: e.Emit})
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
// first request — from a joined prefetch when there is one. The list
// stays valid for the Lazy's lifetime; callers must not modify it.
func (lz *Lazy) Edges(id int32) []LazyEdge {
	if es := lz.edges[id]; es != nil {
		return es
	}
	lz.scratch = lz.scratch[:0]
	if int(id) < len(lz.slot) && lz.slot[id] > lz.readyLo && lz.slot[id] <= lz.readyHi {
		lz.takeAhead(lz.slot[id] - 1 - lz.readyLo)
	} else {
		// KeyAt aliases the table and interning may grow it: expand a copy.
		kw := lz.pc.keyWords()
		copy(lz.cur[:kw], lz.keys.KeyAt(id))
		lz.pc.expandKey(lz.cur[:kw], lz.yield)
	}
	return lz.settle(id)
}

// takeAhead interns the successors of entry i of the ready batch into
// scratch, in the order its helper's expansion yielded them.
func (lz *Lazy) takeAhead(i int32) {
	sp, kw := lz.ready.spans[i], int32(lz.pc.keyWords())
	out := lz.ready.outs[sp.h]
	for j := sp.start; j < sp.end; j++ {
		to := lz.internKey(out.keys[j*kw : (j+1)*kw])
		lz.scratch = append(lz.scratch, LazyEdge{To: to, Emit: out.emits[j]})
	}
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

// Prefetch joins the helpers of the previous call, re-raising a panic
// of theirs on the calling goroutine as a *guard.LimitError of kind
// KindPanic, and lets Edges take their expansions from then on. It then
// starts expanding the states among ids that are neither expanded nor
// prefetched on workers-1 helper goroutines and returns without waiting
// for them. Edges of such a state before the next Prefetch expands it
// inline and drops the helper's copy. Boxed products and one worker do
// not prefetch.
func (lz *Lazy) Prefetch(ids []int32, workers int) {
	if !lz.packed || workers <= 1 {
		return
	}
	lz.wg.Wait()
	if lz.ahead == nil {
		lz.ready, lz.ahead = &aheadBatch{}, &aheadBatch{}
	}
	for _, out := range lz.ahead.outs {
		if err := out.err; err != nil {
			out.err = nil
			panic(err)
		}
	}
	lz.ready, lz.ahead = lz.ahead, lz.ready
	lz.readyLo, lz.readyHi = lz.readyHi, lz.entries

	b, kw := lz.ahead, lz.pc.keyWords()
	lz.slot = append(lz.slot, make([]int32, len(lz.edges)-len(lz.slot))...)
	b.in = b.in[:0]
	for _, id := range ids {
		// A slot above readyLo is an entry of ready or of this batch.
		if lz.edges[id] == nil && lz.slot[id] <= lz.readyLo {
			lz.entries++
			lz.slot[id] = lz.entries
			b.in = append(b.in, lz.keys.KeyAt(id)...)
		}
	}
	n := len(b.in) / kw
	if n == 0 {
		return
	}
	b.spans = slices.Grow(b.spans[:0], n)[:n]
	helpers := min(workers-1, n)
	for len(lz.cores) < helpers {
		lz.cores = append(lz.cores, lz.pc.clone())
	}
	for len(b.outs) < helpers {
		out := &aheadOut{}
		out.yield = func(next []uint64, e Edge) {
			out.keys = append(out.keys, next...)
			out.emits = append(out.emits, e.Emit)
		}
		b.outs = append(b.outs, out)
	}
	lz.wg.Add(helpers)
	for h := range helpers {
		go lz.expandAhead(b, h, h*n/helpers, (h+1)*n/helpers)
	}
}

// expandAhead is helper h of a Prefetch: it expands entries [lo, hi) of
// b on its own core into its own output. A panic — a crashing TM, or
// the injected worker-panic fault — stops the helper and waits in its
// output for the next Prefetch to re-raise.
func (lz *Lazy) expandAhead(b *aheadBatch, h, lo, hi int) {
	defer lz.wg.Done()
	out, pc, kw := b.outs[h], lz.cores[h], lz.pc.keyWords()
	out.keys, out.emits = out.keys[:0], out.emits[:0]
	var start time.Time
	spans := obs.EventsEnabled()
	if spans {
		start = time.Now()
	}
	out.err = guard.Capture(func() error {
		for i := lo; i < hi; i++ {
			if chaos.Fire(chaos.SiteWorkerPanic) {
				panic(fmt.Errorf("%w: prefetch helper %d panic expanding entry %d", chaos.ErrInjected, h, i))
			}
			first := int32(len(out.emits))
			pc.expandKey(b.in[i*kw:(i+1)*kw], out.yield)
			b.spans[i] = aheadSpan{h: int32(h), start: first, end: int32(len(out.emits))}
		}
		return nil
	})
	if spans {
		// The per-worker tracks of the -trace view.
		obs.Emit(obs.Event{
			Kind: obs.EvWorkerSpan, Worker: int32(h),
			States: int64(hi - lo), DurNS: time.Since(start).Nanoseconds(),
		})
	}
}

// Wait joins the helpers of the last Prefetch, leaving their work
// untaken. Call it before abandoning a Lazy that has prefetched.
func (lz *Lazy) Wait() { lz.wg.Wait() }
