package explore

import (
	"fmt"
	"slices"
	"sync"
	"time"

	"tmcheck/internal/automata"
	"tmcheck/internal/chaos"
	"tmcheck/internal/guard"
	"tmcheck/internal/obs"
	"tmcheck/internal/pack"
	"tmcheck/internal/tm"
)

// An edge word locates one expanded state's edge list in the Lazy's
// arena: the chunk index plus one in the top 24 bits (0: the state is
// not expanded yet; 2^24 chunks hold more edges than memory does), then
// the list's offset in its chunk and its length, 20 bits each. A chunk
// holds at most max(maxChunk, list length) edges, so the offset fits
// whenever the length does. A state has about one edge per (thread,
// command) plus a few aborts — the registry's maximum at (2,3) is 19,
// for 2 × 7 commands — so the (4,16) bound's 4 × 33 commands stay far
// below the 20-bit cap.
const (
	wordFieldBits = 20
	wordMaxField  = 1<<wordFieldBits - 1
)

// The pipeline's fixed sizes. The stage hands its records to the walk in
// batches of batchRecords over a channel lookAhead batches deep: with one
// batch of look-ahead the stage and the walk stall on each other. The
// stage gives its helper helperChunk queued states at a time.
const (
	batchRecords = 512
	lookAhead    = 8
	helperChunk  = 1024
)

// Lazy is the lazily expanded TM×CM product, the left side of the
// on-the-fly safety search's automata.Walk. States get dense ids on
// first sight and are expanded at most once; each expansion is cached as
// its (successor, letter) list in automata.SortEdges order — the order
// of the built system's TS.DenseNFA, so the walk and its counterexample
// are bit-identical across engines. Every product interns its core's
// keys in a pack.Map: bit-packed keys when it packs (packedFor), the
// boxed core's one-word numbers otherwise.
//
// The walk asks for a state's edges first when it takes the state's
// first pair off its queue, and it pushed that pair in the iteration
// that interned the state: that iteration pushes a pair for every edge
// of the state it expands, and only a violation, which ends the walk,
// cuts it short. So the walk meets the TM states in an order of the TM
// alone — the initial state, then each expanded state's fresh
// successors in SortEdges order of first occurrence — and a stage
// explores the TM in exactly that order. Each expansion becomes a
// record (the state, its edge word, the states interned so far) that
// Edges takes in turn; a request for an unexpanded state that is not
// the next record's panics. NumStates counts the states as of the last
// record taken, so the walk sees the ids, sizes and budget trip points
// of an inline expansion however far the stage has run ahead.
//
// NewLazy runs the stage on the walk's goroutine, one expansion per
// record. NewLazyWorkers above one worker starts it on a goroutine of
// its own, at most lookAhead batches ahead of the walk; for products
// that pack, one helper goroutine expands the keys of the stage's next
// helperChunk queued states on a clone of the core, so the stage only
// interns, sorts and stores them. Close stops both.
type Lazy struct {
	st *stage
	// The walk's side: the edge words of the states whose records it
	// took (0: none yet), the arena chunks the stage published, and the
	// current batch with the index of its next record.
	words  []uint64
	chunks [][]automata.Edge
	cur    *batch
	next   int
	// The pipeline; nil channels when the walk's goroutine runs the stage.
	batches chan *batch
	free    chan *batch
	done    chan struct{}
	stopped sync.WaitGroup
}

// record hands one expansion from the stage to the walk: the expanded
// state, the number of states interned after it, and its edge word.
type record struct {
	id, states int32
	word       uint64
}

// batch is a run of records, with the arena chunks the stage opened
// while producing them as full-length headers (so the walk can slice any
// list in them) and, after the records, the *guard.LimitError of a
// panic that stopped the stage.
type batch struct {
	recs   []record
	chunks [][]automata.Edge
	err    error
}

// NewLazy returns the lazy product of alg (with an optional manager cm)
// and the most general program, holding only the initial state (id 0).
// Its stage runs on the calling goroutine.
func NewLazy(alg tm.Algorithm, cm tm.ContentionManager) *Lazy {
	return NewLazyWorkers(alg, cm, 1)
}

// NewLazyWorkers is NewLazy whose stage, above one worker, runs on a
// goroutine of its own, with one helper goroutine when the product
// packs. The Lazy belongs to the goroutine that calls Edges; call Close
// before abandoning it.
func NewLazyWorkers(alg tm.Algorithm, cm tm.ContentionManager, workers int) *Lazy {
	pc, packed := coreFor(alg, cm)
	lz := &Lazy{st: newStage(pc), words: make([]uint64, 1), cur: &batch{}}
	if workers <= 1 {
		return lz
	}
	if packed {
		lz.st.helper = pc.clone()
		lz.st.ready, lz.st.ahead = newChunkOut(), newChunkOut()
	}
	lz.batches = make(chan *batch, lookAhead)
	// Room for every batch there is: lookAhead queued, one being filled
	// and one being read.
	lz.free = make(chan *batch, lookAhead+2)
	lz.done = make(chan struct{})
	lz.stopped.Add(1)
	go lz.run()
	return lz
}

// NumStates returns the number of states interned as of the last
// expansion Edges took.
func (lz *Lazy) NumStates() int { return len(lz.words) }

// Edges returns the cached edge list of state id, taking the state's
// expansion from the stage on first request. The list stays valid for
// the Lazy's lifetime; callers must not modify it.
func (lz *Lazy) Edges(id int32) []automata.Edge {
	if int(id) < len(lz.words) && lz.words[id] != 0 {
		return lz.list(lz.words[id])
	}
	r := lz.peek()
	if r.id != id {
		panic(fmt.Sprintf("explore: edges of state %d requested out of walk order (the next expansion is state %d's)", id, r.id))
	}
	lz.next++
	lz.words = append(lz.words, make([]uint64, int(r.states)-len(lz.words))...)
	lz.words[id] = r.word
	return lz.list(r.word)
}

// peek returns the next record without taking it, fetching the next
// batch when the current one is spent and re-raising the stage's panic
// after its last record.
func (lz *Lazy) peek() record {
	for lz.next == len(lz.cur.recs) {
		if err := lz.cur.err; err != nil {
			panic(err)
		}
		if lz.batches == nil {
			lz.st.fill(lz.cur, 1)
			lz.st.publish(lz.cur)
		} else {
			select {
			case lz.free <- lz.cur:
			default:
			}
			b, ok := <-lz.batches
			if !ok {
				b = &batch{}
			}
			lz.cur = b
		}
		if len(lz.cur.recs) == 0 && lz.cur.err == nil {
			panic("explore: edges requested after every state was expanded")
		}
		lz.chunks = append(lz.chunks, lz.cur.chunks...)
		lz.next = 0
	}
	return lz.cur.recs[lz.next]
}

// list returns the edge list that edge word w locates.
func (lz *Lazy) list(w uint64) []automata.Edge {
	off, n := int(w>>wordFieldBits)&wordMaxField, int(w&wordMaxField)
	return lz.chunks[int(w>>(2*wordFieldBits))-1][off : off+n : off+n]
}

// run is the stage goroutine: it fills batches and sends them until the
// TM is explored, the stage panics (the batch carries the panic after
// its records) or Close.
func (lz *Lazy) run() {
	defer lz.stopped.Done()
	defer close(lz.batches)
	defer lz.st.wg.Wait()
	st := lz.st
	for {
		select {
		case <-lz.done:
			return
		default:
		}
		var b *batch
		select {
		case b = <-lz.free:
		default:
			b = &batch{}
		}
		b.err = guard.Capture(func() error {
			st.fill(b, batchRecords)
			return nil
		})
		st.publish(b)
		if len(b.recs) == 0 && b.err == nil {
			return
		}
		select {
		case lz.batches <- b:
		case <-lz.done:
			return
		}
		if b.err != nil {
			return
		}
	}
}

// Close stops the stage and its helper and waits for them. The Lazy
// answers Edges afterwards only for states it already expanded. Close
// is a no-op when the stage runs on the walk's goroutine.
func (lz *Lazy) Close() {
	if lz.done != nil {
		close(lz.done)
		lz.stopped.Wait()
		lz.done = nil
	}
}

// stage explores the TM in walk order. It owns the intern table, the
// edge arena and the queue of states to expand; queue[head] is the next.
type stage struct {
	pc      packedIface
	kw      int
	keys    *pack.Map
	arena   arena[automata.Edge]
	queue   []int32
	head    int
	opened  int // arena chunks already published
	scratch []automata.Edge
	cur     [pack.MaxWords]uint64
	yield   func(next []uint64, e Edge)

	// The helper, nil when the stage expands every state itself. ready
	// holds its expansions of queue[readyLo:readyHi]; while aheadHi >
	// readyHi it is filling ahead with those of queue[readyHi:aheadHi].
	helper                    packedIface
	ready, ahead              *chunkOut
	readyLo, readyHi, aheadHi int
	wg                        sync.WaitGroup
}

// chunkOut is one helper chunk: the keys of its states, copied so the
// helper never reads the intern table the stage grows, and the helper's
// output — successor keys at the key stride and their letters in
// expansion order, the end of each state's successors, and the
// *guard.LimitError of a panic that stopped the helper.
type chunkOut struct {
	in    []uint64
	keys  []uint64
	emits []int16
	ends  []int32
	yield func(next []uint64, e Edge)
	err   error
}

func newChunkOut() *chunkOut {
	out := &chunkOut{}
	out.yield = func(next []uint64, e Edge) {
		out.keys = append(out.keys, next...)
		out.emits = append(out.emits, e.Emit)
	}
	return out
}

func newStage(pc packedIface) *stage {
	st := &stage{pc: pc, kw: pc.keyWords(), arena: arena[automata.Edge]{chunkSize: 64}}
	st.keys = pack.NewMap(st.kw, 0)
	pc.writeInit(st.cur[:st.kw])
	st.keys.Intern(st.cur[:st.kw])
	st.queue = append(st.queue, 0)
	st.yield = func(next []uint64, e Edge) {
		id, _ := st.keys.Intern(next)
		st.scratch = append(st.scratch, automata.Edge{To: id, Emit: e.Emit})
	}
	return st
}

// fill appends up to max records to b, fewer when the queue runs dry.
func (st *stage) fill(b *batch, max int) {
	b.recs = b.recs[:0]
	for len(b.recs) < max && st.head < len(st.queue) {
		b.recs = append(b.recs, st.step())
	}
}

// publish puts the arena chunks opened since the last call into b.
func (st *stage) publish(b *batch) {
	b.chunks = b.chunks[:0]
	for ; st.opened < len(st.arena.chunks); st.opened++ {
		c := st.arena.chunks[st.opened]
		b.chunks = append(b.chunks, c[:cap(c)])
	}
}

// step expands the next queued state — from the helper's output when it
// has it — interns its successors in expansion order, stores its sorted
// edge list and queues its fresh successors in SortEdges order of first
// occurrence.
func (st *stage) step() record {
	i, id := st.head, st.queue[st.head]
	if i == st.readyHi && st.aheadHi > i {
		st.join()
	}
	before := int32(st.keys.Len())
	st.scratch = st.scratch[:0]
	if st.readyLo <= i && i < st.readyHi {
		st.take(i - st.readyLo)
	} else {
		// KeyAt aliases the table and interning may grow it: expand a copy.
		copy(st.cur[:st.kw], st.keys.KeyAt(id))
		st.pc.expandKey(st.cur[:st.kw], st.yield)
	}
	es := st.scratch
	automata.SortEdges(es)
	if len(es) > wordMaxField {
		panic(fmt.Sprintf("explore: state %d has %d edges, over the edge word's %d", id, len(es), wordMaxField))
	}
	chunk, off := st.arena.put(es)
	tail := len(st.queue)
	for _, e := range es {
		if e.To >= before && !slices.Contains(st.queue[tail:], e.To) {
			st.queue = append(st.queue, e.To)
		}
	}
	st.head++
	if st.helper != nil && st.aheadHi == st.readyHi {
		st.launch()
	}
	return record{
		id: id, states: int32(st.keys.Len()),
		word: uint64(chunk+1)<<(2*wordFieldBits) | uint64(off)<<wordFieldBits | uint64(len(es)),
	}
}

// take interns the successors of entry j of the ready chunk into
// scratch, in the order the helper's expansion yielded them.
func (st *stage) take(j int) {
	out, kw := st.ready, st.kw
	lo := int32(0)
	if j > 0 {
		lo = out.ends[j-1]
	}
	for k := lo; k < out.ends[j]; k++ {
		to, _ := st.keys.Intern(out.keys[int(k)*kw : int(k+1)*kw])
		st.scratch = append(st.scratch, automata.Edge{To: to, Emit: out.emits[k]})
	}
}

// join waits for the helper's chunk, re-raising a panic of the helper's
// on the stage, and makes it the ready one.
func (st *stage) join() {
	st.wg.Wait()
	if err := st.ahead.err; err != nil {
		st.ahead.err = nil
		panic(err)
	}
	st.ready, st.ahead = st.ahead, st.ready
	st.readyLo, st.readyHi = st.readyHi, st.aheadHi
}

// launch starts the helper on the helperChunk queued states after the
// ready ones — or, when none is ready, after the next helperChunk, which
// the stage expands itself meanwhile — if the queue holds them yet.
func (st *stage) launch() {
	lo := st.readyHi
	if st.head >= lo {
		lo = st.head + helperChunk
	}
	if len(st.queue) < lo+helperChunk {
		return
	}
	if lo > st.readyHi {
		st.readyLo, st.readyHi = lo, lo
	}
	st.aheadHi = lo + helperChunk
	out := st.ahead
	out.in = out.in[:0]
	for _, id := range st.queue[lo:st.aheadHi] {
		out.in = append(out.in, st.keys.KeyAt(id)...)
	}
	st.wg.Add(1)
	go st.expandChunk(out)
}

// expandChunk is the helper: it expands the states of out on its own
// core into out. A panic — a crashing TM, or the injected worker-panic
// fault — stops it and waits in out for the stage to re-raise.
func (st *stage) expandChunk(out *chunkOut) {
	defer st.wg.Done()
	out.keys, out.emits, out.ends = out.keys[:0], out.emits[:0], out.ends[:0]
	n := len(out.in) / st.kw
	var start time.Time
	spans := obs.EventsEnabled()
	if spans {
		start = time.Now()
	}
	out.err = guard.Capture(func() error {
		for i := range n {
			if chaos.Fire(chaos.SiteWorkerPanic) {
				panic(fmt.Errorf("%w: stage helper panic expanding entry %d of its chunk", chaos.ErrInjected, i))
			}
			st.helper.expandKey(out.in[i*st.kw:(i+1)*st.kw], out.yield)
			out.ends = append(out.ends, int32(len(out.emits)))
		}
		return nil
	})
	if spans {
		// The worker track of the -trace view.
		obs.Emit(obs.Event{Kind: obs.EvWorkerSpan, States: int64(n), DurNS: time.Since(start).Nanoseconds()})
	}
}
