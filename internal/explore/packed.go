package explore

import (
	"fmt"

	"tmcheck/internal/chaos"
	"tmcheck/internal/core"
	"tmcheck/internal/guard"
	"tmcheck/internal/pack"
	"tmcheck/internal/tm"
)

// The packed exploration core: when the TM algorithm implements
// tm.Packed[S] for its own name and the contention manager packs
// (tm.PackCM), the whole product state — TM state, per-thread pending
// commands, manager state — is encoded into a fixed-width key of a few
// uint64 words, interned into open-addressing pack.Map tables, and
// expanded through the typed yield-style steppers. No interface values,
// no map of structs, no per-step []Step slices: the hot loop's only
// amortized allocations are the growth of the dense tables and the
// edge arena.
//
// The enumeration order mirrors forEachEnabled/forEachStep exactly
// (same command order, same contention-manager product rule, same
// abort rule on the pre-filter step count), so the canonical numbering,
// every edge list, and every downstream verdict are bit-identical to
// the boxed core (boxed.go) — TestOpaqueFallbackMatchesPacked pins this.

// pendBits is the fixed per-thread width of the pending-command field:
// 1 active bit, 2 op bits, 4 variable bits (k ≤ 16). An inactive entry
// is all zeros, matching the zero pending value the boxed core keeps.
const pendBits = 7

// packedIface is the core the scan loops drive: packedCore[S] for a
// product that packs, boxedCore for any other. One value is
// single-goroutine; clone() makes per-helper copies of a packed core.
type packedIface interface {
	keyWords() int
	// keyBits is the exact bit width of the product key — part of the
	// snapshot section identity, so a resume with a different encoding
	// fails loudly.
	keyBits() int
	// writeInit writes the initial product key into key (len keyWords).
	writeInit(key []uint64)
	// expandKey enumerates the outgoing edge templates of the state with
	// the given key, calling yield with each successor's key (a scratch
	// buffer overwritten by the next yield — consumers intern or copy
	// immediately) and the edge with To unset.
	expandKey(key []uint64, yield func(next []uint64, e Edge))
	// clone returns a core sharing the immutable configuration with
	// fresh expansion scratch, for one Lazy.Prefetch helper.
	clone() packedIface
	// stateAt decodes a key into the boxed product state (cold path:
	// state-table reads by tests, witnesses, and the restricted builder).
	stateAt(key []uint64) prodState
}

// packedFor returns the packed core for the product, or nil when either
// factor cannot pack: an algorithm outside the typed registry, a
// wrapper whose PackedFor does not match its Name (method promotion
// guard), a user-registered contention manager, or a product key wider
// than pack.MaxWords. Such products run on the boxed core (coreFor).
func packedFor(alg tm.Algorithm, cm tm.ContentionManager) packedIface {
	pcm, ok := tm.PackCM(cm)
	if !ok {
		return nil
	}
	switch a := alg.(type) {
	case tm.Packed[tm.TL2State]:
		return newPackedCore(a, pcm)
	case tm.Packed[tm.TwoPLState]:
		return newPackedCore(a, pcm)
	case tm.Packed[tm.DSTMState]:
		return newPackedCore(a, pcm)
	case tm.Packed[tm.NOrecState]:
		return newPackedCore(a, pcm)
	case tm.Packed[tm.ETLState]:
		return newPackedCore(a, pcm)
	case tm.Packed[tm.SeqState]:
		return newPackedCore(a, pcm)
	default:
		return nil
	}
}

// packedCore is the typed implementation. The expansion scratch fields
// make the hot path closure-allocation free: stepYield is built once
// per core and reads the current (command, thread, conflict) from the
// receiver instead of capturing per-call locals.
type packedCore[S comparable] struct {
	alg      tm.Packed[S]
	pcm      tm.PackedCM // nil: no manager factor in the product
	ab       core.Alphabet
	commands []core.Command
	n        int
	kw       int
	bits     int
	cmBits   int

	// Expansion scratch (one goroutine per core; clone() for helpers).
	q         S
	pend      [tm.MaxThreads]pending
	cmw       uint64
	c         core.Command
	t         core.Thread
	conflict  bool
	nextKey   [pack.MaxWords]uint64
	wtr       pack.Writer
	rdr       pack.Reader
	yield     func(next []uint64, e Edge)
	stepYield func(x tm.XCmd, r tm.Resp, next S)
}

func newPackedCore[S comparable](alg tm.Packed[S], pcm tm.PackedCM) packedIface {
	if alg.PackedFor() != alg.Name() {
		return nil
	}
	n := alg.Threads()
	cmBits := 0
	if pcm != nil {
		cmBits = pcm.CMBits()
	}
	bits := alg.StateBits() + n*pendBits + cmBits
	if bits > 64*pack.MaxWords {
		return nil
	}
	pc := &packedCore[S]{
		alg: alg, pcm: pcm,
		ab:       core.Alphabet{Threads: n, Vars: alg.Vars()},
		n:        n,
		kw:       pack.WordsFor(bits),
		bits:     bits,
		cmBits:   cmBits,
		commands: core.Alphabet{Threads: n, Vars: alg.Vars()}.Commands(),
	}
	pc.initStepYield()
	return pc
}

func (pc *packedCore[S]) initStepYield() {
	pc.stepYield = func(x tm.XCmd, r tm.Resp, next S) {
		cmNext, ok := pc.cmStep(x)
		if !ok {
			return
		}
		np := pc.pend
		emit := int16(-1)
		if r == tm.RespPending {
			np[pc.t] = pending{Active: true, C: pc.c}
		} else {
			np[pc.t] = pending{}
			if r == tm.Resp1 {
				emit = int16(pc.ab.Encode(core.St(pc.c, pc.t)))
			}
		}
		pc.encode(next, &np, cmNext)
		pc.yield(pc.nextKey[:pc.kw], Edge{Cmd: pc.c, T: pc.t, X: x, R: r, Emit: emit})
	}
}

func (pc *packedCore[S]) keyWords() int { return pc.kw }

func (pc *packedCore[S]) keyBits() int { return pc.bits }

func (pc *packedCore[S]) clone() packedIface {
	c := &packedCore[S]{
		alg: pc.alg, pcm: pc.pcm, ab: pc.ab, commands: pc.commands,
		n: pc.n, kw: pc.kw, bits: pc.bits, cmBits: pc.cmBits,
	}
	c.initStepYield()
	return c
}

// cmStep resolves the contention-manager product for extended command x
// from the current scratch state: exactly forEachStep's cmStep on
// packed manager words.
func (pc *packedCore[S]) cmStep(x tm.XCmd) (uint64, bool) {
	if pc.pcm == nil {
		return pc.cmw, true
	}
	p2, has := pc.pcm.StepCM(pc.cmw, x, pc.t)
	if pc.conflict && !has {
		return 0, false
	}
	if has {
		return p2, true
	}
	return pc.cmw, true
}

// encode packs (q, pend, cmw) into pc.nextKey. Layout: TM state bits,
// then n fixed-width pending fields, then the manager word.
func (pc *packedCore[S]) encode(q S, pend *[tm.MaxThreads]pending, cmw uint64) {
	for i := 0; i < pc.kw; i++ {
		pc.nextKey[i] = 0
	}
	pc.wtr.Reset(pc.nextKey[:pc.kw])
	pc.alg.EncodeState(q, &pc.wtr)
	for t := 0; t < pc.n; t++ {
		p := &pend[t]
		if p.Active {
			pc.wtr.Put(1|uint64(p.C.Op)<<1|uint64(p.C.V)<<3, pendBits)
		} else {
			pc.wtr.Put(0, pendBits)
		}
	}
	if pc.cmBits > 0 {
		pc.wtr.Put(cmw, uint(pc.cmBits))
	}
}

// decodeKey unpacks key into the expansion scratch.
func (pc *packedCore[S]) decodeKey(key []uint64) {
	pc.rdr.Reset(key)
	pc.q = pc.alg.DecodeState(&pc.rdr)
	for t := 0; t < pc.n; t++ {
		b := pc.rdr.Get(pendBits)
		if b&1 != 0 {
			pc.pend[t] = pending{Active: true, C: core.Command{Op: core.Op((b >> 1) & 3), V: core.Var(b >> 3)}}
		} else {
			pc.pend[t] = pending{}
		}
	}
	pc.cmw = 0
	if pc.cmBits > 0 {
		pc.cmw = pc.rdr.Get(uint(pc.cmBits))
	}
}

func (pc *packedCore[S]) writeInit(key []uint64) {
	pc.pend = [tm.MaxThreads]pending{}
	var cmw uint64
	if pc.pcm != nil {
		cmw = pc.pcm.InitialCM()
	}
	pc.encode(pc.alg.InitialP(), &pc.pend, cmw)
	copy(key, pc.nextKey[:pc.kw])
}

func (pc *packedCore[S]) expandKey(key []uint64, yield func(next []uint64, e Edge)) {
	pc.yield = yield
	pc.decodeKey(key)
	for t := core.Thread(0); int(t) < pc.n; t++ {
		if pc.pend[t].Active {
			pc.stepKey(pc.pend[t].C, t)
			continue
		}
		for _, c := range pc.commands {
			pc.stepKey(c, t)
		}
	}
}

// stepKey mirrors forEachStep for one (command, thread) pair: typed
// steps through the manager product, then the abort transition when the
// command is abort enabled (zero pre-filter steps) or in conflict.
func (pc *packedCore[S]) stepKey(c core.Command, t core.Thread) {
	pc.c, pc.t = c, t
	pc.conflict = pc.alg.ConflictP(pc.q, c, t)
	count := pc.alg.StepsP(pc.q, c, t, pc.stepYield)
	if count == 0 || pc.conflict {
		if cmNext, ok := pc.cmStep(tm.XCmd{Kind: tm.XAbort}); ok {
			np := pc.pend
			np[t] = pending{}
			emit := int16(pc.ab.Encode(core.St(core.Abort(), t)))
			pc.encode(pc.alg.AbortStepP(pc.q, t), &np, cmNext)
			pc.yield(pc.nextKey[:pc.kw], Edge{
				Cmd: c, T: t,
				X: tm.XCmd{Kind: tm.XAbort}, R: tm.Resp0, Emit: emit,
			})
		}
	}
}

// stateAt decodes a key into the boxed product state. It uses its own
// cursors so state-table reads never race the expansion scratch.
func (pc *packedCore[S]) stateAt(key []uint64) prodState {
	var rdr pack.Reader
	rdr.Reset(key)
	ps := prodState{TM: pc.alg.DecodeState(&rdr)}
	for t := 0; t < pc.n; t++ {
		b := rdr.Get(pendBits)
		if b&1 != 0 {
			ps.Pending[t] = pending{Active: true, C: core.Command{Op: core.Op((b >> 1) & 3), V: core.Var(b >> 3)}}
		}
	}
	if pc.pcm != nil {
		var cmw uint64
		if pc.cmBits > 0 {
			cmw = rdr.Get(uint(pc.cmBits))
		}
		ps.CM = pc.pcm.DecodeCM(cmw)
	}
	return ps
}

// arena allocates edge storage in chunks: place copies a scratch edge
// list into the current chunk (opening a fresh chunk when it would not
// fit) and returns a stable full-capacity slice, so per-state adjacency
// costs no per-state allocation and never moves — the Barrier
// contract's stability requirement. Chunks grow geometrically from
// chunkSize up to maxChunk, so tiny systems (a 3-state seq build, the
// liveness probes at (2,1)) don't pay a 100-KB-class fixed cost while
// large builds still amortize to a handful of chunks.
type arena[T any] struct {
	chunkSize int
	cur       []T
}

// maxChunk caps the arena chunk growth (edges per chunk).
const maxChunk = 8192

func (a *arena[T]) place(es []T) []T {
	if len(es) == 0 {
		return nil
	}
	if len(a.cur)+len(es) > cap(a.cur) {
		size := a.chunkSize
		if size < len(es) {
			size = len(es)
		}
		if next := a.chunkSize * 2; next <= maxChunk {
			a.chunkSize = next
		}
		a.cur = make([]T, 0, size)
	}
	start := len(a.cur)
	a.cur = append(a.cur, es...)
	return a.cur[start:len(a.cur):len(a.cur)]
}

// packedStates is the scan's state table: keys stay in the scan's
// intern table and decode to boxed product states on demand.
type packedStates struct {
	pc packedIface
	in *pack.Map
}

func (p *packedStates) Len() int { return p.in.Len() }

func (p *packedStates) At(i int32) prodState { return p.pc.stateAt(p.in.KeyAt(i)) }

// scanPacked is the sequential scan-order BFS over a core's keys: one
// open-addressing intern table, a reused per-state edge scratch, and
// the chunked edge arena. The guard is exact (checked per state, before
// the barrier at the same boundary). Under persistence hooks the scan seeds from the snapshot prefix (re-interning the keys
// in id order, so the numbering continues canonically), streams each
// level delta into the sink before consulting the guard at the same
// boundary (a tripped limit keeps the prefix it just persisted), and
// rebacks the intern table's key storage through the spill grower.
func scanPacked(pc packedIface, alg tm.Algorithm, cm tm.ContentionManager, g *guard.Guard, barrier Barrier, p *Persist) ([][]Edge, stateTable, int, error) {
	kw := pc.keyWords()
	in := pack.NewMap(kw, 0)
	if p != nil && p.Grow != nil {
		in.SetKeyBacking(p.Grow)
	}
	var keyBuf [pack.MaxWords]uint64
	pc.writeInit(keyBuf[:kw])

	var out [][]Edge
	store := &arena[Edge]{chunkSize: 64}
	resumed := 0
	startQi := int32(0)
	levelEnd := 1
	if p != nil && p.Resume != nil && p.Resume.Interned > 0 {
		r := p.Resume
		for i := 0; i < r.Interned; i++ {
			in.Intern(r.Keys[i*kw : (i+1)*kw])
		}
		if id, ok := in.Get(keyBuf[:kw]); !ok || id != 0 || in.Len() != r.Interned {
			return nil, nil, 0, fmt.Errorf("explore: snapshot prefix for %s does not match this system's initial state", systemLabel(alg, cm))
		}
		out = append(out, r.Out...)
		startQi = int32(r.Expanded)
		levelEnd = r.Interned
		resumed = r.Interned
	} else {
		in.Intern(keyBuf[:kw])
	}

	flush := newSinkFlusher(p)
	var scratch []Edge
	yield := func(next []uint64, e Edge) {
		id, _ := in.Intern(next)
		e.To = id
		scratch = append(scratch, e)
	}
	guarded := g.Active()
	emit := newLevelEmitter(systemLabel(alg, cm))
	track := barrier != nil || emit != nil || flush != nil
	var cur [pack.MaxWords]uint64
	for qi := startQi; int(qi) < in.Len(); qi++ {
		atBoundary := track && int(qi) == levelEnd
		if atBoundary {
			if err := flush.flush(in.KeyAt, out, in.Len(), levelEnd); err != nil {
				return nil, nil, resumed, err
			}
		}
		if guarded {
			if err := g.Check(in.Len()); err != nil {
				return nil, nil, resumed, err
			}
		}
		if atBoundary {
			if emit != nil {
				emit(in.Len(), levelEnd)
			}
			if barrier != nil {
				if err := barrier(out, in.Len(), levelEnd); err != nil {
					return nil, nil, resumed, err
				}
			}
			levelEnd = in.Len()
		}
		if chaos.Fire(chaos.SiteWorkerPanic) {
			// Isolated by guard.Capture on the scan spine into a
			// LIMIT(panic); the sink flushed the prefix at the last
			// barrier, so the injected crash loses at most one level.
			panic(fmt.Errorf("%w: worker panic expanding state %d", chaos.ErrInjected, qi))
		}
		// KeyAt aliases the table; interning successors may grow it, so
		// expand from a copy.
		copy(cur[:kw], in.KeyAt(qi))
		scratch = scratch[:0]
		pc.expandKey(cur[:kw], yield)
		out = append(out, store.place(scratch))
	}
	if err := flush.flush(in.KeyAt, out, in.Len(), in.Len()); err != nil {
		return nil, nil, resumed, err
	}
	if emit != nil {
		emit(in.Len(), in.Len())
	}
	if barrier != nil {
		if err := barrier(out, in.Len(), in.Len()); err != nil {
			return nil, nil, resumed, err
		}
	}
	return out, &packedStates{pc: pc, in: in}, resumed, nil
}
