package parbfs

import (
	"math/bits"
	"slices"
	"sync"

	"tmcheck/internal/pack"
)

// The packed engine: the same level-synchronized BFS as RunControlled,
// but over fixed-width bit-packed state keys interned into sharded
// open-addressing tables (pack.Map) instead of Go maps over comparable
// state values. The determinism argument is identical — new states are
// ordered at each level barrier by their minimal (frontier position,
// emission ordinal) discovery key, which is unique per state — so the
// numbering is bit-identical to a sequential scan-order BFS for every
// worker count. Shard assignment uses the seedless pack.Hash, so it is
// deterministic too, though nothing downstream depends on it.

// pcand is a candidate discovered during the current level: its minimal
// discovery key and, after the barrier, its assigned id. The candidate's
// key lives in the shard's cands table at the same dense index.
type pcand struct {
	fi, di int32
	id     int32
}

// pshard is one partition of the packed intern table. known is read
// without locking during level expansion (it is only written at level
// barriers, with the worker pool joined); cands and candList are locked.
type pshard struct {
	mu       sync.Mutex
	known    *pack.Map
	cands    *pack.Map
	candList []pcand
}

// candidate records a discovery of the key with discovery key (fi, di),
// keeping the minimum, and returns the candidate's ref: ^(sh<<32 | idx).
func (sh *pshard) candidate(shIdx int64, key []uint64, fi, di int32) int64 {
	sh.mu.Lock()
	idx, fresh := sh.cands.Intern(key)
	if fresh {
		sh.candList = append(sh.candList, pcand{fi: fi, di: di, id: -1})
	} else {
		c := &sh.candList[idx]
		if fi < c.fi || (fi == c.fi && di < c.di) {
			c.fi, c.di = fi, di
		}
	}
	sh.mu.Unlock()
	return ^(shIdx<<32 | int64(idx))
}

// pworker is one worker's expansion context. The emit closure is built
// once per worker (capturing only the context), so the hot loop creates
// no closures and the per-state ref buffers are reused across levels
// through outs.
type pworker struct {
	eng  *pengine
	fi   int32
	di   int32
	refs []int64
	emit func(key []uint64)
}

type pengine struct {
	shards []pshard
	shift  uint
}

func (e *pengine) shardOf(key []uint64) int64 {
	return int64(pack.Hash(key) >> e.shift)
}

func newPworker(eng *pengine) *pworker {
	pw := &pworker{eng: eng}
	pw.emit = func(key []uint64) {
		sh := pw.eng.shardOf(key)
		s := &pw.eng.shards[sh]
		if kid, ok := s.known.Get(key); ok {
			pw.refs = append(pw.refs, int64(kid))
		} else {
			pw.refs = append(pw.refs, s.candidate(sh, key, pw.fi, pw.di))
		}
		pw.di++
	}
	return pw
}

// gathered is one fresh candidate at a level barrier, flattened for the
// canonical (fi, di) sort.
type gathered struct {
	fi, di  int32
	sh, idx int32
}

// PackedSeed resumes the engine from an already-interned canonical
// prefix: Keys holds the packed keys of states 0..N-1 flat at stride
// kw, and ids [Frontier, N) form the BFS level the run continues from
// (Frontier == N resumes a completed scan: the engine returns without
// expanding anything). The seeded states enter the visited tables but
// place is not called for them — the caller already holds their keys.
type PackedSeed struct {
	Keys     []uint64
	Frontier int
}

// PackedOpts are the optional knobs of RunPackedOpts. KeyBacking, when
// set, supplies a per-shard allocator for the visited tables' flat key
// storage (the disk-spill path); each shard index is requested once.
type PackedOpts struct {
	Seed       *PackedSeed
	KeyBacking func(shard int) pack.GrowFunc
}

// RunPackedControlled is RunControlled over bit-packed state keys of kw
// words. The hooks mirror RunControlled's, with two differences: they
// receive the executing worker's index (so callers keep per-worker
// scratch without locking), and states are identified by their packed
// key. place(id, key) is called once per state in id order — the key
// aliases engine storage and must be copied; expand(w, id, emit) must
// enumerate the successors of state id (whose key the caller stored at
// place time), calling emit once per edge with a key buffer the engine
// copies before returning; finish(w, id, succ) delivers successor ids
// aligned with the emit calls, in a buffer valid only during the call.
func RunPackedControlled(
	kw int,
	init []uint64,
	workers int,
	control func(states int) error,
	expand func(w, id int, emit func(key []uint64)),
	place func(id int, key []uint64),
	finish func(w, id int, succ []int32),
) (Stats, error) {
	return RunPackedOpts(kw, init, workers, PackedOpts{}, control, expand, place, finish)
}

// RunPackedOpts is RunPackedControlled with seeding and spill options.
// A seeded run continues the level-synchronized BFS from the given
// prefix; because new states are still ordered by their minimal
// discovery key at every barrier, the numbering it assigns from
// Frontier onward is bit-identical to an uninterrupted run at any
// worker count.
func RunPackedOpts(
	kw int,
	init []uint64,
	workers int,
	opts PackedOpts,
	control func(states int) error,
	expand func(w, id int, emit func(key []uint64)),
	place func(id int, key []uint64),
	finish func(w, id int, succ []int32),
) (Stats, error) {
	if workers < 1 {
		workers = 1
	}
	nshards := shardCount(workers)
	eng := &pengine{shards: make([]pshard, nshards), shift: uint(64 - bits.TrailingZeros(uint(nshards)))}
	for i := range eng.shards {
		eng.shards[i].known = pack.NewMap(kw, 0)
		eng.shards[i].cands = pack.NewMap(kw, 0)
		if opts.KeyBacking != nil {
			eng.shards[i].known.SetKeyBacking(opts.KeyBacking(i))
		}
	}
	pws := make([]*pworker, workers)
	succScratch := make([][]int32, workers)
	for w := range pws {
		pws[w] = newPworker(eng)
	}

	st := Stats{Shards: nshards}
	var panics panicBox
	var level []int32
	var nextID int32
	if seed := opts.Seed; seed != nil {
		n := len(seed.Keys) / kw
		for id := 0; id < n; id++ {
			key := seed.Keys[id*kw : (id+1)*kw]
			eng.shards[eng.shardOf(key)].known.Put(key, int32(id))
		}
		for id := seed.Frontier; id < n; id++ {
			level = append(level, int32(id))
		}
		nextID = int32(n)
	} else {
		place(0, init)
		eng.shards[eng.shardOf(init)].known.Put(init, 0)
		level = []int32{0}
		nextID = 1
	}
	startID := nextID
	var nextLevel []int32
	var emissions int64
	var outs [][]int64
	var fresh []gathered

	for len(level) > 0 {
		st.Levels++
		st.LevelSizes = append(st.LevelSizes, len(level))
		for len(outs) < len(level) {
			outs = append(outs, nil)
		}
		outs = outs[:len(level)]

		ForWorker(len(level), workers, panics.protect(func(w, fi int) {
			pw := pws[w]
			pw.fi, pw.di, pw.refs = int32(fi), 0, outs[fi][:0]
			expand(w, int(level[fi]), pw.emit)
			outs[fi] = pw.refs
		}))
		if err := panics.limit(); err != nil {
			finalizePacked(eng, &st, emissions, nextID-startID)
			return st, err
		}

		// Barrier: order this level's discoveries by their minimal
		// discovery key and assign the canonical ids.
		fresh = fresh[:0]
		for si := range eng.shards {
			for i := range eng.shards[si].candList {
				c := &eng.shards[si].candList[i]
				fresh = append(fresh, gathered{fi: c.fi, di: c.di, sh: int32(si), idx: int32(i)})
			}
		}
		slices.SortFunc(fresh, func(a, b gathered) int {
			if a.fi != b.fi {
				return int(a.fi) - int(b.fi)
			}
			return int(a.di) - int(b.di)
		})
		nextLevel = nextLevel[:0]
		for _, g := range fresh {
			eng.shards[g.sh].candList[g.idx].id = nextID
			place(int(nextID), eng.shards[g.sh].cands.KeyAt(g.idx))
			nextLevel = append(nextLevel, nextID)
			nextID++
		}

		ForWorker(len(level), workers, panics.protect(func(w, fi int) {
			refs := outs[fi]
			succ := succScratch[w]
			if cap(succ) < len(refs) {
				succ = make([]int32, len(refs))
			}
			succ = succ[:len(refs)]
			for j, r := range refs {
				if r >= 0 {
					succ[j] = int32(r)
				} else {
					r = ^r
					succ[j] = eng.shards[r>>32].candList[int32(r)].id
				}
			}
			succScratch[w] = succ
			finish(w, int(level[fi]), succ)
		}))
		if err := panics.limit(); err != nil {
			finalizePacked(eng, &st, emissions, nextID-startID)
			return st, err
		}
		for _, refs := range outs {
			emissions += int64(len(refs))
		}

		// Promote candidates into the known tables (the finish pass above
		// still resolved ids through candList, so this must come after).
		for si := range eng.shards {
			s := &eng.shards[si]
			for i := range s.candList {
				s.known.Put(s.cands.KeyAt(int32(i)), s.candList[i].id)
			}
			s.candList = s.candList[:0]
			s.cands.Reset()
		}
		level, nextLevel = nextLevel, level

		if control != nil {
			if err := control(int(nextID)); err != nil {
				finalizePacked(eng, &st, emissions, nextID-startID)
				return st, err
			}
		}
	}

	finalizePacked(eng, &st, emissions, nextID-startID)
	return st, nil
}

// finalizePacked fills in the run-wide intern-table statistics.
// discovered counts the states this run itself assigned ids to (a
// seeded resume excludes the snapshot prefix, whose emissions it never
// saw), so DupHits stays the rediscovery count of the emissions made.
func finalizePacked(eng *pengine, st *Stats, emissions int64, discovered int32) {
	for i := range eng.shards {
		if l := eng.shards[i].known.Len(); l > st.MaxShardLoad {
			st.MaxShardLoad = l
		}
	}
	st.DupHits = emissions - int64(discovered)
}
