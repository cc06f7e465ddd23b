package safety

import (
	"context"
	"errors"
	"slices"
	"strconv"
	"time"

	"tmcheck/internal/automata"
	"tmcheck/internal/core"
	"tmcheck/internal/explore"
	"tmcheck/internal/guard"
	"tmcheck/internal/obs"
	"tmcheck/internal/pack"
	"tmcheck/internal/parbfs"
	"tmcheck/internal/spec"
	"tmcheck/internal/tm"
)

// Engine selects how an inclusion check is executed. The type lives in
// internal/explore (it is shared with the liveness checker); the aliases
// here keep the original safety API intact. For safety the engines are:
//
//   - EngineMaterialized: explore the full TM system, enumerate the
//     full specification DFA, then run the product inclusion check. Its
//     peak memory is the sum of both full automata even when a
//     counterexample is shallow.
//   - EngineOnTheFly: interleave TM exploration with specification
//     stepping — the product BFS constructs TM and spec states only as
//     the product reaches them and stops at the first violation. It is
//     the default engine of cmd/tmcheck.
type Engine = explore.Engine

const (
	EngineMaterialized = explore.EngineMaterialized
	EngineOnTheFly     = explore.EngineOnTheFly
)

// Options configures VerifyOpts and Table2.
type Options struct {
	// Workers is the worker count; <= 0 means GOMAXPROCS. Above one,
	// the on-the-fly search expands TM states ahead of its product loop
	// on Workers-1 helper goroutines, and Table2's on-the-fly rows fan
	// out over a pool of Workers goroutines. The materialized engine
	// runs its one sequential loop at every count. Every Result field
	// but the elapsed times is the same at every count.
	Workers int
	// MaxStates bounds the total states constructed (see VerifyOpts);
	// <= 0 means unbounded.
	MaxStates int
	// MaxMem is the heap cap in bytes; 0 means uncapped.
	MaxMem uint64
	// Engine selects the pipeline; the zero value is EngineMaterialized.
	Engine Engine
	// Ctx carries the check's deadline and cancellation; nil means no
	// deadline. The engines consult it at the same points where they
	// check the state budget.
	Ctx context.Context
	// NoPhases suppresses the obs phase spans (the phase stack assumes a
	// single-threaded spine); counters and bus events still record.
	// Front-ends running checks concurrently (tmcheckd) set it.
	NoPhases bool
	// Persist supplies checkpoint/resume and disk-spill wiring for the
	// TM exploration (see explore.PersistProvider); nil runs plain.
	// Only the materialized engine interns the canonical prefix a
	// snapshot records, so setting this with EngineOnTheFly is an error.
	Persist explore.PersistProvider
}

// guard builds one check's guard from the options.
func (opts Options) guard() *guard.Guard {
	return guard.New(opts.Ctx, opts.MaxStates, opts.MaxMem)
}

// VerifyOpts checks L(alg×cm) ⊆ L(Σd prop) with the selected engine.
//
// A positive state budget (Options.MaxStates) bounds the total number
// of states constructed — TM
// states + spec states + product pairs for the on-the-fly engine; TM
// states, then the full spec DFA, then inclusion pairs cumulatively for
// the materialized one — and the check stops with a *guard.LimitError
// instead of exhausting memory. Both engines check the budget per
// state or product pair and trip it at the same state count at every
// worker count.
//
// Both engines return identical verdicts and identical counterexample
// words (the on-the-fly search orders each state's edges ε-first then
// by letter, matching the product order of the materialized inclusion
// check — TestEngineAgreement asserts this across the registry).
func VerifyOpts(alg tm.Algorithm, cm tm.ContentionManager, prop spec.Property, opts Options) (Result, error) {
	g := opts.guard()
	if opts.Engine == EngineOnTheFly {
		if opts.Persist != nil {
			return Result{}, errors.New("safety: checkpoint/resume requires the materialized engine (the on-the-fly product does not intern a resumable prefix)")
		}
		return checkOnTheFly(alg, cm, prop, parbfs.ResolveWorkers(opts.Workers), g, !opts.NoPhases)
	}
	return verifyMaterialized(alg, cm, prop, g, !opts.NoPhases, opts.Persist)
}

// checkEvents brackets one inclusion check on the telemetry bus:
// EvCheckStart now, then EvCheckDone (verdict in Detail, product pairs
// in States) — plus an EvViolation when a counterexample was found —
// when the returned func is called with the outcome. With the bus
// disabled it is a no-op closure.
func checkEvents(name string) func(res Result, err error) {
	if !obs.EventsEnabled() {
		return func(Result, error) {}
	}
	obs.Emit(obs.Event{Kind: obs.EvCheckStart, Name: name})
	start := time.Now()
	return func(res Result, err error) {
		e := obs.Event{Kind: obs.EvCheckDone, Name: name, DurNS: time.Since(start).Nanoseconds()}
		switch {
		case err != nil:
			e.Detail = "ERROR: " + err.Error()
		case res.Holds:
			e.Detail = "SAFE"
			e.States = int64(res.Inclusion.PairsVisited)
		default:
			e.Detail = "UNSAFE"
			e.States = int64(res.Inclusion.PairsVisited)
			obs.Emit(obs.Event{Kind: obs.EvViolation, Name: name,
				Detail: "counterexample of length " + strconv.Itoa(res.Inclusion.CexLen)})
		}
		obs.Emit(e)
	}
}

// verifyMaterialized is the classic pipeline with the guard threaded
// through its three stages; the state budget of each stage is charged
// against what the previous stages already constructed (the context
// and heap watchdog are shared across all three unchanged).
// phase=false suppresses the obs span for callers off the
// single-threaded spine.
func verifyMaterialized(alg tm.Algorithm, cm tm.ContentionManager, prop spec.Property, g *guard.Guard, phase bool, prov explore.PersistProvider) (res Result, err error) {
	fin := checkEvents("dfa:" + systemName(alg, cm) + ":" + prop.Key())
	defer func() { fin(res, err) }()
	maxStates := g.MaxStates()
	buildStart := time.Now()
	ts, err := explore.BuildGuarded(alg, cm, g, prov)
	if err != nil {
		return Result{}, err
	}
	buildElapsed := time.Since(buildStart)

	remaining := 0
	if maxStates > 0 {
		if remaining = maxStates - ts.NumStates(); remaining < 1 {
			return Result{}, &guard.LimitError{Budget: maxStates, Visited: ts.NumStates() + 1}
		}
	}
	det := spec.NewDet(prop, alg.Threads(), alg.Vars())
	specStart := time.Now()
	dfa, err := det.EnumerateGuarded(g.WithStates(remaining))
	if err != nil {
		return Result{}, chargeStates(err, maxStates, ts.NumStates())
	}
	specElapsed := time.Since(specStart)

	if maxStates > 0 {
		if remaining = maxStates - ts.NumStates() - dfa.NumStates(); remaining < 1 {
			return Result{}, &guard.LimitError{Budget: maxStates, Visited: ts.NumStates() + dfa.NumStates() + 1}
		}
	}
	done := func() {}
	if phase {
		done = obs.Phase("inclusion:" + ts.Name() + ":" + prop.Key())
	}
	nfa := ts.DenseNFA()
	start := time.Now()
	ok, cexLetters, st, err := automata.IncludedInDFADenseGuarded(nfa, dfa, g.WithStates(remaining))
	elapsed := time.Since(start)
	done()
	if err != nil {
		return Result{}, chargeStates(err, maxStates, ts.NumStates()+dfa.NumStates())
	}
	res = Result{
		System:           ts.Name(),
		Prop:             prop,
		Threads:          ts.Alg.Threads(),
		Vars:             ts.Alg.Vars(),
		TMStates:         ts.NumStates(),
		SpecStates:       dfa.NumStates(),
		Holds:            ok,
		Elapsed:          elapsed,
		BuildTMElapsed:   buildElapsed,
		BuildSpecElapsed: specElapsed,
		Inclusion:        st,
		Engine:           EngineMaterialized,
		Resumed:          ts.Resumed,
	}
	if !ok {
		res.Counterexample = ts.Alphabet.DecodeWord(cexLetters)
	}
	res.record("dfa")
	return res, nil
}

// chargeStates re-bases a staged state-budget error onto the whole
// pipeline's budget, adding the states the earlier stages already
// constructed; every other limit kind passes through untouched.
func chargeStates(err error, maxStates, already int) error {
	var le *guard.LimitError
	if errors.As(err, &le) && le.Kind == guard.KindStates {
		return &guard.LimitError{Kind: guard.KindStates, Budget: maxStates, Visited: already + le.Visited}
	}
	return err
}

// checkOnTheFly runs the on-the-fly product search: a BFS over pairs of
// a lazily expanded TM state and a lazily stepped spec state, stopping at
// the first undefined spec transition (the inclusion counterexample) or
// the fixpoint. phase=false suppresses the obs span for callers off the
// single-threaded spine.
func checkOnTheFly(alg tm.Algorithm, cm tm.ContentionManager, prop spec.Property, workers int, g *guard.Guard, phase bool) (Result, error) {
	name := "otf:" + systemName(alg, cm) + ":" + prop.Key()
	fin := checkEvents(name)
	var res Result
	start := time.Now()
	err := guard.Capture(func() error {
		if phase {
			defer obs.Phase(name)()
		}
		var ierr error
		res, ierr = searchProduct(alg, cm, prop, workers, g, name)
		return ierr
	})
	if err != nil {
		fin(Result{}, err)
		return Result{}, err
	}
	// Exploration and checking are interleaved, so the whole search is
	// charged to Elapsed and the build fields stay zero.
	res.Elapsed = time.Since(start)
	res.recordOTF()
	fin(res, nil)
	return res, nil
}

// otfChunk is the on-the-fly search's unit of the pair queue: one
// EvProgress heartbeat on the telemetry bus per chunk, and above one
// worker the TM expansion prefetched one chunk ahead of the loop.
const otfChunk = 4096

// product is the state of one on-the-fly search. A pair is the one-word
// key tm<<32 | spec, and its id is its first-sight index in pairs, so
// pairs.KeyAt is the pair table. parent and letter hold the BFS tree
// (letter -1 for the root and ε-steps).
//
// first is the first-partner column: first[tm] is one more than the
// spec id of the first pair seen with TM state tm (0: none yet). That
// pair is stored in pairs by Append, outside its hash index, so a push
// whose spec id matches the column, or whose TM state has no pair yet,
// is answered without hashing; only a TM state's later partners are
// interned in the hash index. Most TM states of a product pair with one
// spec state.
type product struct {
	tms    *explore.Lazy
	lz     *spec.Lazy
	pairs  *pack.Map
	first  []int32
	parent []int32
	letter []int16
	key    [1]uint64
	ids    []int32 // prefetch scratch
}

func (p *product) push(tm, sp, from int32, l int16) {
	if int(tm) >= len(p.first) {
		p.first = append(p.first, make([]int32, p.tms.NumStates()-len(p.first))...)
	}
	p.key[0] = uint64(tm)<<32 | uint64(uint32(sp))
	switch p.first[tm] {
	case sp + 1:
		return
	case 0:
		p.first[tm] = sp + 1
		p.pairs.Append(p.key[:])
	default:
		if _, fresh := p.pairs.Intern(p.key[:]); !fresh {
			return
		}
	}
	p.parent = append(p.parent, from)
	p.letter = append(p.letter, l)
}

func (p *product) at(id int32) (tm, sp int32) {
	k := p.pairs.KeyAt(id)[0]
	return int32(k >> 32), int32(uint32(k))
}

// word is the counterexample ending in letter last at pair id: the
// letters along the BFS tree from the root, then last.
func (p *product) word(id int32, last int16) []int {
	rev := []int{int(last)}
	for ; id > 0; id = p.parent[id] {
		if p.letter[id] >= 0 {
			rev = append(rev, int(p.letter[id]))
		}
	}
	slices.Reverse(rev)
	return rev
}

// prefetch hands the TM states of the chunk of pairs starting at lo —
// as far as the queue holds it yet — to the TM side's prefetch helpers.
func (p *product) prefetch(lo int32, workers int) {
	p.ids = p.ids[:0]
	hi := min(lo+otfChunk, int32(p.pairs.Len()))
	for id := lo; id < hi; id++ {
		tm, _ := p.at(id)
		p.ids = append(p.ids, tm)
	}
	p.tms.Prefetch(p.ids, workers)
}

// searchProduct is the product BFS, one loop for every worker count.
// Pairs are processed in id order and numbered on first sight, with each
// TM state's edges ε-first and then by letter. The guard is consulted per
// pair, the frontier peak is the largest queue backlog, and the search
// returns at the first violation; with the telemetry bus on, each BFS
// level's end publishes an EvLevelDone.
//
// Above one worker, while the loop runs one chunk of the queue, helper
// goroutines expand the TM states of the next (explore.Lazy.Prefetch).
// Their successors are interned only when the loop asks for them, in
// the order an inline expansion would intern them, so ids, sizes, the
// frontier peak and the point where a budget trips are the same at
// every worker count.
func searchProduct(alg tm.Algorithm, cm tm.ContentionManager, prop spec.Property, workers int, g *guard.Guard, name string) (Result, error) {
	p := &product{
		tms:   explore.NewLazy(alg, cm),
		lz:    spec.NewLazy(spec.NewDet(prop, alg.Threads(), alg.Vars())),
		pairs: pack.NewMap(1, 0),
	}
	defer p.tms.Wait()
	p.push(0, 0, -1, -1)
	guarded, events := g.Active(), obs.EventsEnabled()
	states := func() int { return p.pairs.Len() + p.tms.NumStates() + p.lz.NumStates() }
	result := func(holds bool, cexLetters []int, peak int) (Result, error) {
		res := Result{
			System:       systemName(alg, cm),
			Prop:         prop,
			Threads:      alg.Threads(),
			Vars:         alg.Vars(),
			TMStates:     p.tms.NumStates(),
			SpecStates:   p.lz.NumStates(),
			Holds:        holds,
			Engine:       EngineOnTheFly,
			FrontierPeak: peak,
			Inclusion:    automata.InclusionStats{PairsVisited: p.pairs.Len(), CexLen: len(cexLetters)},
		}
		if !holds {
			res.Counterexample = core.Alphabet{Threads: alg.Threads(), Vars: alg.Vars()}.DecodeWord(cexLetters)
		}
		return res, nil
	}
	level, levelEnd, last := int32(0), int32(1), time.Now()
	levelDone := func(expanded int32) {
		now := time.Now()
		obs.Emit(obs.Event{
			Kind: obs.EvLevelDone, Name: name, Level: level,
			States: int64(p.pairs.Len()), Frontier: int64(p.pairs.Len() - int(expanded)),
			HeapBytes: obs.SampledHeap(), DurNS: now.Sub(last).Nanoseconds(),
		})
		last, level = now, level+1
	}

	peak := 1
	for qi := int32(0); int(qi) < p.pairs.Len(); qi++ {
		if events && qi == levelEnd {
			levelDone(qi)
			levelEnd = int32(p.pairs.Len())
		}
		if guarded {
			if err := g.Check(states()); err != nil {
				return Result{}, err
			}
		}
		peak = max(peak, p.pairs.Len()-int(qi))
		if qi%otfChunk == 0 {
			if events && qi > 0 {
				obs.Emit(obs.Event{
					Kind: obs.EvProgress, Name: name,
					States: int64(p.pairs.Len()), Frontier: int64(p.pairs.Len() - int(qi)),
					HeapBytes: obs.SampledHeap(),
				})
			}
			if workers > 1 {
				p.prefetch(qi+otfChunk, workers)
			}
		}
		tm, sp := p.at(qi)
		for _, e := range p.tms.Edges(tm) {
			if e.Emit < 0 {
				p.push(e.To, sp, qi, -1)
				continue
			}
			d2 := p.lz.Step(sp, int(e.Emit))
			if d2 == spec.None {
				return result(false, p.word(qi, e.Emit), peak)
			}
			p.push(e.To, d2, qi, e.Emit)
		}
	}
	if events {
		levelDone(int32(p.pairs.Len()))
	}
	return result(true, nil, peak)
}

// systemName names the system without constructing anything.
func systemName(alg tm.Algorithm, cm tm.ContentionManager) string {
	if cm == nil {
		return alg.Name()
	}
	return alg.Name() + "+" + cm.Name()
}

// recordOTF writes the on-the-fly vitals into the obs registry, keyed
// "safety.<system>.<prop>.otf.*": product pairs visited, TM and spec
// states actually constructed (compare spec_states against a full
// "spec.det.*.states" to see the laziness win), peak frontier, and the
// early-exit depth when a counterexample stopped the search.
func (r Result) recordOTF() {
	if !obs.Enabled() {
		return
	}
	key := "safety." + r.System + "." + r.Prop.Key() + ".otf"
	obs.Inc(key+".checks", 1)
	obs.Inc(key+".product_pairs", int64(r.Inclusion.PairsVisited))
	obs.SetGauge(key+".tm_states", int64(r.TMStates))
	obs.SetGauge(key+".spec_states", int64(r.SpecStates))
	obs.MaxGauge(key+".frontier_peak", int64(r.FrontierPeak))
	if !r.Holds {
		obs.SetGauge(key+".early_exit_depth", int64(r.Inclusion.CexLen))
	}
	obs.AddTime(key+".search", r.Elapsed)
}
