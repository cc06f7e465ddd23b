package safety

import (
	"context"
	"errors"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"tmcheck/internal/automata"
	"tmcheck/internal/explore"
	"tmcheck/internal/guard"
	"tmcheck/internal/obs"
	"tmcheck/internal/parbfs"
	"tmcheck/internal/space"
	"tmcheck/internal/spec"
	"tmcheck/internal/tm"
)

// Engine selects how an inclusion check is executed. The type lives in
// internal/space (it is shared with the liveness checker); the aliases
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
type Engine = space.Engine

const (
	EngineMaterialized = space.EngineMaterialized
	EngineOnTheFly     = space.EngineOnTheFly
)

// Options configures VerifyOpts and Table2.
type Options struct {
	// Workers is the worker count; <= 0 means GOMAXPROCS. One worker
	// runs the plain sequential engines.
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
// the materialized one — and the check stops with a *space.BudgetError
// instead of exhausting memory. The sequential engines trip the budget
// exactly; parallel ones check at BFS level barriers and may overshoot
// by one level.
//
// Both engines return identical verdicts and identical counterexample
// words (the on-the-fly search orders each state's edges ε-first then
// by letter, matching the product order of the materialized inclusion
// check — TestEngineAgreement asserts this across the registry).
func VerifyOpts(alg tm.Algorithm, cm tm.ContentionManager, prop spec.Property, opts Options) (Result, error) {
	workers := parbfs.ResolveWorkers(opts.Workers)
	g := opts.guard()
	if opts.Engine == EngineOnTheFly {
		if opts.Persist != nil {
			return Result{}, errors.New("safety: checkpoint/resume requires the materialized engine (the on-the-fly product does not intern a resumable prefix)")
		}
		return checkOnTheFly(alg, cm, prop, workers, g, !opts.NoPhases)
	}
	return verifyMaterialized(alg, cm, prop, workers, g, !opts.NoPhases, opts.Persist)
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
func verifyMaterialized(alg tm.Algorithm, cm tm.ContentionManager, prop spec.Property, workers int, g *guard.Guard, phase bool, prov explore.PersistProvider) (res Result, err error) {
	fin := checkEvents("dfa:" + systemName(alg, cm) + ":" + prop.Key())
	defer func() { fin(res, err) }()
	maxStates := g.MaxStates()
	buildStart := time.Now()
	ts, err := explore.BuildGuarded(alg, cm, workers, g, prov)
	if err != nil {
		return Result{}, err
	}
	buildElapsed := time.Since(buildStart)

	remaining := 0
	if maxStates > 0 {
		if remaining = maxStates - ts.NumStates(); remaining < 1 {
			return Result{}, &space.BudgetError{Budget: maxStates, Visited: ts.NumStates() + 1}
		}
	}
	det := spec.NewDet(prop, alg.Threads(), alg.Vars())
	specStart := time.Now()
	dfa, err := det.EnumerateGuarded(workers, g.WithStates(remaining))
	if err != nil {
		return Result{}, chargeStates(err, maxStates, ts.NumStates())
	}
	specElapsed := time.Since(specStart)

	if maxStates > 0 {
		if remaining = maxStates - ts.NumStates() - dfa.NumStates(); remaining < 1 {
			return Result{}, &space.BudgetError{Budget: maxStates, Visited: ts.NumStates() + dfa.NumStates() + 1}
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

// pairState is a state of the synchronized product: an interned TM
// state and an interned spec state.
type pairState struct {
	tm, spec space.State
}

// errViolationFound stops the parallel product search at the level
// barrier once a violation has been recorded.
var errViolationFound = errors.New("safety: violation found")

// checkOnTheFly runs the on-the-fly product search: a BFS over
// pairState that expands the TM space and steps the lazy specification
// in lockstep, stopping at the first undefined spec transition (the
// inclusion counterexample) or the fixpoint. phase=false suppresses the
// obs span for callers off the single-threaded spine.
func checkOnTheFly(alg tm.Algorithm, cm tm.ContentionManager, prop spec.Property, workers int, g *guard.Guard, phase bool) (Result, error) {
	det := spec.NewDet(prop, alg.Threads(), alg.Vars())
	fin := checkEvents("otf:" + systemName(alg, cm) + ":" + prop.Key())
	var res Result
	start := time.Now()
	err := guard.Capture(func() error {
		var ierr error
		if workers <= 1 {
			res, ierr = otfSeq(alg, cm, det, prop, g, phase)
		} else {
			res, ierr = otfPar(alg, cm, det, prop, workers, g, phase)
		}
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

// sortEdgesByEmit stable-sorts a state's edges ε-first, then by letter.
// This is exactly the successor order of the materialized inclusion
// check (which walks ε-successors first and then the letters in
// ascending order, each in edge-insertion order), so the product BFS —
// and hence the counterexample word — is bit-identical across engines.
func sortEdgesByEmit(buf []explore.Edge) {
	sort.SliceStable(buf, func(i, j int) bool { return buf[i].Emit < buf[j].Emit })
}

// expandSorted collects the sorted edges of one TM state into a fresh
// slice.
func expandSorted(tmsp *explore.Space, s space.State) []explore.Edge {
	buf := make([]explore.Edge, 0, 8)
	tmsp.SuccEdges(s, func(e explore.Edge) { buf = append(buf, e) })
	sortEdgesByEmit(buf)
	return buf
}

// otfProgressEvery is the heartbeat granularity of the sequential
// on-the-fly search on the telemetry bus: one EvProgress per this many
// expanded product pairs.
const otfProgressEvery = 4096

// otfSeq is the sequential on-the-fly search.
func otfSeq(alg tm.Algorithm, cm tm.ContentionManager, det *spec.Det, prop spec.Property, g *guard.Guard, phase bool) (Result, error) {
	name := "otf:" + systemName(alg, cm) + ":" + prop.Key()
	if phase {
		done := obs.Phase(name)
		defer done()
	}
	events := obs.EventsEnabled()
	tmsp := explore.NewSpace(alg, cm)
	lz := spec.NewLazy(det)

	type node struct {
		p      pairState
		parent int32
		letter int16 // letter that discovered this pair; -1 for root and ε
	}
	nodes := []node{{p: pairState{}, parent: -1, letter: -1}}
	index := map[pairState]int32{{}: 0}
	push := func(p pairState, parent int32, letter int16) {
		if _, ok := index[p]; ok {
			return
		}
		index[p] = int32(len(nodes))
		nodes = append(nodes, node{p: p, parent: parent, letter: letter})
	}
	buildWord := func(idx int32, last int16) []int {
		rev := []int{int(last)}
		for idx > 0 {
			if nodes[idx].letter >= 0 {
				rev = append(rev, int(nodes[idx].letter))
			}
			idx = nodes[idx].parent
		}
		for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
			rev[i], rev[j] = rev[j], rev[i]
		}
		return rev
	}

	// Sorted edges are cached per TM state: distinct product pairs
	// sharing a TM state re-use its expansion instead of re-running the
	// TM semantics.
	var edgeCache [][]explore.Edge
	edgesOf := func(s space.State) []explore.Edge {
		for int(s) >= len(edgeCache) {
			edgeCache = append(edgeCache, nil)
		}
		if edgeCache[s] == nil {
			edgeCache[s] = expandSorted(tmsp, s)
		}
		return edgeCache[s]
	}

	frontierPeak := 1
	result := func(holds bool, cexLetters []int) Result {
		res := Result{
			System:       tmsp.Name(),
			Prop:         prop,
			Threads:      alg.Threads(),
			Vars:         alg.Vars(),
			TMStates:     tmsp.NumStates(),
			SpecStates:   lz.NumStates(),
			Holds:        holds,
			Engine:       EngineOnTheFly,
			FrontierPeak: frontierPeak,
			Inclusion:    automata.InclusionStats{PairsVisited: len(nodes), CexLen: len(cexLetters)},
		}
		if !holds {
			res.Counterexample = tmsp.Alphabet.DecodeWord(cexLetters)
		}
		return res
	}

	guarded := g.Active()
	for qi := int32(0); int(qi) < len(nodes); qi++ {
		if guarded {
			if err := g.Check(len(nodes) + tmsp.NumStates() + lz.NumStates()); err != nil {
				return Result{}, err
			}
		}
		if f := len(nodes) - int(qi); f > frontierPeak {
			frontierPeak = f
		}
		if events && qi > 0 && qi%otfProgressEvery == 0 {
			obs.Emit(obs.Event{
				Kind: obs.EvProgress, Name: name,
				States: int64(len(nodes)), Frontier: int64(len(nodes) - int(qi)),
				HeapBytes: obs.SampledHeap(),
			})
		}
		p := nodes[qi].p
		for _, e := range edgesOf(p.tm) {
			if e.Emit < 0 {
				push(pairState{e.To, p.spec}, qi, -1)
				continue
			}
			d2 := lz.Step(p.spec, int(e.Emit))
			if d2 == space.None {
				return result(false, buildWord(qi, e.Emit)), nil
			}
			push(pairState{e.To, d2}, qi, e.Emit)
		}
	}
	return result(true, nil), nil
}

// otfPar is the level-parallel on-the-fly search over product pairs.
// Violations can only occur in the level currently being expanded (the
// barrier hook stops the search at the first level that records one),
// and the canonical winner — minimal (source id, edge index) — is
// exactly the violation the sequential scan hits first, so verdict and
// counterexample word match otfSeq for every worker count. The states
// constructed at the stopping point may differ (trailing same-level
// expansions), so the budget and the reported sizes are
// worker-count-dependent on early exit; verdicts never are.
func otfPar(alg tm.Algorithm, cm tm.ContentionManager, det *spec.Det, prop spec.Property, workers int, g *guard.Guard, phase bool) (Result, error) {
	name := "otf:" + systemName(alg, cm) + ":" + prop.Key()
	if phase {
		done := obs.Phase(name)
		defer done()
	}
	// With the telemetry bus on, every level barrier reports one
	// EvLevelDone — the per-level product-BFS slices of the -trace view.
	var emitLevel func(states int)
	if obs.EventsEnabled() {
		last, level, prev := time.Now(), int32(0), 0
		emitLevel = func(states int) {
			now := time.Now()
			obs.Emit(obs.Event{
				Kind: obs.EvLevelDone, Name: name, Level: level,
				States: int64(states), Frontier: int64(states - prev),
				HeapBytes: obs.SampledHeap(), DurNS: now.Sub(last).Nanoseconds(),
			})
			last, prev = now, states
			level++
		}
	}
	tmsp := explore.NewSpaceSync(alg, cm)
	lz := spec.NewLazySync(det)

	var pairs []pairState
	// parents[id] is the packed minimal discovery key of pair id —
	// srcID<<32 | emission ordinal — min-updated atomically across the
	// racing finish calls; ^0 marks the root/unset.
	var parents []uint64

	var vioMu sync.Mutex
	vioFound := false
	var vioSrc, vioEdge int32
	var vioLetter int16

	pstats, err := parbfs.RunControlled(pairState{}, workers,
		func(states int) error {
			if emitLevel != nil {
				emitLevel(states)
			}
			vioMu.Lock()
			found := vioFound
			vioMu.Unlock()
			if found {
				return errViolationFound
			}
			return g.Check(states + tmsp.NumStates() + lz.NumStates())
		},
		func(id int, emit func(pairState)) {
			p := pairs[id]
			for j, e := range expandSorted(tmsp, p.tm) {
				if e.Emit < 0 {
					emit(pairState{e.To, p.spec})
					continue
				}
				d2 := lz.Step(p.spec, int(e.Emit))
				if d2 == space.None {
					vioMu.Lock()
					if !vioFound || int32(id) < vioSrc || (int32(id) == vioSrc && int32(j) < vioEdge) {
						vioFound, vioSrc, vioEdge, vioLetter = true, int32(id), int32(j), e.Emit
					}
					vioMu.Unlock()
					continue
				}
				emit(pairState{e.To, d2})
			}
		},
		func(id int, p pairState) {
			pairs = append(pairs, p)
			parents = append(parents, ^uint64(0))
		},
		func(id int, succ []int32) {
			for j, to := range succ {
				key := uint64(id)<<32 | uint64(j)
				for {
					old := atomic.LoadUint64(&parents[to])
					if key >= old || atomic.CompareAndSwapUint64(&parents[to], old, key) {
						break
					}
				}
			}
		},
	)

	frontierPeak := 1
	for _, n := range pstats.LevelSizes {
		if n > frontierPeak {
			frontierPeak = n
		}
	}
	result := func(holds bool, cexLetters []int) Result {
		res := Result{
			System:       tmsp.Name(),
			Prop:         prop,
			Threads:      alg.Threads(),
			Vars:         alg.Vars(),
			TMStates:     tmsp.NumStates(),
			SpecStates:   lz.NumStates(),
			Holds:        holds,
			Engine:       EngineOnTheFly,
			FrontierPeak: frontierPeak,
			Inclusion:    automata.InclusionStats{PairsVisited: len(pairs), CexLen: len(cexLetters)},
		}
		if !holds {
			res.Counterexample = tmsp.Alphabet.DecodeWord(cexLetters)
		}
		return res
	}

	switch {
	case err == nil:
		return result(true, nil), nil
	case errors.Is(err, errViolationFound):
		// Reconstruct the word along the parent tree. Every ancestor sits
		// in an earlier level than the violation, and earlier levels have
		// no violating edges (the search would have stopped there), so an
		// ancestor's emission ordinal equals its sorted-edge index and
		// re-expanding it recovers the discovering letter.
		rev := []int{int(vioLetter)}
		for cur := vioSrc; cur != 0; {
			pk := parents[cur]
			src := int32(pk >> 32)
			j := int(uint32(pk))
			if l := expandSorted(tmsp, pairs[src].tm)[j].Emit; l >= 0 {
				rev = append(rev, int(l))
			}
			cur = src
		}
		for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
			rev[i], rev[j] = rev[j], rev[i]
		}
		return result(false, rev), nil
	default:
		return Result{}, err
	}
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
