package safety

import (
	"errors"
	"strconv"
	"time"

	"tmcheck/internal/automata"
	"tmcheck/internal/core"
	"tmcheck/internal/explore"
	"tmcheck/internal/guard"
	"tmcheck/internal/obs"
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

// Options configures VerifyOpts and Table2 (see explore.Options).
type Options = explore.Options

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
// words: both run automata.Walk, over sides that list each state's edges
// in the same order (TestEngineAgreement asserts this across the
// registry).
func VerifyOpts(alg tm.Algorithm, cm tm.ContentionManager, prop spec.Property, opts Options) (Result, error) {
	g := opts.Guard()
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
// through its three stages: the TM build and the inclusion walk count
// against the whole budget, and the spec enumeration's own count is
// charged on top of the TM states (the context and heap watchdog are
// shared across all three unchanged). phase=false suppresses the obs
// span for callers off the single-threaded spine.
func verifyMaterialized(alg tm.Algorithm, cm tm.ContentionManager, prop spec.Property, g *guard.Guard, phase bool, prov explore.PersistProvider) (res Result, err error) {
	fin := checkEvents("dfa:" + explore.System{Alg: alg, CM: cm}.Name() + ":" + prop.Key())
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

	// The walk counts the TM and spec states with its pairs, so the
	// whole budget applies.
	if res, err = checkAgainstDFAGuarded(ts, prop, dfa, g, phase); err != nil {
		return Result{}, err
	}
	res.BuildTMElapsed, res.BuildSpecElapsed = buildElapsed, specElapsed
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
	name := "otf:" + explore.System{Alg: alg, CM: cm}.Name() + ":" + prop.Key()
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

// searchProduct is the on-the-fly product search: the automata.Walk
// of a lazily expanded TM (explore.Lazy) against a lazily stepped Σd
// (spec.Lazy), one loop for every worker count.
//
// Above one worker the TM side explores ahead of the walk on a stage
// goroutine of its own, with one helper goroutine expanding TM states
// for it (explore.NewLazyWorkers), and the walk keeps only the Σd steps
// and the pair probes. The stage expands the TM states in the order the
// walk first asks for them, and the walk counts the TM states as of the
// last expansion it took, so ids, sizes, the frontier peak and the point
// where a budget trips are the same at every worker count.
func searchProduct(alg tm.Algorithm, cm tm.ContentionManager, prop spec.Property, workers int, g *guard.Guard, name string) (Result, error) {
	tms := explore.NewLazyWorkers(alg, cm, workers)
	defer tms.Close()
	lz := spec.NewLazy(spec.NewDet(prop, alg.Threads(), alg.Vars()))
	w := automata.Walk{A: tms, D: lz, Guard: g, Name: name}
	r, err := w.Run()
	if err != nil {
		return Result{}, err
	}
	res := Result{
		System:       explore.System{Alg: alg, CM: cm}.Name(),
		Prop:         prop,
		Threads:      alg.Threads(),
		Vars:         alg.Vars(),
		TMStates:     tms.NumStates(),
		SpecStates:   lz.NumStates(),
		Holds:        r.Holds,
		Engine:       EngineOnTheFly,
		FrontierPeak: r.FrontierPeak,
		Inclusion:    r.Stats,
	}
	if !r.Holds {
		res.Counterexample = core.Alphabet{Threads: alg.Threads(), Vars: alg.Vars()}.DecodeWord(r.Cex)
	}
	return res, nil
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
