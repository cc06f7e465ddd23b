package liveness

import (
	"errors"
	"strconv"
	"time"

	"tmcheck/internal/core"
	"tmcheck/internal/explore"
	"tmcheck/internal/guard"
	"tmcheck/internal/obs"
	"tmcheck/internal/tm"
)

// This file holds the probe loop both liveness engines run, and the
// on-the-fly engine around it: instead of materializing the full
// managed-TM transition system and then hunting for lassos, it drives
// the explore.ScanLevels scan and probes the closed prefix for violating
// loops at BFS level barriers. Any loop (plus its stem) found in a
// prefix uses only real edges of the full system, so reporting it
// immediately is sound; a property can only be declared to HOLD at the
// fixpoint, which the final barrier always probes.
//
// Determinism across engines: the scan numbering is canonical, the
// barrier sequence is a function of BFS level sizes only (see
// explore.Barrier), probeDue picks barriers from that sequence alone,
// and the lasso search is a pure function of the prefix — so the first
// violating (prefix, lasso) pair is identical everywhere, and the
// materialized checkTS runs the same loop over explore.TS.Levels.

// probeDue is the geometric probe schedule shared by both engines:
// probe the first barrier, then again whenever the expanded prefix has
// at least doubled since the last probe. Total probe cost stays within
// a constant factor of one full-graph search while shallow violations
// are still found early. A function of the expanded counts only, so
// both engines probe identical prefixes.
func probeDue(expanded, lastProbed int) bool {
	return lastProbed == 0 || expanded >= 2*lastProbed
}

// lassoSearch runs one property's violation search on a (possibly
// prefix) adjacency through the shared Streett predicates of
// streett.go. It is a pure deterministic function of its arguments —
// the cornerstone of the cross-engine bit-identity.
func lassoSearch(out [][]explore.Edge, threads int, p Prop) (stem, loop []explore.Edge) {
	switch p {
	case ObstructionFreedom:
		for t := core.Thread(0); int(t) < threads; t++ {
			restrict, require := obstructionStreett(t)
			if stem, loop := FindStreettRun(out, restrict, nil, require); loop != nil {
				return stem, loop
			}
		}
	case LivelockFreedom:
		restrict, pairs, require := livelockStreett(threads)
		return FindStreettRun(out, restrict, pairs, require)
	case WaitFreedom:
		for t := core.Thread(0); int(t) < threads; t++ {
			restrict, require := waitStreett(t)
			if stem, loop := FindStreettRun(out, restrict, nil, require); loop != nil {
				return stem, loop
			}
		}
	}
	return nil, nil
}

// prober is the probe loop of both engines. Its barrier method takes
// the barrier sequence of explore.ScanLevels or explore.TS.Levels, runs
// the probeDue schedule over it, and searches each due prefix for every
// unresolved property's lasso; a property resolves at its first
// violation, and the loop stops once every property has.
type prober struct {
	sys       System
	engine    explore.Engine
	props     []Prop
	results   []Result
	resolved  []bool
	remaining int
	// probes counts the probes run, lastProbed is the expanded count of
	// the last one, and interned the states interned at the last
	// barrier.
	probes, lastProbed, interned int
	start                        time.Time
	events                       bool // publish an EvViolation per resolved property
	pad                          [][]explore.Edge
}

func newProber(sys System, engine explore.Engine, props []Prop) *prober {
	return &prober{
		sys: sys, engine: engine, props: props,
		results: make([]Result, len(props)), resolved: make([]bool, len(props)),
		remaining: len(props), interned: 1, start: time.Now(),
		events: engine == explore.EngineOnTheFly && obs.EventsEnabled(),
	}
}

// result is property i's Result as of the last barrier, unresolved.
func (pr *prober) result(i int) Result {
	return Result{
		System: pr.sys.Name(), Prop: pr.props[i],
		Threads: pr.sys.Alg.Threads(), Vars: pr.sys.Alg.Vars(),
		TMStates: pr.interned, Elapsed: time.Since(pr.start),
		Engine: pr.engine, Probes: pr.probes,
	}
}

// barrier is the explore.Barrier of the probe loop.
func (pr *prober) barrier(out [][]explore.Edge, interned, expanded int) error {
	pr.interned = interned
	final := expanded == interned
	if !final && !probeDue(expanded, pr.lastProbed) {
		return nil
	}
	pr.lastProbed = expanded
	pr.probes++
	view := out
	if len(view) < interned {
		// The barrier hands over only the expanded prefix; pad the
		// discovered-but-unexpanded tail with edgeless states so every
		// edge target is in range.
		pr.pad = append(pr.pad[:0], out...)
		for len(pr.pad) < interned {
			pr.pad = append(pr.pad, nil)
		}
		view = pr.pad
	}
	for i, p := range pr.props {
		if pr.resolved[i] {
			continue
		}
		stem, loop := lassoSearch(view, pr.sys.Alg.Threads(), p)
		if loop == nil {
			continue
		}
		pr.resolved[i] = true
		pr.remaining--
		res := pr.result(i)
		res.Stem, res.Loop, res.Expanded = stem, loop, expanded
		pr.results[i] = res
		if pr.events {
			obs.Emit(obs.Event{
				Kind: obs.EvViolation, Name: pr.sys.Name() + ":" + p.Key(),
				States: int64(interned),
				Detail: "lasso found: stem " + strconv.Itoa(len(stem)) +
					", loop " + strconv.Itoa(len(loop)),
			})
		}
	}
	if pr.remaining == 0 {
		return errAllResolved
	}
	return nil
}

// finish settles the properties no probe found a violation of: they
// hold at the fixpoint, or carry le when a limit stopped the loop
// first.
func (pr *prober) finish(le *guard.LimitError) []Result {
	for i := range pr.props {
		if pr.resolved[i] {
			continue
		}
		res := pr.result(i)
		if le != nil {
			res.Expanded, res.Limit = pr.lastProbed, le
		} else {
			res.Holds, res.Expanded = true, pr.interned
		}
		pr.results[i] = res
	}
	return pr.results
}

// Options configures VerifyOpts, CheckOnTheFlyOpts,
// CheckAllOnTheFlyOpts and Table3 (see explore.Options).
type Options = explore.Options

// CheckOnTheFlyOpts checks one liveness property with the on-the-fly
// engine.
func CheckOnTheFlyOpts(alg tm.Algorithm, cm tm.ContentionManager, p Prop, opts Options) (Result, error) {
	res, err := checkLazy(alg, cm, []Prop{p}, opts.Guard(), !opts.NoPhases)
	if len(res) != 1 {
		return Result{}, err
	}
	// With a limit, the property may have resolved (a real violation)
	// before it tripped, or carries it in Result.Limit; the error still
	// reports the stop.
	return res[0], err
}

// CheckAllOnTheFlyOpts is VerifyOpts on the on-the-fly engine, whatever
// opts.Engine says: all three properties over one shared exploration,
// each resolving (failing) at its own probe. Results equal three
// independent CheckOnTheFlyOpts calls.
func CheckAllOnTheFlyOpts(alg tm.Algorithm, cm tm.ContentionManager, opts Options) (Table3Row, error) {
	opts.Engine = explore.EngineOnTheFly
	return VerifyOpts(alg, cm, opts)
}

// errAllResolved stops the probe loop once every property has found
// its violation — exploring further could not change any verdict.
var errAllResolved = errors.New("liveness: all properties resolved")

// checkLazy is the on-the-fly engine: one lazy exploration, probing
// every unresolved property at the scheduled barriers. phase=false
// suppresses the obs span for callers off the single-threaded spine.
//
// When the guard stops the scan, properties already resolved keep their
// violation Results; the unresolved ones carry the *guard.LimitError in
// Result.Limit. The partial results are returned together with the
// error, so keep-going drivers render exactly what was learned.
func checkLazy(alg tm.Algorithm, cm tm.ContentionManager, props []Prop, g *guard.Guard, phase bool) ([]Result, error) {
	pr := newProber(System{Alg: alg, CM: cm}, explore.EngineOnTheFly, props)
	name := "liveness-otf:" + pr.sys.Name()
	if phase {
		defer obs.Phase(name)()
	}
	if pr.events {
		obs.Emit(obs.Event{Kind: obs.EvCheckStart, Name: name})
	}
	emitDone := func(detail string) {
		if pr.events {
			obs.Emit(obs.Event{
				Kind: obs.EvCheckDone, Name: name,
				States: int64(pr.interned), DurNS: time.Since(pr.start).Nanoseconds(),
				Detail: detail,
			})
		}
	}
	err := explore.ScanLevels(alg, cm, g, pr.barrier)
	var le *guard.LimitError
	if err != nil && !errors.Is(err, errAllResolved) && !errors.As(err, &le) {
		emitDone("ERROR: " + err.Error())
		return nil, err
	}
	results := pr.finish(le)
	violated := 0
	for i := range results {
		results[i].record()
		if !results[i].Holds {
			violated++
		}
	}
	if le != nil {
		emitDone("LIMIT: " + le.Error())
		return results, err
	}
	emitDone(strconv.Itoa(len(props)-violated) + "/" + strconv.Itoa(len(props)) + " hold")
	return results, nil
}
