package liveness

import (
	"context"
	"errors"
	"strconv"
	"time"

	"tmcheck/internal/core"
	"tmcheck/internal/explore"
	"tmcheck/internal/guard"
	"tmcheck/internal/obs"
	"tmcheck/internal/space"
	"tmcheck/internal/tm"
)

// This file is the on-the-fly liveness engine: instead of materializing
// the full managed-TM transition system and then hunting for lassos, it
// drives the explore.ScanLevels scan and probes the closed prefix for
// violating loops at BFS level barriers. Any loop (plus its stem) found
// in a prefix uses only real edges of the full system, so reporting it
// immediately is sound; a property can only be declared to HOLD at the
// fixpoint, which the final barrier always probes.
//
// Determinism across engines: the scan numbering is canonical, the
// barrier sequence is a function of BFS level sizes only (see
// explore.Barrier), probeDue picks barriers from that sequence alone,
// and the lasso search is a pure function of the prefix — so the first
// violating (prefix, lasso) pair is identical everywhere, and the
// materialized checkTS replays the exact same schedule.

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

// Options configures CheckOnTheFlyOpts, CheckAllOnTheFlyOpts and
// Table3.
type Options struct {
	// Workers is the worker count; <= 0 means GOMAXPROCS. Table3 fans
	// its rows out over a pool of Workers goroutines; every check runs
	// one sequential scan, so CheckOnTheFlyOpts and CheckAllOnTheFlyOpts
	// ignore it. Verdicts and lasso words are identical for every value.
	Workers int
	// Engine selects Table3's engine; the zero value is
	// EngineMaterialized. CheckOnTheFlyOpts and CheckAllOnTheFlyOpts
	// name their engine and ignore it.
	Engine space.Engine
	// MaxStates bounds the states interned; <= 0 means unbounded. A
	// blown budget fails the check with a *space.BudgetError.
	MaxStates int
	// MaxMem is the heap cap in bytes; 0 means uncapped.
	MaxMem uint64
	// Ctx carries the check's deadline and cancellation; nil means no
	// deadline. The scan consults it at the same points where it checks
	// the state budget.
	Ctx context.Context
	// NoPhases suppresses the obs phase spans (the phase stack assumes a
	// single-threaded spine); counters and bus events still record.
	// Front-ends running checks concurrently (tmcheckd) set it.
	NoPhases bool
	// Persist supplies checkpoint/resume and disk-spill wiring for the
	// TM exploration (see explore.PersistProvider); nil runs plain.
	// Honored by the materialized Table 3 driver only — the on-the-fly
	// engine does not intern a resumable prefix.
	Persist explore.PersistProvider
}

// guard builds one check's guard from the options.
func (opts Options) guard() *guard.Guard {
	return guard.New(opts.Ctx, opts.MaxStates, opts.MaxMem)
}

// CheckOnTheFlyOpts checks one liveness property with the on-the-fly
// engine.
func CheckOnTheFlyOpts(alg tm.Algorithm, cm tm.ContentionManager, p Prop, opts Options) (Result, error) {
	res, err := checkLazy(alg, cm, []Prop{p}, opts.guard(), !opts.NoPhases)
	if err != nil {
		if len(res) == 1 {
			// Partial outcome: the property may have resolved (a real
			// violation) before the limit tripped, or carries the limit
			// in Result.Limit. The error still reports the stop.
			return res[0], err
		}
		return Result{}, err
	}
	return res[0], nil
}

// CheckAllOnTheFlyOpts checks all three properties over a single shared
// exploration: each property resolves (fails) at its own probe, and the
// scan stops early once every property has a violation. Results equal
// three independent CheckOnTheFlyOpts calls.
func CheckAllOnTheFlyOpts(alg tm.Algorithm, cm tm.ContentionManager, opts Options) (Table3Row, error) {
	res, err := checkLazy(alg, cm, Props, opts.guard(), !opts.NoPhases)
	if err != nil {
		if len(res) == 3 {
			// Partial outcome: resolved properties keep their violations,
			// unresolved ones carry the limit in Result.Limit.
			return Table3Row{Obstruction: res[0], Livelock: res[1], Wait: res[2]}, err
		}
		return Table3Row{}, err
	}
	return Table3Row{Obstruction: res[0], Livelock: res[1], Wait: res[2]}, nil
}

// errAllResolved stops the lazy scan once every property has found its
// violation — exploring further could not change any verdict.
var errAllResolved = errors.New("liveness: all properties resolved")

// checkLazy is the engine core: one lazy exploration, probing every
// unresolved property at the scheduled barriers. phase=false suppresses
// the obs span for callers off the single-threaded spine.
//
// When the guard stops the scan, properties already resolved keep their
// violation Results; the unresolved ones carry the *guard.LimitError in
// Result.Limit. The partial results are returned together with the
// error, so keep-going drivers render exactly what was learned.
func checkLazy(alg tm.Algorithm, cm tm.ContentionManager, props []Prop, g *guard.Guard, phase bool) ([]Result, error) {
	name := systemName(alg, cm)
	if phase {
		done := obs.Phase("liveness-otf:" + name)
		defer done()
	}
	start := time.Now()
	events := obs.EventsEnabled()
	if events {
		obs.Emit(obs.Event{Kind: obs.EvCheckStart, Name: "liveness-otf:" + name})
	}
	threads := alg.Threads()
	results := make([]Result, len(props))
	resolved := make([]bool, len(props))
	remaining := len(props)
	probes := 0
	lastProbed := 0
	finalStates := 1
	emitDone := func(detail string) {
		if events {
			obs.Emit(obs.Event{
				Kind: obs.EvCheckDone, Name: "liveness-otf:" + name,
				States: int64(finalStates), DurNS: time.Since(start).Nanoseconds(),
				Detail: detail,
			})
		}
	}
	var pad [][]explore.Edge
	barrier := func(out [][]explore.Edge, interned, expanded int) error {
		finalStates = interned
		final := expanded == interned
		if !final && !probeDue(expanded, lastProbed) {
			return nil
		}
		lastProbed = expanded
		probes++
		view := out
		if len(view) < interned {
			// The scan hands over only the expanded prefix; pad the
			// discovered-but-unexpanded tail with edgeless states so
			// every edge target is in range.
			pad = append(pad[:0], out...)
			for len(pad) < interned {
				pad = append(pad, nil)
			}
			view = pad
		}
		for i, p := range props {
			if resolved[i] {
				continue
			}
			stem, loop := lassoSearch(view, threads, p)
			if loop == nil {
				continue
			}
			resolved[i] = true
			remaining--
			results[i] = Result{
				System: name, Prop: p, Threads: threads, Vars: alg.Vars(),
				TMStates: interned, Holds: false, Stem: stem, Loop: loop,
				Elapsed: time.Since(start), Engine: space.EngineOnTheFly,
				Expanded: expanded, Probes: probes,
			}
			if events {
				obs.Emit(obs.Event{
					Kind: obs.EvViolation, Name: name + ":" + p.Key(),
					States: int64(interned),
					Detail: "lasso found: stem " + strconv.Itoa(len(stem)) +
						", loop " + strconv.Itoa(len(loop)),
				})
			}
		}
		if remaining == 0 {
			return errAllResolved
		}
		return nil
	}
	if err := explore.ScanLevels(alg, cm, g, barrier); err != nil && !errors.Is(err, errAllResolved) {
		var le *guard.LimitError
		if !errors.As(err, &le) {
			emitDone("ERROR: " + err.Error())
			return nil, err
		}
		// Limited scan: resolved properties keep their violations, the
		// rest are marked limited at the states reached.
		for i, p := range props {
			if resolved[i] {
				continue
			}
			results[i] = Result{
				System: name, Prop: p, Threads: threads, Vars: alg.Vars(),
				TMStates: finalStates,
				Elapsed:  time.Since(start), Engine: space.EngineOnTheFly,
				Expanded: lastProbed, Probes: probes, Limit: le,
			}
		}
		for i := range results {
			results[i].recordOTF()
		}
		emitDone("LIMIT: " + le.Error())
		return results, err
	}
	for i, p := range props {
		if resolved[i] {
			continue
		}
		results[i] = Result{
			System: name, Prop: p, Threads: threads, Vars: alg.Vars(),
			TMStates: finalStates, Holds: true,
			Elapsed: time.Since(start), Engine: space.EngineOnTheFly,
			Expanded: finalStates, Probes: probes,
		}
	}
	for i := range results {
		results[i].recordOTF()
	}
	violated := 0
	for i := range results {
		if !results[i].Holds {
			violated++
		}
	}
	emitDone(strconv.Itoa(len(props)-violated) + "/" + strconv.Itoa(len(props)) + " hold")
	return results, nil
}

// recordOTF writes the on-the-fly vitals into the obs registry, keyed
// "liveness.<system>.<prop>.otf.*": states constructed and expanded at
// the verdict (compare against the materialized "liveness.<system>.
// <prop>.tm_states" to see the early-exit win), probes run, and the
// search wall-clock (exploration and probing are interleaved, so the
// whole check is one timer).
func (r Result) recordOTF() {
	if !obs.Enabled() {
		return
	}
	key := "liveness." + r.System + "." + r.Prop.Key() + ".otf"
	obs.Inc(key+".checks", 1)
	obs.SetGauge(key+".tm_states", int64(r.TMStates))
	obs.SetGauge(key+".expanded", int64(r.Expanded))
	obs.Inc(key+".probes", int64(r.Probes))
	if r.Limit != nil {
		obs.Inc(key+".limited", 1)
	} else if !r.Holds {
		obs.SetGauge(key+".loop_len", int64(len(r.Loop)))
		obs.SetGauge(key+".stem_len", int64(len(r.Stem)))
	}
	obs.AddTime(key+".search", r.Elapsed)
}

// systemName names the system without constructing anything.
func systemName(alg tm.Algorithm, cm tm.ContentionManager) string {
	if cm == nil {
		return alg.Name()
	}
	return alg.Name() + "+" + cm.Name()
}
