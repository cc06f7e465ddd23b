package safety

import (
	"errors"
	"time"

	"tmcheck/internal/automata"
	"tmcheck/internal/explore"
	"tmcheck/internal/guard"
	"tmcheck/internal/obs"
	"tmcheck/internal/parbfs"
	"tmcheck/internal/spec"
	"tmcheck/internal/tm"
)

// Table2 reproduces the paper's Table 2 on the given systems: for each,
// the transition-system size and the verdicts for strict
// serializability and opacity, with counterexamples, through the engine
// opts.Engine selects. It keeps going: every check runs under the
// options' context, state budget and heap cap, and a check that hits a
// limit — or panics inside the TM algorithm — yields a Result whose
// Limit field carries the *guard.LimitError instead of aborting the
// table. The remaining checks still run, so one oversized or broken
// system costs its own rows and nothing else. Rows are identical for
// every worker count.
func Table2(systems []System, opts Options) []Table2Row {
	if opts.Engine == EngineOnTheFly {
		return table2OnTheFly(systems, parbfs.ResolveWorkers(opts.Workers), opts)
	}
	return table2Materialized(systems, opts)
}

// limitedResult wraps a check-stopping error into a row-renderable
// Result. Every error on these paths is a *guard.LimitError already;
// anything else (defensively) is reported as an isolated panic.
func limitedResult(alg tm.Algorithm, cm tm.ContentionManager, prop spec.Property, engine Engine, elapsed time.Duration, err error) Result {
	var le *guard.LimitError
	if !errors.As(err, &le) {
		le = &guard.LimitError{Kind: guard.KindPanic, Value: err}
	}
	return Result{
		System:   explore.System{Alg: alg, CM: cm}.Name(),
		Prop:     prop,
		Threads:  alg.Threads(),
		Vars:     alg.Vars(),
		TMStates: le.Visited,
		Elapsed:  elapsed,
		Engine:   engine,
		Limit:    le,
	}
}

// recordDriverRow writes one keep-going row's vitals under
// "driver.<table>.<system>.<prop>.*": a limit_<label> counter when the
// check was stopped, plus its elapsed time and the states it reached.
func recordDriverRow(table string, r Result) {
	if !obs.Enabled() {
		return
	}
	key := "driver." + table + "." + r.System + "." + r.Prop.Key()
	if r.Limit != nil {
		obs.Inc(key+".limit_"+r.Limit.Kind.Label(), 1)
	} else {
		obs.Inc(key+".completed", 1)
	}
	obs.SetGauge(key+".states", int64(r.TMStates))
	obs.AddTime(key+".elapsed", r.Elapsed)
}

// resilientCheck runs one guarded check and converts a limit into a
// Limit-carrying Result.
func resilientCheck(run func() (Result, error), alg tm.Algorithm, cm tm.ContentionManager, prop spec.Property, engine Engine) Result {
	start := time.Now()
	res, err := run()
	if err != nil {
		res = limitedResult(alg, cm, prop, engine, time.Since(start), err)
	}
	recordDriverRow("table2", res)
	return res
}

// table2OnTheFly checks every row with the one-worker on-the-fly
// search. With more than one worker and row, the rows fan out over the
// pool instead: whole checks are a coarser unit of parallelism than
// the search's chunk-ahead TM expansion, and the rows are the same
// either way, since the search reports the same Result at every worker
// count. Per-check obs phases open only on the sequential spine; the
// phase stack assumes a single thread.
func table2OnTheFly(systems []System, workers int, opts Options) []Table2Row {
	phase := !opts.NoPhases
	if workers > 1 && len(systems) > 1 {
		if phase {
			done := obs.Phase("safety:table2-onthefly-parallel")
			defer done()
		}
		phase = false
	}
	rows := make([]Table2Row, len(systems))
	parbfs.For(len(systems), workers, func(i int) {
		sys := systems[i]
		check := func(prop spec.Property) Result {
			return resilientCheck(func() (Result, error) {
				return checkOnTheFly(sys.Alg, sys.CM, prop, 1, opts.Guard(), phase)
			}, sys.Alg, sys.CM, prop, EngineOnTheFly)
		}
		rows[i] = Table2Row{SS: check(spec.StrictSerializability), OP: check(spec.Opacity)}
	})
	return rows
}

// table2Materialized is the materialized driver. Without a state
// budget it builds each row's TM once under "safety:<name>" /
// "build-tm" phases, enumerates the deterministic specifications once
// per (prop, n, k) under "build-spec:*" and shares them across rows,
// and runs the inclusions under "inclusion:*" — with the guard threaded
// through every stage. With a budget set the rows go through the
// per-check staged pipeline of VerifyOpts instead, each check charging
// its own TM build, spec enumeration, and inclusion to the budget.
func table2Materialized(systems []System, opts Options) []Table2Row {
	if opts.MaxStates > 0 {
		rows := make([]Table2Row, 0, len(systems))
		for _, sys := range systems {
			ss := resilientCheck(func() (Result, error) {
				return VerifyOpts(sys.Alg, sys.CM, spec.StrictSerializability, opts)
			}, sys.Alg, sys.CM, spec.StrictSerializability, EngineMaterialized)
			op := resilientCheck(func() (Result, error) {
				return VerifyOpts(sys.Alg, sys.CM, spec.Opacity, opts)
			}, sys.Alg, sys.CM, spec.Opacity, EngineMaterialized)
			rows = append(rows, Table2Row{SS: ss, OP: op})
		}
		return rows
	}
	// Unbudgeted from here on: opts.Guard() carries a zero state budget
	// (plus the context and heap watchdog) through every stage.
	pf := func(name string) func() {
		if opts.NoPhases {
			return func() {}
		}
		return obs.Phase(name)
	}

	type dfaKey struct {
		prop spec.Property
		n, k int
	}
	dfas := map[dfaKey]*automata.DFA{}
	// dfaFor builds (or reuses) the deterministic specification under
	// the guard, reporting the enumeration time — zero on a cache hit,
	// so the cost is charged exactly once across the table.
	dfaFor := func(prop spec.Property, n, k int) (*automata.DFA, time.Duration, error) {
		k2 := dfaKey{prop, n, k}
		if d, ok := dfas[k2]; ok {
			return d, 0, nil
		}
		done := pf("build-spec:" + prop.Key())
		defer done()
		start := time.Now()
		d, err := spec.NewDet(prop, n, k).EnumerateGuarded(opts.Guard())
		if err != nil {
			return nil, time.Since(start), err
		}
		dfas[k2] = d
		return d, time.Since(start), nil
	}

	rows := make([]Table2Row, 0, len(systems))
	for _, sys := range systems {
		name := sys.Name()
		doneSys := pf("safety:" + name)
		doneBuild := pf("build-tm")
		buildStart := time.Now()
		ts, buildErr := explore.BuildGuarded(sys.Alg, sys.CM, opts.Guard(), opts.Persist)
		buildElapsed := time.Since(buildStart)
		doneBuild()
		if buildErr != nil {
			// The row's TM never materialized: both checks are limited.
			row := Table2Row{
				SS: limitedResult(sys.Alg, sys.CM, spec.StrictSerializability, EngineMaterialized, buildElapsed, buildErr),
				OP: limitedResult(sys.Alg, sys.CM, spec.Opacity, EngineMaterialized, 0, buildErr),
			}
			recordDriverRow("table2", row.SS)
			recordDriverRow("table2", row.OP)
			rows = append(rows, row)
			doneSys()
			continue
		}
		n, k := sys.Alg.Threads(), sys.Alg.Vars()
		check := func(prop spec.Property) Result {
			return resilientCheck(func() (Result, error) {
				dfa, specElapsed, err := dfaFor(prop, n, k)
				if err != nil {
					return Result{}, err
				}
				res, err := checkAgainstDFAGuarded(ts, prop, dfa, opts.Guard(), !opts.NoPhases)
				if err != nil {
					return Result{}, err
				}
				res.BuildSpecElapsed = specElapsed
				return res, nil
			}, sys.Alg, sys.CM, prop, EngineMaterialized)
		}
		row := Table2Row{SS: check(spec.StrictSerializability), OP: check(spec.Opacity)}
		row.SS.BuildTMElapsed = buildElapsed
		rows = append(rows, row)
		doneSys()
	}
	return rows
}
