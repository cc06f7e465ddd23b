package liveness

import (
	"errors"
	"time"

	"tmcheck/internal/explore"
	"tmcheck/internal/guard"
	"tmcheck/internal/obs"
	"tmcheck/internal/parbfs"
)

// Table3 reproduces the paper's Table 3 on the given systems with the
// engine opts.Engine selects: each row checks obstruction, livelock and
// wait freedom. It keeps going: every row runs under the options' context,
// state budget and heap cap, and a row that hits a limit — or panics
// inside the TM algorithm — reports what it learned instead of
// aborting the table. With the on-the-fly engine a limited row keeps
// the violations its probes found before the stop and marks only the
// unresolved properties with Result.Limit; with the materialized
// engine a limited build marks all three.
//
// Each row explores on one sequential scan, and with more than one
// worker the rows fan out over the pool, so rows are bit-identical for
// every worker count. Per-row obs phases open only on the sequential
// spine; the phase stack assumes a single thread.
func Table3(systems []System, opts Options) []Table3Row {
	workers := parbfs.ResolveWorkers(opts.Workers)
	phase := !opts.NoPhases
	if workers > 1 && len(systems) > 1 {
		if phase {
			name := "liveness:table3-onthefly-parallel"
			if opts.Engine == explore.EngineMaterialized {
				name = "liveness:table3-parallel"
			}
			done := obs.Phase(name)
			defer done()
		}
		phase = false
	}
	rows := make([]Table3Row, len(systems))
	parbfs.For(len(systems), workers, func(i int) {
		rows[i] = table3Row(systems[i], phase, opts)
	})
	return rows
}

// table3Row runs one guarded row with the engine opts.Engine selects.
func table3Row(sys System, phase bool, opts Options) Table3Row {
	g := opts.guard()
	if opts.Engine == explore.EngineOnTheFly {
		res, err := checkLazy(sys.Alg, sys.CM, Props, g, phase)
		if err != nil && len(res) != 3 {
			// No partials to keep (a non-limit error): every cell limited.
			return limitedRow(sys, explore.EngineOnTheFly, 0, err)
		}
		row := Table3Row{Obstruction: res[0], Livelock: res[1], Wait: res[2]}
		recordDriverRow3(row)
		return row
	}
	buildStart := time.Now()
	ts, err := explore.BuildGuarded(sys.Alg, sys.CM, g, opts.Persist)
	buildElapsed := time.Since(buildStart)
	if err != nil {
		row := limitedRow(sys, explore.EngineMaterialized, buildElapsed, err)
		recordDriverRow3(row)
		return row
	}
	row := Table3Row{
		Obstruction: CheckObstructionFreedom(ts),
		Livelock:    CheckLivelockFreedom(ts),
		Wait:        CheckWaitFreedom(ts),
	}
	row.Obstruction.BuildElapsed = buildElapsed
	row.Obstruction.Resumed = ts.Resumed
	recordDriverRow3(row)
	return row
}

// limitedRow marks all three properties of one system limited.
func limitedRow(sys System, engine explore.Engine, elapsed time.Duration, err error) Table3Row {
	var le *guard.LimitError
	if !errors.As(err, &le) {
		le = &guard.LimitError{Kind: guard.KindPanic, Value: err}
	}
	cell := func(p Prop) Result {
		return Result{
			System:   systemName(sys.Alg, sys.CM),
			Prop:     p,
			Threads:  sys.Alg.Threads(),
			Vars:     sys.Alg.Vars(),
			TMStates: le.Visited,
			Engine:   engine,
			Limit:    le,
		}
	}
	row := Table3Row{
		Obstruction: cell(ObstructionFreedom),
		Livelock:    cell(LivelockFreedom),
		Wait:        cell(WaitFreedom),
	}
	row.Obstruction.Elapsed = elapsed
	return row
}

// recordDriverRow3 writes one keep-going row's vitals under
// "driver.table3.<system>.<prop>.*": a limit_<label> counter when the
// cell was stopped, plus its elapsed time and the states it reached.
func recordDriverRow3(row Table3Row) {
	if !obs.Enabled() {
		return
	}
	for _, r := range []Result{row.Obstruction, row.Livelock, row.Wait} {
		key := "driver.table3." + r.System + "." + r.Prop.Key()
		if r.Limit != nil {
			obs.Inc(key+".limit_"+r.Limit.Kind.Label(), 1)
		} else {
			obs.Inc(key+".completed", 1)
		}
		obs.SetGauge(key+".states", int64(r.TMStates))
		obs.AddTime(key+".elapsed", r.Elapsed)
	}
}
