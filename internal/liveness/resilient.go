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
// wait freedom through VerifyOpts. It keeps going: every row runs under
// the options' context, state budget and heap cap, and a row that hits
// a limit — or panics inside the TM algorithm — reports what it learned
// instead of aborting the table. With the on-the-fly engine a limited
// row keeps the violations its probes found before the stop and marks
// only the unresolved properties with Result.Limit; with the
// materialized engine a limited build marks all three.
//
// Each row explores on one sequential scan, and with more than one
// worker the rows fan out over the pool, so rows are bit-identical for
// every worker count. Per-row obs phases open only on the sequential
// spine; the phase stack assumes a single thread.
func Table3(systems []System, opts Options) []Table3Row {
	workers := parbfs.ResolveWorkers(opts.Workers)
	if workers > 1 && len(systems) > 1 {
		if !opts.NoPhases {
			defer obs.Phase(parallelPhase[opts.Engine])()
		}
		opts.NoPhases = true
	}
	rows := make([]Table3Row, len(systems))
	parbfs.For(len(systems), workers, func(i int) {
		start := time.Now()
		row, err := verify(systems[i], opts, false)
		if err != nil && row.Obstruction.System == "" {
			// Nothing resolved before the stop (a limited build, or an
			// error that is no limit): every cell is limited.
			row = limitedRow(systems[i], opts.Engine, time.Since(start), err)
		}
		recordDriverRow3(row)
		rows[i] = row
	})
	return rows
}

// parallelPhase names Table3's span, by engine, when its rows fan out.
var parallelPhase = [...]string{
	explore.EngineMaterialized: "liveness:table3-parallel",
	explore.EngineOnTheFly:     "liveness:table3-onthefly-parallel",
}

// limitedRow marks all three properties of one system limited.
func limitedRow(sys System, engine explore.Engine, elapsed time.Duration, err error) Table3Row {
	var le *guard.LimitError
	if !errors.As(err, &le) {
		le = &guard.LimitError{Kind: guard.KindPanic, Value: err}
	}
	cell := func(p Prop) Result {
		return Result{
			System:   sys.Name(),
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
