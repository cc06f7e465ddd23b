package job

import (
	"context"
	"time"

	"tmcheck/internal/explore"
	"tmcheck/internal/guard"
	"tmcheck/internal/liveness"
	"tmcheck/internal/obs"
	"tmcheck/internal/safety"
	"tmcheck/internal/snap"
	"tmcheck/internal/tm"
)

// Config adjusts how Run drives the engines without changing any
// verdict.
type Config struct {
	// NoPhases suppresses the obs phase spans. The phase stack assumes
	// a single-threaded pipeline spine, so concurrent front-ends (the
	// tmcheckd worker pool) run jobs with NoPhases set; counters,
	// gauges and bus events still record normally.
	NoPhases bool
	// SnapSync and SnapBatch set the checkpoint fsync policy
	// (-snap-sync): per record (default), batched every SnapBatch
	// records, or only at close. A looser mode trades a wider crash
	// window for fewer fsyncs; verdicts are unaffected.
	SnapSync  snap.SyncMode
	SnapBatch int
	// StrictPersist makes snapshot and spill I/O errors fail the run
	// (-strict-persist). The default degrades gracefully: the check
	// continues unpersisted with a loud DEGRADED warning.
	StrictPersist bool
}

// Run executes one job under ctx and returns its Result. The single
// check kinds (safety, liveness) fail fast: a resource limit surfaces
// as the typed error, exactly as the CLI subcommands always have. The
// table kinds keep going: limited cells carry Check.Limit and the
// call still succeeds — render them and feed Result.Limits into the
// -strict-limits policy.
func Run(ctx context.Context, sp Spec) (*Result, error) {
	return RunConfig(ctx, sp, Config{})
}

// RunConfig is Run with an explicit Config.
func RunConfig(ctx context.Context, sp Spec, cfg Config) (*Result, error) {
	sp.Normalize()
	if err := sp.Validate(); err != nil {
		return nil, err
	}
	if sp.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, sp.Timeout)
		defer cancel()
	}
	engine, err := sp.engine()
	if err != nil {
		return nil, err
	}
	var prov explore.PersistProvider
	if sp.Checkpoint != "" || sp.Resume != "" || sp.Spill != "" {
		store, err := snap.OpenRunOpts(sp.Resume, sp.Checkpoint, sp.Threads, sp.Vars,
			snap.Options{Sync: cfg.SnapSync, BatchEvery: cfg.SnapBatch, Strict: cfg.StrictPersist})
		if err != nil {
			return nil, err
		}
		if store != nil {
			defer store.Close()
		}
		var spill *snap.Spill
		if sp.Spill != "" {
			spill = snap.NewSpill(sp.Spill)
			spill.SetStrict(cfg.StrictPersist)
			defer spill.Close()
		}
		prov = persistProvider(store, spill)
	}
	res := &Result{Spec: sp}
	switch sp.Kind {
	case KindSafety:
		err = runSafety(ctx, sp, cfg, engine, prov, res)
	case KindLiveness:
		err = runLiveness(ctx, sp, cfg, engine, prov, res)
	case KindTable2:
		err = runTable2(ctx, sp, cfg, engine, prov, res)
	case KindTable3:
		err = runTable3(ctx, sp, cfg, engine, prov, res)
	}
	annotateSnapshot(res, err, sp.Checkpoint)
	if err != nil {
		return nil, err
	}
	return res, nil
}

// persistProvider composes the snapshot store and the spill arena into
// the per-system provider the engines consult: the store contributes
// the resume prefix and the append sink, the spill contributes
// mmap-backed key storage. Each invocation hands out fresh spill
// regions, so concurrent table rows never share an arena.
func persistProvider(store *snap.Store, spill *snap.Spill) explore.PersistProvider {
	if store == nil && spill == nil {
		return nil
	}
	return func(alg tm.Algorithm, cm tm.ContentionManager) (*explore.Persist, error) {
		p := &explore.Persist{}
		if store != nil {
			var err error
			if p, err = store.Persist(alg, cm); err != nil {
				return nil, err
			}
		}
		if spill != nil {
			p.Grow = spill.Grow()
		}
		return p, nil
	}
}

// annotateSnapshot stamps the checkpoint path onto every limit the run
// reports — the keep-going table cells and the fail-fast error alike —
// so a LIMIT(kind) verdict tells the user where the saved progress
// lives and how to pick it back up.
func annotateSnapshot(res *Result, err error, path string) {
	if path == "" {
		return
	}
	if res != nil {
		for i := range res.Checks {
			if res.Checks[i].Limit != nil {
				res.Checks[i].Limit.Snapshot = path
			}
		}
	}
	if le := AsLimit(err); le != nil {
		le.Snapshot = path
	}
}

// phaseFn opens an obs phase unless the config suppresses them.
func phaseFn(cfg Config, name string) func() {
	if cfg.NoPhases {
		return func() {}
	}
	return obs.Phase(name)
}

// system resolves the spec's TM and manager from the registries.
func system(sp Spec) (tm.Algorithm, tm.ContentionManager, error) {
	alg, err := tm.NewAlgorithm(sp.TM, sp.Threads, sp.Vars)
	if err != nil {
		return nil, nil, err
	}
	cm, err := tm.NewContentionManager(sp.CM)
	if err != nil {
		return nil, nil, err
	}
	return alg, cm, nil
}

func runSafety(ctx context.Context, sp Spec, cfg Config, engine explore.Engine, prov explore.PersistProvider, res *Result) error {
	alg, cm, err := system(sp)
	if err != nil {
		return err
	}
	r, err := safety.VerifyOpts(alg, cm, sp.property(), safety.Options{
		Workers:   sp.Workers,
		MaxStates: sp.MaxStates,
		MaxMem:    sp.MaxMem,
		Engine:    engine,
		Ctx:       ctx,
		NoPhases:  cfg.NoPhases,
		Persist:   prov,
	})
	if err != nil {
		return err
	}
	res.Checks = []Check{checkFromSafety(r)}
	return nil
}

func runLiveness(ctx context.Context, sp Spec, cfg Config, engine explore.Engine, prov explore.PersistProvider, res *Result) error {
	alg, cm, err := system(sp)
	if err != nil {
		return err
	}
	if engine == explore.EngineOnTheFly {
		row, err := liveness.CheckAllOnTheFlyOpts(alg, cm, liveness.Options{
			MaxStates: sp.MaxStates,
			MaxMem:    sp.MaxMem,
			Ctx:       ctx,
			NoPhases:  cfg.NoPhases,
		})
		if err != nil {
			return err
		}
		res.Checks = []Check{
			checkFromLiveness(row.Obstruction),
			checkFromLiveness(row.Livelock),
			checkFromLiveness(row.Wait),
		}
		return nil
	}
	buildStart := time.Now()
	buildDone := phaseFn(cfg, "build-tm")
	ts, err := explore.BuildGuarded(alg, cm, guard.New(ctx, sp.MaxStates, sp.MaxMem), prov)
	buildDone()
	if err != nil {
		return err
	}
	buildElapsed := time.Since(buildStart)
	checks := make([]Check, 0, 3)
	for _, c := range []struct {
		prop  liveness.Prop
		check func(*explore.TS) liveness.Result
	}{
		{liveness.ObstructionFreedom, liveness.CheckObstructionFreedom},
		{liveness.LivelockFreedom, liveness.CheckLivelockFreedom},
		{liveness.WaitFreedom, liveness.CheckWaitFreedom},
	} {
		checkDone := phaseFn(cfg, "check:"+c.prop.Key())
		checks = append(checks, checkFromLiveness(c.check(ts)))
		checkDone()
	}
	checks[0].BuildTMNS = buildElapsed.Nanoseconds()
	checks[0].Resumed = ts.Resumed
	res.Checks = checks
	return nil
}

func runTable2(ctx context.Context, sp Spec, cfg Config, engine explore.Engine, prov explore.PersistProvider, res *Result) error {
	systems := safety.PaperSystems(sp.Threads, sp.Vars)
	if sp.Ext {
		for _, name := range []string{"norec", "etl", "2pl-noreadlock", "dstm-novalidate"} {
			alg, err := tm.NewAlgorithm(name, sp.Threads, sp.Vars)
			if err != nil {
				return err
			}
			systems = append(systems, safety.System{Alg: alg})
		}
	}
	rows := safety.Table2(systems, safety.Options{
		Workers:   sp.Workers,
		MaxStates: sp.MaxStates,
		MaxMem:    sp.MaxMem,
		Engine:    engine,
		Ctx:       ctx,
		NoPhases:  cfg.NoPhases,
		Persist:   prov,
	})
	for _, row := range rows {
		res.Checks = append(res.Checks, checkFromSafety(row.SS), checkFromSafety(row.OP))
	}
	return nil
}

func runTable3(ctx context.Context, sp Spec, cfg Config, engine explore.Engine, prov explore.PersistProvider, res *Result) error {
	systems := liveness.PaperSystems(sp.Threads, sp.Vars)
	rows := liveness.Table3(systems, liveness.Options{
		Workers:   sp.Workers,
		Engine:    engine,
		MaxStates: sp.MaxStates,
		MaxMem:    sp.MaxMem,
		Ctx:       ctx,
		NoPhases:  cfg.NoPhases,
		Persist:   prov,
	})
	for _, row := range rows {
		res.Checks = append(res.Checks,
			checkFromLiveness(row.Obstruction),
			checkFromLiveness(row.Livelock),
			checkFromLiveness(row.Wait),
		)
	}
	return nil
}
