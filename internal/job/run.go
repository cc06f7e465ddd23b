package job

import (
	"context"

	"tmcheck/internal/explore"
	"tmcheck/internal/liveness"
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
	opts := explore.Options{
		Workers:   sp.Workers,
		Engine:    engine,
		MaxStates: sp.MaxStates,
		MaxMem:    sp.MaxMem,
		Ctx:       ctx,
		NoPhases:  cfg.NoPhases,
		Persist:   prov,
	}
	res := &Result{Spec: sp}
	switch sp.Kind {
	case KindSafety:
		err = runSafety(sp, opts, res)
	case KindLiveness:
		err = runLiveness(sp, opts, res)
	case KindTable2:
		err = runTable2(sp, opts, res)
	case KindTable3:
		err = runTable3(sp, opts, res)
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

func runSafety(sp Spec, opts explore.Options, res *Result) error {
	alg, cm, err := system(sp)
	if err != nil {
		return err
	}
	r, err := safety.VerifyOpts(alg, cm, sp.property(), opts)
	if err != nil {
		return err
	}
	res.Checks = []Check{checkFromSafety(r)}
	return nil
}

func runLiveness(sp Spec, opts explore.Options, res *Result) error {
	alg, cm, err := system(sp)
	if err != nil {
		return err
	}
	row, err := liveness.VerifyOpts(alg, cm, opts)
	if err != nil {
		return err
	}
	res.Checks = checksFromRow(row)
	return nil
}

func runTable2(sp Spec, opts explore.Options, res *Result) error {
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
	for _, row := range safety.Table2(systems, opts) {
		res.Checks = append(res.Checks, checkFromSafety(row.SS), checkFromSafety(row.OP))
	}
	return nil
}

func runTable3(sp Spec, opts explore.Options, res *Result) error {
	for _, row := range liveness.Table3(liveness.PaperSystems(sp.Threads, sp.Vars), opts) {
		res.Checks = append(res.Checks, checksFromRow(row)...)
	}
	return nil
}

// checksFromRow converts one liveness row, in the Table 3 column order.
func checksFromRow(row liveness.Table3Row) []Check {
	return []Check{
		checkFromLiveness(row.Obstruction),
		checkFromLiveness(row.Livelock),
		checkFromLiveness(row.Wait),
	}
}
