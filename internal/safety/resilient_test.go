package safety

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tmcheck/internal/chaos"
	"tmcheck/internal/core"
	"tmcheck/internal/explore"
	"tmcheck/internal/guard"
	"tmcheck/internal/spec"
	"tmcheck/internal/tm"
)

// panicAfter wraps a TM algorithm and panics on the Nth Steps call,
// modelling a buggy TM implementation crashing mid-exploration.
type panicAfter struct {
	tm.Algorithm
	calls *atomic.Int64
	after int64
}

func (p panicAfter) Name() string { return "panicky" }

func (p panicAfter) Steps(q tm.State, c core.Command, t core.Thread) []tm.Step {
	if p.calls.Add(1) > p.after {
		panic("injected TM fault")
	}
	return p.Algorithm.Steps(q, c, t)
}

// TestTable2ResilientMatchesFailFast checks that without limits the
// keep-going driver resolves every check, that both engines agree on
// every verdict and counterexample, and that the materialized rows
// report the full system size of the paper's Size column.
func TestTable2ResilientMatchesFailFast(t *testing.T) {
	systems := PaperSystems(2, 2)
	otf := Table2(systems, Options{Engine: EngineOnTheFly})
	mat := Table2(systems, Options{Engine: EngineMaterialized})
	if len(otf) != len(systems) || len(mat) != len(systems) {
		t.Fatalf("%d on-the-fly and %d materialized rows, want %d", len(otf), len(mat), len(systems))
	}
	for i, sys := range systems {
		size := explore.BuildWorkers(sys.Alg, sys.CM, runtime.GOMAXPROCS(0)).NumStates()
		for _, pair := range [][2]Result{{otf[i].SS, mat[i].SS}, {otf[i].OP, mat[i].OP}} {
			o, m := pair[0], pair[1]
			if o.Limit != nil || m.Limit != nil {
				t.Errorf("%s %v unexpectedly limited: on-the-fly %v, materialized %v", o.System, o.Prop, o.Limit, m.Limit)
			}
			oc, mc := fmt.Sprint(o.Counterexample), fmt.Sprint(m.Counterexample)
			if o.Holds != m.Holds || oc != mc {
				t.Errorf("%s %v: on-the-fly (%v, %q), materialized (%v, %q)", o.System, o.Prop, o.Holds, oc, m.Holds, mc)
			}
			if m.TMStates != size {
				t.Errorf("%s %v: materialized size %d, built system has %d states", m.System, m.Prop, m.TMStates, size)
			}
		}
	}
}

// TestTable2ResilientKeepsGoing runs the paper systems under a budget
// that stops the big TMs: the small ones must still resolve, the
// stopped ones must carry a typed states limit, and no error escapes.
func TestTable2ResilientKeepsGoing(t *testing.T) {
	// The materialized pipeline charges the full deterministic spec
	// (5614 ss states at (2,2)) to every check, so it needs a larger
	// budget than the lazy engine for the small systems to fit.
	budgets := map[Engine]int{EngineOnTheFly: 200, EngineMaterialized: 8000}
	for _, engine := range []Engine{EngineOnTheFly, EngineMaterialized} {
		rows := Table2(PaperSystems(2, 2), Options{MaxStates: budgets[engine], Engine: engine})
		resolved, limited := 0, 0
		for _, row := range rows {
			for _, r := range []Result{row.SS, row.OP} {
				if r.Limit == nil {
					resolved++
					continue
				}
				limited++
				if r.Limit.Kind != guard.KindStates {
					t.Errorf("engine %v: %s %v limited by %v, want states", engine, r.System, r.Prop, r.Limit.Kind)
				}
			}
		}
		if resolved == 0 || limited == 0 {
			t.Errorf("engine %v: resolved %d, limited %d — keep-going needs both", engine, resolved, limited)
		}
	}
}

// TestTable2ResilientCancelled hands the driver an expired deadline:
// every check reports a time limit, none crashes or hangs.
func TestTable2ResilientCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rows := Table2(PaperSystems(2, 2), Options{Engine: EngineOnTheFly, Ctx: ctx})
	for _, row := range rows {
		for _, r := range []Result{row.SS, row.OP} {
			if r.Limit == nil || r.Limit.Kind != guard.KindCancelled {
				t.Errorf("%s %v: limit = %v, want cancelled", r.System, r.Prop, r.Limit)
			}
		}
	}
}

// registerPanicky registers the crashing TM with the public registry
// once per test binary, so a repeated -count run finds it registered.
var registerPanicky = sync.OnceValue(func() error {
	return tm.RegisterAlgorithm("panicky-safety", func(n, k int) tm.Algorithm {
		return panicAfter{Algorithm: tm.NewDSTM(n, k), calls: new(atomic.Int64), after: 50}
	})
})

// TestTable2ResilientIsolatesPanicTM registers a deliberately crashing
// TM through the public registry — the way an extension TM reaches the
// drivers — and checks the keep-going table isolates the panic into
// LimitError{Kind: panic} rows while the healthy systems still resolve.
func TestTable2ResilientIsolatesPanicTM(t *testing.T) {
	if err := registerPanicky(); err != nil {
		t.Fatal(err)
	}
	broken, err := tm.NewAlgorithm("panicky-safety", 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	systems := []System{{Alg: tm.NewSeq(2, 2)}, {Alg: broken}}
	for _, engine := range []Engine{EngineOnTheFly, EngineMaterialized} {
		rows := Table2(systems, Options{Engine: engine})
		if len(rows) != 2 {
			t.Fatalf("engine %v: %d rows, want 2", engine, len(rows))
		}
		for _, r := range []Result{rows[0].SS, rows[0].OP} {
			if r.Limit != nil {
				t.Errorf("engine %v: healthy seq limited: %v", engine, r.Limit)
			}
		}
		for _, r := range []Result{rows[1].SS, rows[1].OP} {
			if r.Limit == nil || r.Limit.Kind != guard.KindPanic {
				t.Fatalf("engine %v: broken TM limit = %v, want isolated panic", engine, r.Limit)
			}
			if r.Limit.Value == nil {
				t.Errorf("engine %v: panic limit lost its value", engine)
			}
		}
	}
}

// pipelineGoroutines returns the stacks of the on-the-fly product's
// stage and helper goroutines (explore.NewLazyWorkers) that are still
// running.
func pipelineGoroutines() string {
	buf := make([]byte, 1<<20)
	var found []string
	for _, g := range strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n") {
		if strings.Contains(g, "explore.(*Lazy).run") || strings.Contains(g, "explore.(*stage).expandChunk") {
			found = append(found, g)
		}
	}
	return strings.Join(found, "\n\n")
}

// checkNoPipeline fails the test when a stage or helper goroutine
// outlived the check. A goroutine that has signalled its exit may
// still be unwinding, so it polls for up to a second.
func checkNoPipeline(t *testing.T, label string) {
	t.Helper()
	for i := 0; ; i++ {
		stacks := pipelineGoroutines()
		if stacks == "" {
			return
		}
		if i == 1000 {
			t.Errorf("%s: the TM stage outlived VerifyOpts:\n%s", label, stacks)
			return
		}
		time.Sleep(time.Millisecond)
	}
}

// TestOnTheFlyPipelineStops runs on-the-fly checks whose TM stage runs
// on its own goroutine — products that pack, with the helper, and
// tm.Opaque ones, without — at 2 and 4 workers down every return path
// of VerifyOpts: a SAFE fixpoint, an UNSAFE early stop, a MaxStates
// trip, a cancelled context and the injected worker panic in the
// helper. No stage or helper goroutine may outlive the check.
func TestOnTheFlyPipelineStops(t *testing.T) {
	polite, err := tm.NewContentionManager("polite")
	if err != nil {
		t.Fatal(err)
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	for _, opaque := range []bool{false, true} {
		wrap := func(alg tm.Algorithm) tm.Algorithm { return alg }
		if opaque {
			wrap = tm.Opaque
		}
		// tl2 ss (2,2) holds and is large enough for the helper to run;
		// a boxed product has no helper, so the smaller dstm op stands
		// in for it there.
		safe, prop := wrap(tm.NewTL2(2, 2)), spec.StrictSerializability
		if opaque {
			safe, prop = wrap(tm.NewDSTM(2, 2)), spec.Opacity
		}
		unsafe := wrap(tm.NewTL2Mod(2, 2))
		cases := []struct {
			path string
			alg  tm.Algorithm
			cm   tm.ContentionManager
			prop spec.Property
			opts Options
			fire bool
		}{
			{"safe", safe, nil, prop, Options{}, false},
			{"unsafe", unsafe, polite, spec.StrictSerializability, Options{}, false},
			{"budget", safe, nil, prop, Options{MaxStates: 5000}, false},
			{"cancelled", safe, nil, prop, Options{Ctx: cancelled}, false},
			{"helper panic", safe, nil, prop, Options{}, true},
		}
		for _, workers := range []int{2, 4} {
			for _, c := range cases {
				label := fmt.Sprintf("%s %s w=%d", explore.System{Alg: c.alg, CM: c.cm}.Name(), c.path, workers)
				if opaque {
					label = "opaque " + label
				}
				if c.fire {
					plan := chaos.Manual()
					plan.Arm(chaos.SiteWorkerPanic, 1)
					chaos.Install(plan)
				}
				opts := c.opts
				opts.Workers, opts.Engine = workers, EngineOnTheFly
				res, err := VerifyOpts(c.alg, c.cm, c.prop, opts)
				if c.fire {
					chaos.Uninstall()
				}
				checkNoPipeline(t, label)
				switch {
				case c.path == "safe" && (err != nil || !res.Holds),
					c.path == "unsafe" && (err != nil || res.Holds),
					c.path == "budget" && !errors.Is(err, guard.ErrStates),
					c.path == "cancelled" && !errors.Is(err, guard.ErrCancelled),
					c.path == "helper panic" && !opaque && !errors.Is(err, guard.ErrPanic),
					c.path == "helper panic" && opaque && (err != nil || !res.Holds):
					t.Errorf("%s: holds %v, err %v", label, res.Holds, err)
				}
			}
		}
	}
}

// TestOnTheFlyHelperPanicIsolated fires the injected worker panic in
// the TM stage's helper of a two-worker on-the-fly check — tl2 ss,
// which holds, so the walk takes every expansion the helper makes: the
// check must stop with an isolated panic carrying the injected error,
// and neither the stage nor its helper may outlive VerifyOpts.
func TestOnTheFlyHelperPanicIsolated(t *testing.T) {
	plan := chaos.Manual()
	plan.Arm(chaos.SiteWorkerPanic, 1)
	chaos.Install(plan)
	_, err := VerifyOpts(tm.NewTL2(2, 2), nil, spec.StrictSerializability, Options{Workers: 2, Engine: EngineOnTheFly})
	chaos.Uninstall()
	checkNoPipeline(t, "tl2 ss w=2")
	var le *guard.LimitError
	if !errors.Is(err, guard.ErrPanic) || !errors.As(err, &le) {
		t.Fatalf("err = %v, want an isolated panic", err)
	}
	if v, ok := le.Value.(error); !ok || !errors.Is(v, chaos.ErrInjected) {
		t.Errorf("panic value %v does not wrap chaos.ErrInjected", le.Value)
	}
}

// TestVerifyOptsCtx threads a cancelled context through the one-shot
// safety entry point: the typed cancellation surfaces via the error,
// in both engines.
func TestVerifyOptsCtx(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, engine := range []Engine{EngineOnTheFly, EngineMaterialized} {
		_, err := VerifyOpts(tm.NewDSTM(2, 2), nil, spec.Opacity, Options{Engine: engine, Ctx: ctx})
		var le *guard.LimitError
		if !errors.As(err, &le) || le.Kind != guard.KindCancelled {
			t.Errorf("engine %v: err = %v, want cancellation limit", engine, err)
		}
	}
}
