package liveness

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"tmcheck/internal/core"
	"tmcheck/internal/explore"
	"tmcheck/internal/guard"
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

// cells flattens a row for assertions.
func cells(row Table3Row) []Result {
	return []Result{row.Obstruction, row.Livelock, row.Wait}
}

// TestTable3ResilientMatchesFailFast checks that without limits the
// keep-going driver resolves every cell, that both engines agree on
// every verdict and loop word, and that the materialized rows report
// the full system size.
func TestTable3ResilientMatchesFailFast(t *testing.T) {
	systems := PaperSystems(2, 1)
	otf := Table3(systems, Options{Engine: explore.EngineOnTheFly})
	mat := Table3(systems, Options{Engine: explore.EngineMaterialized})
	if len(otf) != len(systems) || len(mat) != len(systems) {
		t.Fatalf("%d on-the-fly and %d materialized rows, want %d", len(otf), len(mat), len(systems))
	}
	for i, sys := range systems {
		size := explore.BuildWorkers(sys.Alg, sys.CM, runtime.GOMAXPROCS(0)).NumStates()
		otfCells, matCells := cells(otf[i]), cells(mat[i])
		for j := range otfCells {
			o, m := otfCells[j], matCells[j]
			if o.Limit != nil || m.Limit != nil {
				t.Errorf("%s %v unexpectedly limited: on-the-fly %v, materialized %v", o.System, o.Prop, o.Limit, m.Limit)
			}
			if o.Holds != m.Holds || o.LoopWord() != m.LoopWord() {
				t.Errorf("%s %v: on-the-fly (%v, %q), materialized (%v, %q)",
					o.System, o.Prop, o.Holds, o.LoopWord(), m.Holds, m.LoopWord())
			}
			if m.TMStates != size {
				t.Errorf("%s %v: materialized size %d, built system has %d states", m.System, m.Prop, m.TMStates, size)
			}
		}
	}
}

// TestTable3ResilientKeepsGoing runs the paper systems under a budget
// that stops dstm and tl2: the small systems still resolve, the
// stopped cells carry a typed states limit — and with the on-the-fly
// engine, violations the probes found before the stop keep their full
// Results (partial rows, the heart of keep-going liveness).
func TestTable3ResilientKeepsGoing(t *testing.T) {
	for _, engine := range []explore.Engine{explore.EngineOnTheFly, explore.EngineMaterialized} {
		rows := Table3(PaperSystems(2, 1), Options{MaxStates: 50, Engine: engine})
		if len(rows) != 4 {
			t.Fatalf("engine %v: %d rows, want 4", engine, len(rows))
		}
		resolved, limited := 0, 0
		for _, row := range rows {
			for _, r := range cells(row) {
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
	// The partial-row guarantee is on-the-fly only: dstm+aggressive blows
	// the 50-state budget before obstruction freedom's fixpoint, but its
	// livelock violation is found by an earlier probe and must survive
	// with its loop word.
	rows := Table3(PaperSystems(2, 1), Options{MaxStates: 50, Engine: explore.EngineOnTheFly})
	dstm := rows[2]
	if dstm.Obstruction.Limit == nil {
		t.Fatalf("dstm obstruction = %+v, want limited", dstm.Obstruction)
	}
	if dstm.Livelock.Limit != nil || dstm.Livelock.Holds || dstm.Livelock.LoopWord() == "" {
		t.Errorf("dstm livelock = %+v, want the pre-limit violation kept", dstm.Livelock)
	}
}

// registerPanicky registers the crashing TM with the public registry
// once per test binary, so a repeated -count run finds it registered.
var registerPanicky = sync.OnceValue(func() error {
	return tm.RegisterAlgorithm("panicky-liveness", func(n, k int) tm.Algorithm {
		return panicAfter{Algorithm: tm.NewDSTM(n, k), calls: new(atomic.Int64), after: 20}
	})
})

// TestTable3ResilientIsolatesPanicTM registers a deliberately crashing
// TM through the public registry and checks both engines isolate the
// panic into LimitError{Kind: panic} cells while healthy rows resolve.
func TestTable3ResilientIsolatesPanicTM(t *testing.T) {
	if err := registerPanicky(); err != nil {
		t.Fatal(err)
	}
	broken, err := tm.NewAlgorithm("panicky-liveness", 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	systems := []System{{Alg: tm.NewSeq(2, 1)}, {Alg: broken, CM: tm.Aggressive{}}}
	for _, engine := range []explore.Engine{explore.EngineOnTheFly, explore.EngineMaterialized} {
		rows := Table3(systems, Options{Engine: engine})
		if len(rows) != 2 {
			t.Fatalf("engine %v: %d rows, want 2", engine, len(rows))
		}
		for _, r := range cells(rows[0]) {
			if r.Limit != nil {
				t.Errorf("engine %v: healthy seq limited: %v", engine, r.Limit)
			}
		}
		for _, r := range cells(rows[1]) {
			if r.Limit == nil || r.Limit.Kind != guard.KindPanic {
				t.Fatalf("engine %v: broken TM limit = %v, want isolated panic", engine, r.Limit)
			}
			if r.Limit.Value == nil || len(r.Limit.Stack) == 0 {
				t.Errorf("engine %v: panic limit lost value or stack", engine)
			}
		}
	}
}

// TestCheckOnTheFlyOptsCtx threads a cancelled context through the
// one-shot liveness entry point: the typed cancellation surfaces.
func TestCheckOnTheFlyOptsCtx(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := CheckOnTheFlyOpts(tm.NewDSTM(2, 1), tm.Aggressive{}, LivelockFreedom, Options{Ctx: ctx})
	var le *guard.LimitError
	if !errors.As(err, &le) || le.Kind != guard.KindCancelled {
		t.Fatalf("err = %v, want cancellation limit", err)
	}
	if res.Limit == nil || res.Limit.Kind != guard.KindCancelled {
		t.Errorf("partial result limit = %v, want cancelled", res.Limit)
	}
}
