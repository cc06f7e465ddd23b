package liveness

import (
	"errors"
	"reflect"
	"testing"

	"tmcheck/internal/explore"
	"tmcheck/internal/guard"
	"tmcheck/internal/space"
)

// TestLivenessEngineAgreement is the cross-engine contract of the
// on-the-fly engine: for every paper system and property, verdicts,
// lasso words, and even the raw stem/loop edge sequences must be
// bit-identical to the materialized checks.
func TestLivenessEngineAgreement(t *testing.T) {
	for _, sys := range PaperSystems(2, 1) {
		ts := explore.BuildWorkers(sys.Alg, sys.CM, 1)
		name := ts.Name()
		for _, p := range Props {
			mat := checkTS(ts, p)
			res, err := checkLazy(sys.Alg, sys.CM, []Prop{p}, nil, false)
			if err != nil {
				t.Fatalf("%s %s: %v", name, p.Key(), err)
			}
			otf := res[0]
			if otf.Holds != mat.Holds {
				t.Errorf("%s %s: holds = %v, materialized %v", name, p.Key(), otf.Holds, mat.Holds)
			}
			if otf.LoopWord() != mat.LoopWord() {
				t.Errorf("%s %s: loop %q, materialized %q", name, p.Key(), otf.LoopWord(), mat.LoopWord())
			}
			if !reflect.DeepEqual(otf.Stem, mat.Stem) || !reflect.DeepEqual(otf.Loop, mat.Loop) {
				t.Errorf("%s %s: stem/loop edges differ from materialized", name, p.Key())
			}
			if otf.Expanded != mat.Expanded {
				t.Errorf("%s %s: expanded = %d, materialized %d", name, p.Key(), otf.Expanded, mat.Expanded)
			}
			if otf.Engine != space.EngineOnTheFly || mat.Engine != space.EngineMaterialized {
				t.Errorf("%s %s: engines mislabeled (%v, %v)", name, p.Key(), otf.Engine, mat.Engine)
			}
		}
	}
}

// TestCheckAllOnTheFlySharesExploration checks that the shared-scan
// driver resolves each property exactly as three independent checks do.
func TestCheckAllOnTheFlySharesExploration(t *testing.T) {
	for _, sys := range PaperSystems(2, 1) {
		row, err := CheckAllOnTheFlyOpts(sys.Alg, sys.CM, Options{})
		if err != nil {
			t.Fatal(err)
		}
		for _, pair := range []struct {
			got  Result
			prop Prop
		}{
			{row.Obstruction, ObstructionFreedom},
			{row.Livelock, LivelockFreedom},
			{row.Wait, WaitFreedom},
		} {
			single, err := CheckOnTheFlyOpts(sys.Alg, sys.CM, pair.prop, Options{Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			if pair.got.Holds != single.Holds || pair.got.LoopWord() != single.LoopWord() {
				t.Errorf("%s %s: shared scan (%v, %q) differs from single check (%v, %q)",
					single.System, pair.prop.Key(),
					pair.got.Holds, pair.got.LoopWord(), single.Holds, single.LoopWord())
			}
			if pair.got.Expanded != single.Expanded {
				t.Errorf("%s %s: shared scan expanded %d, single %d",
					single.System, pair.prop.Key(), pair.got.Expanded, single.Expanded)
			}
		}
	}
}

// TestLivenessBudgetBothEngines drives both engines into a tiny state
// budget: the typed *space.BudgetError must surface through errors.Is
// before any probe can run (budget is checked ahead of the barrier
// hook). A larger budget must then trip at the same state count at
// every worker count.
func TestLivenessBudgetBothEngines(t *testing.T) {
	sys := PaperSystems(2, 1)[2] // dstm+aggressive
	if _, err := checkLazy(sys.Alg, sys.CM, Props, guard.New(nil, 2, 0), false); !errors.Is(err, space.ErrBudgetExceeded) {
		t.Errorf("onthefly: err = %v, want budget error", err)
	}
	if _, err := explore.BuildGuarded(sys.Alg, sys.CM, guard.New(nil, 2, 0), nil); !errors.Is(err, space.ErrBudgetExceeded) {
		t.Errorf("materialized: err = %v, want budget error", err)
	}
	var be *space.BudgetError
	_, err := CheckOnTheFlyOpts(sys.Alg, sys.CM, LivelockFreedom, Options{Workers: 1, MaxStates: 2})
	if !errors.As(err, &be) {
		t.Fatalf("err = %v, want *space.BudgetError", err)
	}
	if be.Budget != 2 || be.Visited <= 2 {
		t.Errorf("budget error = %+v, want Budget 2 and Visited > 2", be)
	}

	type limit struct {
		kind            guard.Kind
		budget, visited int
	}
	limitAt := func(workers int) limit {
		_, err := CheckAllOnTheFlyOpts(sys.Alg, sys.CM, Options{Workers: workers, MaxStates: 100})
		var le *guard.LimitError
		if !errors.As(err, &le) {
			t.Fatalf("workers=%d: err = %v, want *guard.LimitError", workers, err)
		}
		return limit{le.Kind, le.Budget, le.Visited}
	}
	want := limitAt(1)
	if want.kind != guard.KindStates || want.budget != 100 || want.visited <= 100 {
		t.Fatalf("workers=1: limit = %+v, want a states limit past budget 100", want)
	}
	for _, workers := range []int{2, 4} {
		if got := limitAt(workers); got != want {
			t.Errorf("workers=%d: limit %+v, one worker %+v", workers, got, want)
		}
	}
}

// TestTable3EnginesAgree compares full Table 3 rows across the two
// engines of the unbudgeted driver.
func TestTable3EnginesAgree(t *testing.T) {
	systems := PaperSystems(2, 1)
	otf := Table3(systems, Options{Engine: space.EngineOnTheFly})
	mat := Table3(systems, Options{Engine: space.EngineMaterialized})
	if len(otf) != len(mat) {
		t.Fatalf("row counts differ: %d vs %d", len(otf), len(mat))
	}
	for i := range otf {
		for _, pair := range []struct {
			name     string
			got, ref Result
		}{
			{"obstruction", otf[i].Obstruction, mat[i].Obstruction},
			{"livelock", otf[i].Livelock, mat[i].Livelock},
			{"wait", otf[i].Wait, mat[i].Wait},
		} {
			if pair.got.Holds != pair.ref.Holds || pair.got.LoopWord() != pair.ref.LoopWord() {
				t.Errorf("%s %s: onthefly (%v, %q) vs materialized (%v, %q)",
					pair.ref.System, pair.name,
					pair.got.Holds, pair.got.LoopWord(), pair.ref.Holds, pair.ref.LoopWord())
			}
		}
	}
}

// TestProbeSchedule pins the geometric schedule both engines share.
func TestProbeSchedule(t *testing.T) {
	if !probeDue(1, 0) {
		t.Error("first barrier must probe")
	}
	if probeDue(3, 2) {
		t.Error("3 states since probe at 2: not due yet")
	}
	if !probeDue(4, 2) {
		t.Error("doubling since the last probe is due")
	}
}
