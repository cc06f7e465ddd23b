package safety

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"tmcheck/internal/guard"
	"tmcheck/internal/obs"
	"tmcheck/internal/spec"
	"tmcheck/internal/tm"
)

// eqSystems is every registry TM without a manager at (n, k), plus the
// paper's managed system modtl2+polite.
func eqSystems(t *testing.T, n, k int) []System {
	t.Helper()
	var systems []System
	for _, name := range registryAlgorithms {
		alg, err := tm.NewAlgorithm(name, n, k)
		if err != nil {
			t.Fatal(err)
		}
		systems = append(systems, System{Alg: alg})
	}
	systems = append(systems, System{Alg: tm.NewTL2Mod(n, k), CM: tm.Polite{}})
	return systems
}

// TestEngineAgreement checks the tentpole determinism claim: the
// on-the-fly engine agrees with the materialized pipeline on verdict
// AND counterexample word for every registry TM × property, at (2,1)
// and (2,2), sequentially and with four workers.
func TestEngineAgreement(t *testing.T) {
	dims := [][2]int{{2, 1}, {2, 2}}
	if testing.Short() {
		dims = dims[:1]
	}
	for _, d := range dims {
		n, k := d[0], d[1]
		for _, sys := range eqSystems(t, n, k) {
			name := sys.Alg.Name()
			if sys.CM != nil {
				name += "+" + sys.CM.Name()
			}
			for _, prop := range []spec.Property{spec.StrictSerializability, spec.Opacity} {
				mat, err := VerifyOpts(sys.Alg, sys.CM, prop, Options{Workers: 1, Engine: EngineMaterialized})
				if err != nil {
					t.Fatalf("%s (%d,%d) %s materialized: %v", name, n, k, prop.Key(), err)
				}
				for _, workers := range []int{1, 4} {
					otf, err := VerifyOpts(sys.Alg, sys.CM, prop, Options{Workers: workers, Engine: EngineOnTheFly})
					if err != nil {
						t.Fatalf("%s (%d,%d) %s otf w=%d: %v", name, n, k, prop.Key(), workers, err)
					}
					if otf.Holds != mat.Holds {
						t.Errorf("%s (%d,%d) %s w=%d: otf holds=%v, materialized holds=%v",
							name, n, k, prop.Key(), workers, otf.Holds, mat.Holds)
						continue
					}
					if !reflect.DeepEqual(otf.Counterexample, mat.Counterexample) {
						t.Errorf("%s (%d,%d) %s w=%d: counterexamples differ\n otf: %v\n mat: %v",
							name, n, k, prop.Key(), workers, otf.Counterexample, mat.Counterexample)
					}
					if otf.Engine != EngineOnTheFly {
						t.Errorf("%s: otf result reports engine %v", name, otf.Engine)
					}
				}
			}
		}
	}
}

// TestOnTheFlySmoke is the CI -short smoke check: modified TL2 with the
// polite manager must still yield its §5.4 counterexample through the
// on-the-fly engine.
func TestOnTheFlySmoke(t *testing.T) {
	res, err := VerifyOpts(tm.NewTL2Mod(2, 2), tm.Polite{}, spec.StrictSerializability, Options{Engine: EngineOnTheFly})
	if err != nil {
		t.Fatal(err)
	}
	if res.Holds {
		t.Fatal("modtl2+polite reported strictly serializable; want the §5.4 counterexample")
	}
	if len(res.Counterexample) == 0 {
		t.Fatal("violation without a counterexample word")
	}
	if res.SpecStates == 0 || res.TMStates == 0 {
		t.Errorf("missing construction counts: tm=%d spec=%d", res.TMStates, res.SpecStates)
	}
}

// TestBudgetExceeded checks the -maxstates contract on both engines at
// several worker counts: a tiny budget yields a typed *guard.LimitError
// carrying the states-visited count, not a crash or a bogus verdict, and
// a budget trips at the same state count at every worker count.
func TestBudgetExceeded(t *testing.T) {
	for _, engine := range []Engine{EngineOnTheFly, EngineMaterialized} {
		for _, workers := range []int{1, 4} {
			_, err := VerifyOpts(tm.NewDSTM(2, 2), nil, spec.Opacity,
				Options{Workers: workers, MaxStates: 50, Engine: engine})
			label := fmt.Sprintf("%v w=%d", engine, workers)
			if err == nil {
				t.Fatalf("%s: no error under a 50-state budget", label)
			}
			if !errors.Is(err, guard.ErrStates) {
				t.Fatalf("%s: error %v is not guard.ErrStates", label, err)
			}
			var be *guard.LimitError
			if !errors.As(err, &be) {
				t.Fatalf("%s: error %v is not a *guard.LimitError", label, err)
			}
			if be.Budget != 50 || be.Visited <= 50 {
				t.Errorf("%s: budget error reports budget=%d visited=%d", label, be.Budget, be.Visited)
			}
		}
	}

	type limit struct {
		kind            guard.Kind
		budget, visited int
	}
	for _, engine := range []Engine{EngineOnTheFly, EngineMaterialized} {
		limitAt := func(workers int) limit {
			_, err := VerifyOpts(tm.NewDSTM(2, 2), nil, spec.Opacity,
				Options{Workers: workers, MaxStates: 200, Engine: engine})
			var le *guard.LimitError
			if !errors.As(err, &le) {
				t.Fatalf("%v w=%d: err = %v, want *guard.LimitError", engine, workers, err)
			}
			return limit{le.Kind, le.Budget, le.Visited}
		}
		want := limitAt(1)
		if want.kind != guard.KindStates || want.budget != 200 || want.visited <= 200 {
			t.Fatalf("%v w=1: limit %+v, want a states limit past budget 200", engine, want)
		}
		for _, workers := range []int{2, 4} {
			if got := limitAt(workers); got != want {
				t.Errorf("%v w=%d: limit %+v, one worker %+v", engine, workers, got, want)
			}
		}
	}
}

// TestOnTheFlyConstructsFewerSpecStates pins the laziness win through
// the obs vitals: the on-the-fly engine reproduces the Table 2
// verdicts at (2,2), and the spec states it constructs never exceed a
// full spec enumeration — strictly fewer for every paper TM under strict
// serializability, and strictly fewer under opacity except for the
// permissive dstm and tl2, whose most-general-program product provably
// reaches every opacity spec state (asserted as exact saturation so a
// regression in either direction is caught).
func TestOnTheFlyConstructsFewerSpecStates(t *testing.T) {
	reg := obs.Default()
	wasEnabled := reg.Enabled()
	reg.SetEnabled(true)
	reg.Reset()
	defer func() {
		reg.Reset()
		reg.SetEnabled(wasEnabled)
	}()

	full := map[string]int{
		spec.StrictSerializability.Key(): spec.NewDet(spec.StrictSerializability, 2, 2).EnumerateWorkers(runtime.GOMAXPROCS(0)).NumStates(),
		spec.Opacity.Key():               spec.NewDet(spec.Opacity, 2, 2).EnumerateWorkers(runtime.GOMAXPROCS(0)).NumStates(),
	}
	// saturates marks the opacity checks whose product covers the whole
	// specification (permissive TMs emit every statement order).
	saturates := map[string]bool{"dstm": true, "tl2": true}
	wantHolds := []bool{true, true, true, true, false}
	for i, sys := range PaperSystems(2, 2) {
		for _, prop := range []spec.Property{spec.StrictSerializability, spec.Opacity} {
			res, err := VerifyOpts(sys.Alg, sys.CM, prop, Options{Engine: EngineOnTheFly})
			if err != nil {
				t.Fatal(err)
			}
			if res.Holds != wantHolds[i] {
				t.Errorf("%s %s: holds=%v want %v", res.System, prop.Key(), res.Holds, wantHolds[i])
			}
			key := "safety." + res.System + "." + prop.Key() + ".otf.spec_states"
			constructed, ok := reg.Snapshot("").Gauges[key]
			if !ok {
				t.Fatalf("%s: obs gauge %q not recorded", res.System, key)
			}
			if int(constructed) != res.SpecStates {
				t.Errorf("%s %s: gauge says %d spec states, result says %d",
					res.System, prop.Key(), constructed, res.SpecStates)
			}
			if prop == spec.Opacity && saturates[res.System] {
				if int(constructed) != full[prop.Key()] {
					t.Errorf("%s %s: constructed %d spec states, expected saturation at %d",
						res.System, prop.Key(), constructed, full[prop.Key()])
				}
			} else if int(constructed) >= full[prop.Key()] {
				t.Errorf("%s %s: constructed %d spec states, not fewer than the full %d",
					res.System, prop.Key(), constructed, full[prop.Key()])
			}
		}
	}
}

// TestOnTheFlyBudgetHeadroom pins the budget win on a violating TM: a
// -maxstates budget with headroom for the on-the-fly modtl2+polite
// check — which early-exits at the counterexample, never constructing
// the full spec — that the materialized pipeline cannot fit, because it
// must enumerate the whole specification before checking anything.
func TestOnTheFlyBudgetHeadroom(t *testing.T) {
	sys := System{Alg: tm.NewTL2Mod(2, 2), CM: tm.Polite{}}
	prop := spec.StrictSerializability
	// Size the budget from the engines themselves: strictly between the
	// on-the-fly total (pairs + TM + spec constructed at early exit) and
	// the materialized total (TM + full spec + inclusion pairs).
	otf, err := VerifyOpts(sys.Alg, sys.CM, prop, Options{Engine: EngineOnTheFly})
	if err != nil {
		t.Fatal(err)
	}
	mat, err := VerifyOpts(sys.Alg, sys.CM, prop, Options{Workers: 1, Engine: EngineMaterialized})
	if err != nil {
		t.Fatal(err)
	}
	otfTotal := otf.Inclusion.PairsVisited + otf.TMStates + otf.SpecStates
	matTotal := mat.Inclusion.PairsVisited + mat.TMStates + mat.SpecStates
	if otfTotal >= matTotal {
		t.Fatalf("no laziness win: otf total %d, materialized total %d", otfTotal, matTotal)
	}
	budget := otfTotal + (matTotal-otfTotal)/10

	res, err := VerifyOpts(sys.Alg, sys.CM, prop, Options{Workers: 1, MaxStates: budget, Engine: EngineOnTheFly})
	if err != nil {
		t.Fatalf("on-the-fly failed under budget %d: %v", budget, err)
	}
	if res.Holds {
		t.Fatalf("modtl2+polite verdict flipped under budget: %+v", res)
	}
	_, err = VerifyOpts(sys.Alg, sys.CM, prop, Options{Workers: 1, MaxStates: budget, Engine: EngineMaterialized})
	if !errors.Is(err, guard.ErrStates) {
		t.Fatalf("materialized engine fit budget %d; want guard.ErrStates, got %v", budget, err)
	}
}

// TestOnTheFlyBudgetHeadroom23 is the (2,3) version of the headroom
// check: at three variables the full strict-serializability spec has
// ~390k states, so the early-exiting on-the-fly engine completes the
// modtl2+polite check under a budget roughly half of what the
// materialized pipeline needs.
func TestOnTheFlyBudgetHeadroom23(t *testing.T) {
	if testing.Short() {
		t.Skip("(2,3) instance skipped in -short")
	}
	sys := System{Alg: tm.NewTL2Mod(2, 3), CM: tm.Polite{}}
	prop := spec.StrictSerializability
	otf, err := VerifyOpts(sys.Alg, sys.CM, prop, Options{Engine: EngineOnTheFly})
	if err != nil {
		t.Fatal(err)
	}
	if otf.Holds {
		t.Fatal("modtl2+polite unexpectedly strictly serializable at (2,3)")
	}
	budget := otf.Inclusion.PairsVisited + otf.TMStates + otf.SpecStates + 10_000
	res, err := VerifyOpts(sys.Alg, sys.CM, prop, Options{Workers: 1, MaxStates: budget, Engine: EngineOnTheFly})
	if err != nil {
		t.Fatalf("on-the-fly failed under budget %d: %v", budget, err)
	}
	if res.Holds {
		t.Fatal("verdict flipped under budget")
	}
	_, err = VerifyOpts(sys.Alg, sys.CM, prop, Options{Workers: 1, MaxStates: budget, Engine: EngineMaterialized})
	if !errors.Is(err, guard.ErrStates) {
		t.Fatalf("materialized engine fit budget %d; want guard.ErrStates, got %v", budget, err)
	}
}

// TestTable2OnTheFlyWorkerInvariance pins the verify invariant for the
// on-the-fly table driver: every worker count yields bit-identical rows
// — verdicts, counterexamples, AND the reported sizes of the failing
// modtl2+polite row (which is why the parallel driver fans out across
// rows with per-check workers=1 rather than parallelizing inside a
// check, whose early-exit sizes are barrier-dependent).
func TestTable2OnTheFlyWorkerInvariance(t *testing.T) {
	systems := PaperSystems(2, 1)
	seqRows := Table2(systems, Options{Workers: 1, Engine: EngineOnTheFly})
	parRows := Table2(systems, Options{Workers: 4, Engine: EngineOnTheFly})
	if len(parRows) != len(seqRows) {
		t.Fatalf("row count: %d vs %d", len(parRows), len(seqRows))
	}
	for i := range seqRows {
		for _, pr := range []struct {
			name     string
			seq, par Result
		}{
			{"ss", seqRows[i].SS, parRows[i].SS},
			{"op", seqRows[i].OP, parRows[i].OP},
		} {
			if pr.par.Holds != pr.seq.Holds {
				t.Errorf("row %d %s: Holds %v vs %v", i, pr.name, pr.par.Holds, pr.seq.Holds)
			}
			if pr.par.TMStates != pr.seq.TMStates || pr.par.SpecStates != pr.seq.SpecStates {
				t.Errorf("row %d %s: sizes (%d,%d) vs (%d,%d)", i, pr.name,
					pr.par.TMStates, pr.par.SpecStates, pr.seq.TMStates, pr.seq.SpecStates)
			}
			if pr.par.Inclusion.PairsVisited != pr.seq.Inclusion.PairsVisited ||
				pr.par.FrontierPeak != pr.seq.FrontierPeak {
				t.Errorf("row %d %s: search stats differ: pairs %d vs %d, frontier %d vs %d",
					i, pr.name, pr.par.Inclusion.PairsVisited, pr.seq.Inclusion.PairsVisited,
					pr.par.FrontierPeak, pr.seq.FrontierPeak)
			}
			if !reflect.DeepEqual(pr.par.Counterexample, pr.seq.Counterexample) {
				t.Errorf("row %d %s: counterexamples differ", i, pr.name)
			}
		}
	}
}

// TestTable2OnTheFly cross-checks the on-the-fly table driver against
// the materialized one on the paper systems.
func TestTable2OnTheFly(t *testing.T) {
	if testing.Short() {
		t.Skip("full-table comparison skipped in -short")
	}
	matRows := Table2(PaperSystems(2, 2), Options{Engine: EngineMaterialized})
	otfRows := Table2(PaperSystems(2, 2), Options{Engine: EngineOnTheFly})
	for i := range matRows {
		if otfRows[i].SS.Holds != matRows[i].SS.Holds || otfRows[i].OP.Holds != matRows[i].OP.Holds {
			t.Errorf("row %d: verdicts differ: otf (%v,%v) vs materialized (%v,%v)", i,
				otfRows[i].SS.Holds, otfRows[i].OP.Holds, matRows[i].SS.Holds, matRows[i].OP.Holds)
		}
		if !reflect.DeepEqual(otfRows[i].SS.Counterexample, matRows[i].SS.Counterexample) ||
			!reflect.DeepEqual(otfRows[i].OP.Counterexample, matRows[i].OP.Counterexample) {
			t.Errorf("row %d: counterexamples differ", i)
		}
	}
}
