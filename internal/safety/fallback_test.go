package safety

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"tmcheck/internal/guard"
	"tmcheck/internal/spec"
	"tmcheck/internal/tm"
)

// registryAlgorithms is the TM registry as this package's tests find it
// at start-up, before resilient_test.go registers a deliberately broken
// algorithm (which would otherwise leak into repeated -count runs).
var registryAlgorithms = tm.AlgorithmNames()

// TestOnTheFlyFallbackMatchesPacked pins the boxed core of the
// on-the-fly engine and its worker-count invariance: a product the
// packed core rejects — modeled by tm.Opaque/tm.OpaqueCM, which strip
// the typed extension — must give the same Result as the packed path
// (verdict, counterexample, sizes, pairs and frontier peak; only
// Elapsed may differ), and either path at four workers the same as the
// packed path at one, for every registry TM at (2,2) and modtl2 with
// every registered manager. A budgeted modtl2+polite check must also
// stop with the same state-limit error at one, two and four workers.
func TestOnTheFlyFallbackMatchesPacked(t *testing.T) {
	var systems []System
	for _, name := range registryAlgorithms {
		alg, err := tm.NewAlgorithm(name, 2, 2)
		if err != nil {
			t.Fatal(err)
		}
		systems = append(systems, System{Alg: alg})
	}
	for _, name := range tm.ManagerNames() {
		cm, err := tm.NewContentionManager(name)
		if err != nil {
			t.Fatal(err)
		}
		systems = append(systems, System{Alg: tm.NewTL2Mod(2, 2), CM: cm})
	}
	// variants lists the system's packed form first, then its boxed ones.
	variants := func(sys System) []System {
		vs := []System{sys, {Alg: tm.Opaque(sys.Alg), CM: sys.CM}}
		if sys.CM != nil {
			vs = append(vs, System{Alg: sys.Alg, CM: tm.OpaqueCM(sys.CM)})
		}
		return vs
	}
	for _, sys := range systems {
		for _, prop := range []spec.Property{spec.StrictSerializability, spec.Opacity} {
			var want Result
			for i, v := range variants(sys) {
				for _, workers := range []int{1, 4} {
					label := fmt.Sprintf("%s %s variant #%d w=%d", sys.Name(), prop.Key(), i, workers)
					got, err := VerifyOpts(v.Alg, v.CM, prop, Options{Workers: workers, Engine: EngineOnTheFly})
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					got.Elapsed = 0
					if i == 0 && workers == 1 {
						want = got
					} else if !reflect.DeepEqual(got, want) {
						t.Errorf("%s differs from packed w=1:\n got  %+v\n want %+v", label, got, want)
					}
				}
			}
		}
	}

	// modtl2+polite ss constructs 29,901 states at (2,2).
	const budget = 20000
	var want *guard.LimitError
	for i, v := range variants(System{Alg: tm.NewTL2Mod(2, 2), CM: tm.Polite{}}) {
		for _, workers := range []int{1, 2, 4} {
			label := fmt.Sprintf("modtl2+polite ss -maxstates %d variant #%d w=%d", budget, i, workers)
			_, err := VerifyOpts(v.Alg, v.CM, spec.StrictSerializability,
				Options{Workers: workers, MaxStates: budget, Engine: EngineOnTheFly})
			var le *guard.LimitError
			if !errors.As(err, &le) || le.Kind != guard.KindStates {
				t.Fatalf("%s: err = %v, want a state limit", label, err)
			}
			got := &guard.LimitError{Kind: le.Kind, Budget: le.Budget, Visited: le.Visited}
			if want == nil {
				want = got
			} else if !reflect.DeepEqual(got, want) {
				t.Errorf("%s: stopped at %+v, want %+v as at packed w=1", label, *got, *want)
			}
		}
	}
}
