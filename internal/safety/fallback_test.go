package safety

import (
	"fmt"
	"reflect"
	"testing"

	"tmcheck/internal/spec"
	"tmcheck/internal/tm"
)

// registryAlgorithms is the TM registry as this package's tests find it
// at start-up, before resilient_test.go registers a deliberately broken
// algorithm (which would otherwise leak into repeated -count runs).
var registryAlgorithms = tm.AlgorithmNames()

// TestOnTheFlyFallbackMatchesPacked pins the boxed fallback of the
// on-the-fly engine: a product the packed core rejects — modeled by
// tm.Opaque/tm.OpaqueCM, which strip the typed extension — must give
// the same Result as the packed path (verdict, counterexample, sizes,
// pairs and frontier peak; only Elapsed may differ), for every registry
// TM at (2,2) and modtl2 with every registered manager, at one worker
// and at four.
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
	for _, sys := range systems {
		opaque := []System{{Alg: tm.Opaque(sys.Alg), CM: sys.CM}}
		if sys.CM != nil {
			opaque = append(opaque, System{Alg: sys.Alg, CM: tm.OpaqueCM(sys.CM)})
		}
		for _, prop := range []spec.Property{spec.StrictSerializability, spec.Opacity} {
			for _, workers := range []int{1, 4} {
				label := fmt.Sprintf("%s %s w=%d", systemName(sys.Alg, sys.CM), prop.Key(), workers)
				opts := Options{Workers: workers, Engine: EngineOnTheFly}
				want, err := VerifyOpts(sys.Alg, sys.CM, prop, opts)
				if err != nil {
					t.Fatalf("%s packed: %v", label, err)
				}
				want.Elapsed = 0
				for i, o := range opaque {
					got, err := VerifyOpts(o.Alg, o.CM, prop, opts)
					if err != nil {
						t.Fatalf("%s opaque #%d: %v", label, i, err)
					}
					got.Elapsed = 0
					if !reflect.DeepEqual(got, want) {
						t.Errorf("%s opaque #%d differs from packed:\n boxed  %+v\n packed %+v", label, i, got, want)
					}
				}
			}
		}
	}
}
