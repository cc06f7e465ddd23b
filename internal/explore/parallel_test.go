// Worker-count cross-check: a build at four workers must reproduce the
// one-worker build bit for bit — state numbering, edge lists, and every
// downstream safety verdict and counterexample — on every TM in the
// registry, since the exploration is one sequential scan whatever the
// count. It lives in an external test package so it can drive the
// safety checker without an import cycle.
package explore_test

import (
	"fmt"
	"reflect"
	"testing"

	"tmcheck/internal/explore"
	"tmcheck/internal/safety"
	"tmcheck/internal/spec"
	"tmcheck/internal/tm"
)

// eqDims are the instance sizes the reduction theorems of §4 rely on.
var eqDims = []struct{ n, k int }{{2, 1}, {2, 2}}

// eqSystems returns every registry TM without a manager at (n, k), plus
// the paper's modified-TL2-with-polite-manager product system.
func eqSystems(t *testing.T, n, k int) []safety.System {
	var systems []safety.System
	for _, name := range tm.AlgorithmNames() {
		alg, err := tm.NewAlgorithm(name, n, k)
		if err != nil {
			t.Fatalf("NewAlgorithm(%q): %v", name, err)
		}
		systems = append(systems, safety.System{Alg: alg})
	}
	modtl2, err := tm.NewAlgorithm("modtl2", n, k)
	if err != nil {
		t.Fatalf("NewAlgorithm(modtl2): %v", err)
	}
	systems = append(systems, safety.System{Alg: modtl2, CM: tm.Polite{}})
	return systems
}

func TestEngineEquivalence(t *testing.T) {
	for _, d := range eqDims {
		for _, sys := range eqSystems(t, d.n, d.k) {
			name := sys.Alg.Name()
			if sys.CM != nil {
				name += "+" + sys.CM.Name()
			}
			t.Run(fmt.Sprintf("%s-n%dk%d", name, d.n, d.k), func(t *testing.T) {
				seq := explore.BuildWorkers(sys.Alg, sys.CM, 1)
				par := explore.BuildWorkers(sys.Alg, sys.CM, 4)

				if par.NumStates() != seq.NumStates() {
					t.Fatalf("workers=4: %d states, one worker %d",
						par.NumStates(), seq.NumStates())
				}
				for i := int32(0); int(i) < seq.NumStates(); i++ {
					if !reflect.DeepEqual(par.StateAt(i), seq.StateAt(i)) {
						t.Fatalf("workers=4: state %d diverges", i)
					}
				}
				if !reflect.DeepEqual(par.Out, seq.Out) {
					t.Fatal("workers=4: edge lists diverge")
				}

				for _, prop := range []spec.Property{spec.StrictSerializability, spec.Opacity} {
					rs := safety.Check(seq, prop)
					rp := safety.Check(par, prop)
					if rs.Holds != rp.Holds {
						t.Fatalf("%s: verdicts diverge: one worker %v, four %v",
							prop.Key(), rs.Holds, rp.Holds)
					}
					if !reflect.DeepEqual(rs.Counterexample, rp.Counterexample) {
						t.Fatalf("%s: counterexamples diverge:\n  one worker:   %v\n  four workers: %v",
							prop.Key(), rs.Counterexample, rp.Counterexample)
					}
				}
			})
		}
	}
}
