package liveness

import (
	"reflect"
	"testing"

	"tmcheck/internal/space"
)

// TestTable3ParallelMatchesSequential checks the materialized Table 3
// rows — verdicts, sizes and counterexample lassos — with the rows
// fanned out over four workers against one worker.
func TestTable3ParallelMatchesSequential(t *testing.T) {
	systems := PaperSystems(2, 1)
	seq := Table3(systems, Options{Workers: 1, Engine: space.EngineMaterialized})
	par := Table3(systems, Options{Workers: 4, Engine: space.EngineMaterialized})
	if len(par) != len(seq) {
		t.Fatalf("row count: parallel %d, sequential %d", len(par), len(seq))
	}
	for i := range seq {
		for _, c := range []struct {
			name     string
			seq, par Result
		}{
			{"obstruction", seq[i].Obstruction, par[i].Obstruction},
			{"livelock", seq[i].Livelock, par[i].Livelock},
			{"wait", seq[i].Wait, par[i].Wait},
		} {
			if c.par.Holds != c.seq.Holds || c.par.TMStates != c.seq.TMStates {
				t.Errorf("row %d %s: parallel (%v,%d) != sequential (%v,%d)",
					i, c.name, c.par.Holds, c.par.TMStates,
					c.seq.Holds, c.seq.TMStates)
			}
			if !reflect.DeepEqual(c.par.Loop, c.seq.Loop) ||
				!reflect.DeepEqual(c.par.Stem, c.seq.Stem) {
				t.Errorf("row %d %s: counterexample lassos diverge", i, c.name)
			}
		}
	}
}
