package safety

import (
	"reflect"
	"testing"
)

// TestTable2ParallelMatchesSequential checks the materialized Table 2
// rows — verdicts, sizes, and counterexamples — at four workers against
// one worker.
func TestTable2ParallelMatchesSequential(t *testing.T) {
	systems := PaperSystems(2, 1)
	seq := Table2(systems, Options{Workers: 1, Engine: EngineMaterialized})
	par := Table2(systems, Options{Workers: 4, Engine: EngineMaterialized})
	if len(par) != len(seq) {
		t.Fatalf("row count: parallel %d, sequential %d", len(par), len(seq))
	}
	for i := range seq {
		for _, c := range []struct {
			name     string
			seq, par Result
		}{
			{"ss", seq[i].SS, par[i].SS},
			{"op", seq[i].OP, par[i].OP},
		} {
			if c.par.Holds != c.seq.Holds || c.par.TMStates != c.seq.TMStates ||
				c.par.SpecStates != c.seq.SpecStates {
				t.Errorf("row %d %s: parallel (%v,%d,%d) != sequential (%v,%d,%d)",
					i, c.name, c.par.Holds, c.par.TMStates, c.par.SpecStates,
					c.seq.Holds, c.seq.TMStates, c.seq.SpecStates)
			}
			if !reflect.DeepEqual(c.par.Counterexample, c.seq.Counterexample) {
				t.Errorf("row %d %s: counterexamples diverge:\n  sequential: %v\n  parallel:   %v",
					i, c.name, c.seq.Counterexample, c.par.Counterexample)
			}
		}
	}
}

// TestTable2DispatchesOnWorkerCount checks that a multi-worker
// Options.Workers — the on-the-fly rows' fan-out, nothing for the
// materialized ones — still returns the one-worker verdicts in both
// engines.
func TestTable2DispatchesOnWorkerCount(t *testing.T) {
	systems := PaperSystems(2, 1)
	for _, engine := range []Engine{EngineOnTheFly, EngineMaterialized} {
		seq := Table2(systems, Options{Workers: 1, Engine: engine})
		par := Table2(systems, Options{Workers: 3, Engine: engine})
		for i := range seq {
			if par[i].SS.Holds != seq[i].SS.Holds || par[i].OP.Holds != seq[i].OP.Holds {
				t.Fatalf("engine %v row %d: verdicts diverge between worker counts", engine, i)
			}
		}
	}
}
