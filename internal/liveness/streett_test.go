package liveness

import (
	"runtime"
	"testing"

	"tmcheck/internal/explore"
	"tmcheck/internal/tm"
)

// The general Streett engine and the bespoke loop searches must agree on
// every system we can build.
func TestStreettBackendAgreesWithLoopSearch(t *testing.T) {
	var systems []System
	for _, name := range []string{"seq", "2pl", "dstm", "tl2", "norec", "etl"} {
		for _, cmName := range []string{"", "aggressive", "polite", "karma", "timid"} {
			alg, err := tm.NewAlgorithm(name, 2, 1)
			if err != nil {
				t.Fatal(err)
			}
			cm, err := tm.NewContentionManager(cmName)
			if err != nil {
				t.Fatal(err)
			}
			systems = append(systems, System{Alg: alg, CM: cm})
		}
	}
	for _, sys := range systems {
		ts := explore.BuildWorkers(sys.Alg, sys.CM, runtime.GOMAXPROCS(0))
		loopOF := CheckObstructionFreedom(ts)
		strOF := CheckObstructionFreedomStreett(ts)
		if loopOF.Holds != strOF.Holds {
			t.Errorf("%s: obstruction freedom loop=%v streett=%v",
				ts.Name(), loopOF.Holds, strOF.Holds)
		}
		loopLF := CheckLivelockFreedom(ts)
		strLF := CheckLivelockFreedomStreett(ts)
		if loopLF.Holds != strLF.Holds {
			t.Errorf("%s: livelock freedom loop=%v streett=%v",
				ts.Name(), loopLF.Holds, strLF.Holds)
		}
		// Witnesses from the Streett engine must have the right shape.
		if !strOF.Holds {
			validateObstructionLoop(t, ts.Name(), strOF)
		}
		if !strLF.Holds {
			validateLivelockLoop(t, ts.Name(), strLF)
		}
	}
}

func validateObstructionLoop(t *testing.T, name string, res Result) {
	t.Helper()
	if len(res.Loop) == 0 {
		t.Errorf("%s: empty obstruction loop", name)
		return
	}
	th := res.Loop[0].T
	hasAbort := false
	for _, e := range res.Loop {
		if e.T != th {
			t.Errorf("%s: obstruction loop mixes threads: %q", name, explore.FormatRun(res.Loop))
			return
		}
		if e.X.Kind == tm.XCommit {
			t.Errorf("%s: obstruction loop has a commit", name)
		}
		if e.X.Kind == tm.XAbort {
			hasAbort = true
		}
	}
	if !hasAbort {
		t.Errorf("%s: obstruction loop lacks an abort", name)
	}
}

func validateLivelockLoop(t *testing.T, name string, res Result) {
	t.Helper()
	if len(res.Loop) == 0 {
		t.Errorf("%s: empty livelock loop", name)
		return
	}
	stmts := map[int]bool{}
	aborts := map[int]bool{}
	for _, e := range res.Loop {
		if e.X.Kind == tm.XCommit {
			t.Errorf("%s: livelock loop has a commit", name)
		}
		stmts[int(e.T)] = true
		if e.X.Kind == tm.XAbort {
			aborts[int(e.T)] = true
		}
	}
	for th := range stmts {
		if !aborts[th] {
			t.Errorf("%s: thread %d participates without aborting: %q",
				name, th+1, explore.FormatRun(res.Loop))
		}
	}
}

// Agreement must also hold at (2,2) and (3,1), where the graphs are larger
// and the subset-enumeration shortcut of the loop search differs most from
// the polynomial Streett decomposition.
func TestStreettBackendLargerInstances(t *testing.T) {
	for _, dims := range [][2]int{{2, 2}, {3, 1}} {
		for _, sys := range PaperSystems(dims[0], dims[1]) {
			ts := explore.BuildWorkers(sys.Alg, sys.CM, runtime.GOMAXPROCS(0))
			if a, b := CheckObstructionFreedom(ts), CheckObstructionFreedomStreett(ts); a.Holds != b.Holds {
				t.Errorf("%s at %v: obstruction loop=%v streett=%v", ts.Name(), dims, a.Holds, b.Holds)
			}
			if a, b := CheckLivelockFreedom(ts), CheckLivelockFreedomStreett(ts); a.Holds != b.Holds {
				t.Errorf("%s at %v: livelock loop=%v streett=%v", ts.Name(), dims, a.Holds, b.Holds)
			}
		}
	}
}
