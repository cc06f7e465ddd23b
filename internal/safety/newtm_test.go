package safety

import (
	"runtime"
	"testing"

	"tmcheck/internal/explore"
	"tmcheck/internal/liveness"
	"tmcheck/internal/reduction"
	"tmcheck/internal/spec"
	"tmcheck/internal/tm"
)

// Beyond the paper's four TMs: NOrec (single global sequence lock,
// value-based validation abstracted by modified sets) and encounter-time
// locking (TinySTM-style write-back) both verify opaque at (2,2) — so by
// the reduction theorem (their structural properties sampled below) they
// are opaque for all programs.
func TestNewTMsSafety(t *testing.T) {
	for _, alg := range []tm.Algorithm{tm.NewNOrec(2, 2), tm.NewETL(2, 2)} {
		ts := explore.BuildWorkers(alg, nil, runtime.GOMAXPROCS(0))
		for _, prop := range []spec.Property{spec.StrictSerializability, spec.Opacity} {
			res := Check(ts, prop)
			if !res.Holds {
				t.Errorf("%s: %v fails with cex %q", alg.Name(), prop, res.Counterexample)
			}
		}
		t.Logf("%s: %d states", alg.Name(), ts.NumStates())
	}
}

func TestNewTMsSafetyWithManagers(t *testing.T) {
	for _, cm := range []tm.ContentionManager{tm.Aggressive{}, tm.Polite{}, tm.Karma{}} {
		for _, mk := range []func() tm.Algorithm{
			func() tm.Algorithm { return tm.NewNOrec(2, 2) },
			func() tm.Algorithm { return tm.NewETL(2, 2) },
		} {
			res := verify(t, mk(), cm, spec.Opacity)
			if !res.Holds {
				t.Errorf("%s: opacity fails with cex %q", res.System, res.Counterexample)
			}
		}
	}
}

// Neither NOrec nor ETL is obstruction free, even with the aggressive
// manager: a preempted commit-lock holder (NOrec) or lock holder (ETL)
// blocks a lone reader forever, and reads cannot steal.
func TestNewTMsLiveness(t *testing.T) {
	for _, mk := range []func() tm.Algorithm{
		func() tm.Algorithm { return tm.NewNOrec(2, 1) },
		func() tm.Algorithm { return tm.NewETL(2, 1) },
	} {
		ts := explore.BuildWorkers(mk(), tm.Aggressive{}, runtime.GOMAXPROCS(0))
		if res := liveness.CheckObstructionFreedom(ts); res.Holds {
			t.Errorf("%s: unexpectedly obstruction free", ts.Name())
		}
		if res := liveness.CheckLivelockFreedom(ts); res.Holds {
			t.Errorf("%s: unexpectedly livelock free", ts.Name())
		}
	}
}

// The structural properties P1–P3 hold on samples, so the reduction
// theorem applies to the new TMs as well.
func TestNewTMsStructuralProperties(t *testing.T) {
	for _, alg := range []tm.Algorithm{tm.NewNOrec(2, 2), tm.NewETL(2, 2)} {
		ts := explore.BuildWorkers(alg, nil, runtime.GOMAXPROCS(0))
		s := reduction.NewSampler(ts, 51)
		if v := s.CheckAll(); v != nil {
			t.Errorf("%s: %v", alg.Name(), v)
		}
	}
}
