package safety

import (
	"math/rand"
	"runtime"
	"testing"

	"tmcheck/internal/core"
	"tmcheck/internal/explore"
	"tmcheck/internal/spec"
	"tmcheck/internal/tm"
)

// verify runs the materialized check at GOMAXPROCS workers without
// limits, failing the test on an error.
func verify(t testing.TB, alg tm.Algorithm, cm tm.ContentionManager, prop spec.Property) Result {
	t.Helper()
	res, err := VerifyOpts(alg, cm, prop, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestTheorem4 reproduces the paper's Theorem 4 via Table 2: the
// sequential TM, 2PL, DSTM and TL2 ensure (2,2) opacity (hence, by the
// reduction theorem, opacity), while modified TL2 with the polite manager
// is not even strictly serializable.
func TestTheorem4Table2(t *testing.T) {
	rows := Table2(PaperSystems(2, 2), Options{Engine: EngineMaterialized})
	wantHolds := []bool{true, true, true, true, false}
	names := []string{"seq", "2pl", "dstm", "tl2", "modtl2+polite"}
	for i, row := range rows {
		if row.SS.System != names[i] {
			t.Errorf("row %d system = %q, want %q", i, row.SS.System, names[i])
		}
		if row.SS.Holds != wantHolds[i] {
			t.Errorf("%s: πss holds = %v, want %v (cex %q)",
				names[i], row.SS.Holds, wantHolds[i], row.SS.Counterexample)
		}
		if row.OP.Holds != wantHolds[i] {
			t.Errorf("%s: πop holds = %v, want %v (cex %q)",
				names[i], row.OP.Holds, wantHolds[i], row.OP.Counterexample)
		}
		if row.SS.TMStates != row.OP.TMStates {
			t.Errorf("%s: inconsistent TM sizes %d vs %d", names[i], row.SS.TMStates, row.OP.TMStates)
		}
		t.Logf("%-14s size=%-6d ss=%v op=%v (ss %v, op %v)",
			names[i], row.SS.TMStates, row.SS.Holds, row.OP.Holds, row.SS.Elapsed, row.OP.Elapsed)
	}
}

// The modified-TL2 counterexample must be a genuine TM word that the
// oracle rejects, with the cross read-write shape of the paper's w1.
func TestModTL2CounterexampleIsGenuine(t *testing.T) {
	ts := explore.BuildWorkers(tm.NewTL2Mod(2, 2), tm.Polite{}, runtime.GOMAXPROCS(0))
	res := Check(ts, spec.StrictSerializability)
	if res.Holds {
		t.Fatal("modified TL2 with polite manager must violate strict serializability")
	}
	cex := res.Counterexample
	if len(cex) == 0 {
		t.Fatal("missing counterexample")
	}
	if !ts.InLanguage(cex) {
		t.Errorf("counterexample %q not in the TM's language", cex)
	}
	if core.IsStrictlySerializable(cex) {
		t.Errorf("counterexample %q is strictly serializable", cex)
	}
	// The paper's w1 has six statements: two writes, two reads, two
	// commits, with both transactions committing.
	if len(cex) != 6 {
		t.Errorf("counterexample has %d statements, want 6 as in the paper", len(cex))
	}
}

// The unmodified TL2 must accept the very interleaving that breaks the
// modified variant — the counterexample word is not in TL2's language.
func TestTL2RejectsTheBrokenInterleaving(t *testing.T) {
	modTS := explore.BuildWorkers(tm.NewTL2Mod(2, 2), tm.Polite{}, runtime.GOMAXPROCS(0))
	res := Check(modTS, spec.StrictSerializability)
	if res.Holds {
		t.Fatal("expected a counterexample")
	}
	tl2TS := explore.BuildWorkers(tm.NewTL2(2, 2), tm.Polite{}, runtime.GOMAXPROCS(0))
	if tl2TS.InLanguage(res.Counterexample) {
		t.Errorf("TL2 proper must not produce the unsafe word %q", res.Counterexample)
	}
}

// Safety is independent of the contention manager: a manager only
// restricts the TM's language (L(A_cm) ⊆ L(A)), so DSTM and TL2 stay safe
// under every manager we have.
func TestSafetyWithContentionManagers(t *testing.T) {
	for _, cm := range []tm.ContentionManager{tm.Aggressive{}, tm.Polite{}, tm.Timid{}, tm.Karma{}} {
		for _, alg := range []tm.Algorithm{tm.NewDSTM(2, 2), tm.NewTL2(2, 2)} {
			res := verify(t, alg, cm, spec.Opacity)
			if !res.Holds {
				t.Errorf("%s+%s: opacity fails with cex %q", alg.Name(), cm.Name(), res.Counterexample)
			}
		}
	}
}

// CM languages are included in the unmanaged language on sampled runs: the
// product construction only restricts behaviour.
func TestCMRestrictsLanguage(t *testing.T) {
	base := explore.BuildWorkers(tm.NewDSTM(2, 2), nil, runtime.GOMAXPROCS(0)).NFA()
	rng := rand.New(rand.NewSource(77))
	for _, cm := range []tm.ContentionManager{tm.Aggressive{}, tm.Polite{}, tm.Timid{}} {
		managed := explore.BuildWorkers(tm.NewDSTM(2, 2), cm, runtime.GOMAXPROCS(0))
		if managed.NumStates() == 0 {
			t.Fatalf("%s: empty system", cm.Name())
		}
		for i := 0; i < 200; i++ {
			w := randomWalkWord(rng, managed, 12)
			if !base.Accepts(managed.Alphabet.EncodeWord(w)) {
				t.Fatalf("%s: word %q not in unmanaged language", cm.Name(), w)
			}
		}
	}
}

// randomWalkWord walks the transition system randomly and returns the word
// it emits (at most maxEmit letters).
func randomWalkWord(rng *rand.Rand, ts *explore.TS, maxEmit int) core.Word {
	var w core.Word
	cur := int32(0)
	for steps := 0; steps < 4*maxEmit && len(w) < maxEmit; steps++ {
		es := ts.Out[cur]
		if len(es) == 0 {
			break
		}
		e := es[rng.Intn(len(es))]
		if e.Emit >= 0 {
			w = append(w, ts.Alphabet.Decode(int(e.Emit)))
		}
		cur = e.To
	}
	return w
}

// The nondeterministic (antichain) validation path must agree with the
// deterministic pipeline on every paper system.
func TestAntichainPathAgrees(t *testing.T) {
	for _, sys := range PaperSystems(2, 2) {
		ts := explore.BuildWorkers(sys.Alg, sys.CM, runtime.GOMAXPROCS(0))
		for _, prop := range []spec.Property{spec.StrictSerializability, spec.Opacity} {
			det := Check(ts, prop)
			nd := CheckAgainstNondet(ts, prop)
			if det.Holds != nd.Holds {
				t.Errorf("%s %v: det=%v antichain=%v", ts.Name(), prop, det.Holds, nd.Holds)
			}
		}
	}
}

// A deliberately broken TM — 2PL without read locks — must fail opacity
// with a genuine counterexample, exercising counterexample generation on a
// fresh (non-paper) system.
func TestBuggyTMProducesCounterexample(t *testing.T) {
	res := verify(t, tm.NewTwoPLNoReadLock(2, 2), nil, spec.StrictSerializability)
	if res.Holds {
		t.Fatal("2PL without read locks should not be strictly serializable")
	}
	if core.IsStrictlySerializable(res.Counterexample) {
		t.Errorf("counterexample %q is actually serializable", res.Counterexample)
	}
}

// VerifyOpts on a (2,1) instance: with a single variable, all four paper TMs
// are trivially safe as well.
func TestSafetySingleVariable(t *testing.T) {
	for _, sys := range PaperSystems(2, 1) {
		if sys.Alg.Name() == "modtl2" {
			continue // needs two variables to go wrong
		}
		res := verify(t, sys.Alg, sys.CM, spec.Opacity)
		if !res.Holds {
			t.Errorf("%s at (2,1): opacity fails with cex %q", res.System, res.Counterexample)
		}
	}
}
