package safety

import (
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"tmcheck/internal/core"
	"tmcheck/internal/explore"
	"tmcheck/internal/spec"
	"tmcheck/internal/tm"
)

// The reduction theorem says (2,2) verdicts extend to every instance;
// these tests check the premise from the other side on instances the
// checker can still handle directly. They are skipped in -short mode (the
// DSTM (2,3) instance takes a few seconds).
func TestSafetyLargerInstances(t *testing.T) {
	if testing.Short() {
		t.Skip("larger instances are slow")
	}
	type inst struct {
		alg tm.Algorithm
	}
	cases := []inst{
		{tm.NewSeq(3, 2)},
		{tm.NewSeq(2, 3)},
		{tm.NewTwoPL(3, 2)},
		{tm.NewTwoPL(2, 3)},
		{tm.NewDSTM(2, 3)},
	}
	for _, c := range cases {
		res := verify(t, c.alg, nil, spec.Opacity)
		if !res.Holds {
			t.Errorf("%s at (%d,%d): opacity fails with cex %q",
				res.System, res.Threads, res.Vars, res.Counterexample)
		}
		t.Logf("%s at (%d,%d): %d TM states vs %d spec states, inclusion in %v",
			res.System, res.Threads, res.Vars, res.TMStates, res.SpecStates, res.Elapsed)
	}
}

// Modified TL2 stays broken on larger instances too. Its (2,3) product
// of 867,340 TM states and 389,618 Σd states is far past 2^28 pair
// slots, so the two engines are pinned together on a large walk: the
// same counterexample and the same 223,110 pairs.
func TestModTL2BrokenAtLargerInstance(t *testing.T) {
	if testing.Short() {
		t.Skip("larger instances are slow")
	}
	res := verify(t, tm.NewTL2Mod(2, 3), tm.Polite{}, spec.StrictSerializability)
	if res.Holds {
		t.Error("modified TL2 should stay broken at (2,3)")
	}
	if core.IsStrictlySerializable(res.Counterexample) {
		t.Errorf("counterexample %q is serializable", res.Counterexample)
	}
	otf, err := VerifyOpts(tm.NewTL2Mod(2, 3), tm.Polite{}, spec.StrictSerializability, Options{Engine: EngineOnTheFly})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(otf.Counterexample, res.Counterexample) {
		t.Errorf("on-the-fly counterexample %q, materialized %q", otf.Counterexample, res.Counterexample)
	}
	if otf.Inclusion.PairsVisited != 223110 || res.Inclusion.PairsVisited != 223110 {
		t.Errorf("pairs: on-the-fly %d, materialized %d, want 223110",
			otf.Inclusion.PairsVisited, res.Inclusion.PairsVisited)
	}
}

// 2PL's language is safe under direct-update semantics as well: its locks
// order every conflicting pair of accesses, so the statement-level
// conflict relation is already acyclic. Sampled over random walks.
func TestTwoPLDirectUpdateSafe(t *testing.T) {
	ts := explore.BuildWorkers(tm.NewTwoPL(2, 2), nil, runtime.GOMAXPROCS(0))
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < 300; i++ {
		w := randomWalkWord(rng, ts, 14)
		if !core.IsOpaqueUnder(w, core.DirectUpdate) {
			t.Fatalf("2PL word not direct-update opaque: %q", w)
		}
	}
}

// DSTM and TL2 buffer writes, so their words need not be direct-update
// safe — and indeed are not: a reader may commit before a writer whose
// write statement preceded the read. Find one witness to show the
// semantics genuinely differ on TM languages.
func TestDeferredTMsNotDirectUpdateSafe(t *testing.T) {
	ts := explore.BuildWorkers(tm.NewTL2(2, 2), nil, runtime.GOMAXPROCS(0))
	rng := rand.New(rand.NewSource(18))
	for i := 0; i < 2000; i++ {
		w := randomWalkWord(rng, ts, 12)
		if core.IsOpaqueUnder(w, core.DeferredUpdate) && !core.IsOpaqueUnder(w, core.DirectUpdate) {
			return // found the expected witness
		}
	}
	t.Error("no witness found: TL2 words seem direct-update safe, which is suspicious")
}
