package spec

import (
	"math/rand"
	"runtime"
	"testing"

	"tmcheck/internal/automata"
	"tmcheck/internal/core"
	"tmcheck/internal/wordgen"
)

// Cross-dimension validation: the specifications are defined for any
// (n, k); their agreement with the oracles must not be a (2,2) accident.

func TestSpecsAgainstOracle33(t *testing.T) { testBothSpecs(t, 3, 3, 800, 13) }
func TestSpecsAgainstOracle42(t *testing.T) { testBothSpecs(t, 4, 2, 800, 13) }

func testBothSpecs(t *testing.T, n, k, iters, maxLen int) {
	t.Helper()
	rng := rand.New(rand.NewSource(int64(1000*n + k)))
	for _, prop := range []Property{StrictSerializability, Opacity} {
		nd := NewNondet(prop, n, k)
		dt := NewDet(prop, n, k)
		oracle := oracleFor(prop)
		for i := 0; i < iters; i++ {
			w := wordgen.WellFormed(rng, wordgen.Config{Threads: n, Vars: k, Len: 4 + rng.Intn(maxLen-3)})
			want := oracle(w)
			if got := nd.Accepts(w); got != want {
				t.Fatalf("nondet %v (%d,%d): got %v want %v on %q", prop, n, k, got, want, w)
			}
			if got := dt.Accepts(w); got != want {
				t.Fatalf("det %v (%d,%d): got %v want %v on %q", prop, n, k, got, want, w)
			}
		}
	}
}

// The word that distinguishes the two possible readings of strict
// equivalence's real-time clause (see BuildConflictGraph): thread 3 is
// pending (pinned before thread 1's commit), thread 2's unfinished
// transaction starts after that commit and reads thread 3's write. Under
// the adopted (Guerraoui–Kapalka-consistent) reading, the unfinished
// transaction cannot float ahead of the earlier commit, so the word is
// NOT opaque; under the discarded reading it would be. The specifications
// and the oracle must agree on the adopted reading.
func TestRealTimeClauseDistinguishingWord(t *testing.T) {
	w := core.MustParseWord("(r,2)1, c3, (w,1)3, (r,2)3, (w,2)1, (r,2)3, c1, (w,1)3, (r,1)2, c3")
	if core.IsOpaque(w) {
		t.Error("oracle: distinguishing word must not be opaque under the adopted reading")
	}
	if NewNondet(Opacity, 3, 2).Accepts(w) {
		t.Error("Σop accepts the distinguishing word")
	}
	if NewDet(Opacity, 3, 2).Accepts(w) {
		t.Error("Σdop accepts the distinguishing word")
	}
}

// Theorem 3 holds at other small instances too.
func TestEquivalenceOtherInstances(t *testing.T) {
	for _, dims := range [][2]int{{2, 1}, {3, 1}, {1, 2}} {
		n, k := dims[0], dims[1]
		for _, prop := range []Property{StrictSerializability, Opacity} {
			nd := NewNondet(prop, n, k).Enumerate()
			dt := NewDet(prop, n, k).EnumerateWorkers(runtime.GOMAXPROCS(0))
			equal, fwd, cex := automata.EquivalentNFADFA(nd, dt)
			if !equal {
				ab := core.Alphabet{Threads: n, Vars: k}
				t.Errorf("%v at (%d,%d): specs differ (fwd=%v): %q",
					prop, n, k, fwd, ab.DecodeWord(cex))
			}
		}
	}
}

// The paper reports that the nondeterministic specifications were "too
// large to be automatically determinized" (§5.3) — the motivation for
// hand-building the deterministic ones. With the normalized state encoding
// here, subset construction succeeds in well under a second, giving a
// third, fully mechanical route to the deterministic specification; its
// minimization and the hand-built specification's minimization must be the
// same canonical automaton (minimal DFAs are unique up to isomorphism).
func TestDeterminizationSucceedsAndCanonicalizes(t *testing.T) {
	for _, prop := range []Property{StrictSerializability, Opacity} {
		nfa := NewNondet(prop, 2, 2).Enumerate()
		subset, err := nfa.DeterminizeBounded(2000000)
		if err != nil {
			t.Fatalf("%v: determinization blew up: %v", prop, err)
		}
		fromNondet := subset.Minimize()
		fromDet := NewDet(prop, 2, 2).EnumerateWorkers(runtime.GOMAXPROCS(0)).Minimize()
		if fromNondet.NumStates() != fromDet.NumStates() {
			t.Errorf("%v: canonical sizes differ: %d (via subset construction) vs %d (hand-built)",
				prop, fromNondet.NumStates(), fromDet.NumStates())
		}
		t.Logf("%v: canonical minimal DFA has %d states (subset construction: %d states pre-minimization)",
			prop, fromDet.NumStates(), subset.NumStates())
	}
}

// Regression: the word the 4-thread fuzz soak found against the printed
// deterministic specification. An aborting reader (thread 4) straddles a
// commit, pinning the pending thread 1 into a cycle; the reader's reset
// then erased the weak-predecessor evidence, and thread 1's commit slipped
// through. The eager contradiction check in addStrictPreds records the
// doom before the reset.
func TestRegressionAbortedReaderObligationPersists(t *testing.T) {
	w := core.MustParseWord(
		"c3, (r,1)1, (w,1)3, (w,1)2, (r,2)4, c3, (w,2)1, (r,1)4, a4, c3, (r,1)3, c1, (w,2)1")
	if core.IsOpaque(w) {
		t.Fatal("oracle should reject the soak word")
	}
	if NewNondet(Opacity, 4, 2).Accepts(w) {
		t.Error("Σop accepts the soak word")
	}
	if NewDet(Opacity, 4, 2).Accepts(w) {
		t.Error("Σdop accepts the soak word")
	}
}

// Second soak regression: a four-transaction cycle threaded through an
// aborting reader. The abort must flush the dying thread's strict
// predecessors into the threads chained after it, or the cycle's evidence
// is erased with the reset.
func TestRegressionAbortFlushesStrictPredecessors(t *testing.T) {
	w := core.MustParseWord(
		"c2, (w,1)3, (r,2)2, (w,2)4, (r,1)1, c4, (r,2)1, (w,2)4, a1, (r,1)3, c3, (w,2)1, (r,1)2")
	if core.IsOpaque(w) {
		t.Fatal("oracle should reject the soak word")
	}
	if NewNondet(Opacity, 4, 2).Accepts(w) {
		t.Error("Σop accepts the soak word")
	}
	if NewDet(Opacity, 4, 2).Accepts(w) {
		t.Error("Σdop accepts the soak word")
	}
}

// Third soak regression: a transitive predecessor (reachable only through
// the strict-predecessor sets of the weak predecessors) missed its
// prohibited-read update at commit time.
func TestRegressionCommitUpdatesFullClosure(t *testing.T) {
	for _, in := range []string{
		"(r,3)1, (w,3)2, (r,2)1, (w,1)3, c2, (r,1)2, c3, a2, (w,2)3, (w,2)2, (r,1)1, (r,2)2, (r,2)1",
		"c2, (w,3)2, (r,2)1, (r,3)4, c2, (w,1)1, (w,3)3, (r,1)2, c1, a2, a1, c2, (w,2)4, c4",
	} {
		w := core.MustParseWord(in)
		n := len(w.Threads())
		if n < 3 {
			n = 3
		}
		if core.IsOpaque(w) {
			t.Fatalf("oracle should reject %q", in)
		}
		if NewNondet(Opacity, 4, 3).Accepts(w) {
			t.Errorf("Σop accepts %q", in)
		}
		if NewDet(Opacity, 4, 3).Accepts(w) {
			t.Errorf("Σdop accepts %q", in)
		}
	}
}
