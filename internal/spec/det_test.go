package spec

import (
	"math/rand"
	"runtime"
	"testing"

	"tmcheck/internal/automata"
	"tmcheck/internal/core"
	"tmcheck/internal/wordgen"
)

func TestDetPaperExamples(t *testing.T) {
	ss := NewDet(StrictSerializability, 3, 3)
	op := NewDet(Opacity, 3, 3)
	for _, tc := range []struct {
		name   string
		word   string
		wantSS bool
		wantOp bool
	}{
		{"fig1a", "(w,1)2, (r,1)1, (r,2)3, c2, (w,2)1, (r,1)3, c1, c3", false, false},
		{"fig1b", "(w,1)2, (r,2)2, (r,3)3, (r,1)1, c2, (w,2)3, (w,3)1, c1, c3", false, false},
		{"fig2a", "(w,1)2, (r,1)1, (r,2)3, c2, (w,2)1, (r,1)3, c1", true, false},
		{"fig2b", "(w,1)2, (r,1)1, c2, (r,2)3, a3, (w,2)1, c1", true, false},
		{"table2-w1", "(w,2)1, (w,1)2, (r,2)2, (r,1)1, c2, c1", false, false},
		{"serial", "(r,1)1, (w,2)1, c1, (w,1)2, c2", true, true},
	} {
		w := core.MustParseWord(tc.word)
		if got := ss.Accepts(w); got != tc.wantSS {
			t.Errorf("%s: Σdss accepts = %v, want %v", tc.name, got, tc.wantSS)
		}
		if got := op.Accepts(w); got != tc.wantOp {
			t.Errorf("%s: Σdop accepts = %v, want %v", tc.name, got, tc.wantOp)
		}
	}
}

func TestDetAgainstOracle22(t *testing.T) { testDetAgainstOracle(t, 2, 2, 2000, 10) }
func TestDetAgainstOracle32(t *testing.T) { testDetAgainstOracle(t, 3, 2, 800, 9) }
func TestDetAgainstOracle23(t *testing.T) { testDetAgainstOracle(t, 2, 3, 800, 10) }

func testDetAgainstOracle(t *testing.T, n, k, iters, maxLen int) {
	t.Helper()
	rng := rand.New(rand.NewSource(int64(200*n + k)))
	cfg := wordgen.Config{Threads: n, Vars: k, Len: maxLen}
	for _, prop := range []Property{StrictSerializability, Opacity} {
		spec := NewDet(prop, n, k)
		oracle := oracleFor(prop)
		for i := 0; i < iters; i++ {
			cfg.Len = 3 + rng.Intn(maxLen-2)
			w := wordgen.WellFormed(rng, cfg)
			got := spec.Accepts(w)
			want := oracle(w)
			if got != want {
				t.Fatalf("%v (n=%d,k=%d): det spec=%v oracle=%v on %q", prop, n, k, got, want, w)
			}
		}
	}
}

// Theorem 3: the languages of the nondeterministic and deterministic
// specifications coincide on (2,2), established by antichain equivalence.
func TestTheorem3Equivalence22(t *testing.T) {
	for _, prop := range []Property{StrictSerializability, Opacity} {
		nd := NewNondet(prop, 2, 2).Enumerate()
		dt := NewDet(prop, 2, 2).EnumerateWorkers(runtime.GOMAXPROCS(0))
		equal, fwd, cex := automata.EquivalentNFADFA(nd, dt)
		if !equal {
			ab := core.Alphabet{Threads: 2, Vars: 2}
			side := "nondet \\ det"
			if !fwd {
				side = "det \\ nondet"
			}
			t.Errorf("%v: specifications differ (%s): %q", prop, side, ab.DecodeWord(cex))
		}
	}
}

func TestDetEnumerateSizes(t *testing.T) {
	ss := NewDet(StrictSerializability, 2, 2).EnumerateWorkers(runtime.GOMAXPROCS(0))
	op := NewDet(Opacity, 2, 2).EnumerateWorkers(runtime.GOMAXPROCS(0))
	t.Logf("Σdss states = %d (paper: 3520)", ss.NumStates())
	t.Logf("Σdop states = %d (paper: 2272)", op.NumStates())
	t.Logf("Σdss minimized = %d", ss.Minimize().NumStates())
	t.Logf("Σdop minimized = %d", op.Minimize().NumStates())
	if ss.NumStates() < 100 || op.NumStates() < 100 {
		t.Errorf("suspiciously small deterministic specifications: ss=%d op=%d",
			ss.NumStates(), op.NumStates())
	}
}

func TestDetPrefixClosedAndDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, prop := range []Property{StrictSerializability, Opacity} {
		spec := NewDet(prop, 2, 2)
		for i := 0; i < 150; i++ {
			w := wordgen.WellFormed(rng, wordgen.Config{Threads: 2, Vars: 2, Len: 8})
			if spec.Accepts(w) {
				for j := range w {
					if !spec.Accepts(w[:j]) {
						t.Fatalf("%v: not prefix closed at %d on %q", prop, j, w)
					}
				}
			}
		}
	}
}
