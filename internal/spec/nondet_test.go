package spec

import (
	"math/rand"
	"testing"

	"tmcheck/internal/core"
	"tmcheck/internal/wordgen"
)

func oracleFor(p Property) func(core.Word) bool {
	if p == Opacity {
		return core.IsOpaque
	}
	return core.IsStrictlySerializable
}

func TestNondetPaperExamples(t *testing.T) {
	ss := NewNondet(StrictSerializability, 3, 3)
	op := NewNondet(Opacity, 3, 3)
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
		{"abort-only", "(r,1)1, a1, (r,1)2, c2", true, true},
	} {
		w := core.MustParseWord(tc.word)
		if got := ss.Accepts(w); got != tc.wantSS {
			t.Errorf("%s: Σss accepts = %v, want %v", tc.name, got, tc.wantSS)
		}
		if got := op.Accepts(w); got != tc.wantOp {
			t.Errorf("%s: Σop accepts = %v, want %v", tc.name, got, tc.wantOp)
		}
	}
}

// Figure 3: the four conditions C1–C4 under which the specification for
// strict serializability disallows a commit. Thread 1 runs transaction x,
// thread 2 runs transaction y; in each scenario both commits cannot
// coexist.
func TestNondetFigure3Conditions(t *testing.T) {
	ss := NewNondet(StrictSerializability, 2, 2)
	for _, tc := range []struct {
		name string
		word string
		want bool
	}{
		// C1: x must serialize before y (its earlier read of v2 precedes
		// y's commit of v2), yet x reads v1 after y commits v1 — the read
		// lands after y under every serialization guess.
		{"C1", "(r,2)1, (w,1)2, (w,2)2, c2, (r,1)1, c1", false},
		// C2: x serializes before y, x writes v, y reads v before x
		// commits, both commit: y read the pre-x value yet must follow x.
		{"C2", "(w,1)1, (r,1)2, (w,2)2, c1, c2", true}, // y can serialize before x
		{"C2-forced", "(r,2)1, (w,1)1, (r,1)2, (w,2)2, c2, c1", false},
		// C3: both write v; y commits first; x's commit must follow y but
		// x read nothing — ww order only. Serializable by ordering x after
		// y unless something pins x before y.
		{"C3", "(w,1)1, (w,1)2, c2, c1", true},
		{"C3-forced", "(w,1)1, (r,2)1, (w,1)2, (w,2)2, c2, c1", false},
		// C4: x reads v, then y (writing v) commits, then x commits while
		// also conflicting the other way.
		{"C4", "(r,1)1, (w,1)2, c2, c1", true},
		{"C4-forced", "(r,1)1, (w,2)1, (w,1)2, (r,2)2, c2, c1", false},
	} {
		w := core.MustParseWord(tc.word)
		if got := ss.Accepts(w); got != tc.want {
			t.Errorf("%s: Σss accepts %q = %v, want %v", tc.name, tc.word, got, tc.want)
		}
		// The oracle must agree — the scenarios are definitional.
		if got := core.IsStrictlySerializable(w); got != tc.want {
			t.Errorf("%s: oracle disagrees with expectation %v", tc.name, tc.want)
		}
	}
}

func TestNondetAgainstOracle22(t *testing.T) {
	testNondetAgainstOracle(t, 2, 2, 1500, 10)
}

func TestNondetAgainstOracle32(t *testing.T) {
	testNondetAgainstOracle(t, 3, 2, 600, 9)
}

func TestNondetAgainstOracle23(t *testing.T) {
	testNondetAgainstOracle(t, 2, 3, 600, 10)
}

func testNondetAgainstOracle(t *testing.T, n, k, iters, maxLen int) {
	t.Helper()
	rng := rand.New(rand.NewSource(int64(100*n + k)))
	cfg := wordgen.Config{Threads: n, Vars: k, Len: maxLen}
	for _, prop := range []Property{StrictSerializability, Opacity} {
		spec := NewNondet(prop, n, k)
		oracle := oracleFor(prop)
		for i := 0; i < iters; i++ {
			cfg.Len = 3 + rng.Intn(maxLen-2)
			w := wordgen.WellFormed(rng, cfg)
			got := spec.Accepts(w)
			want := oracle(w)
			if got != want {
				t.Fatalf("%v (n=%d,k=%d): spec=%v oracle=%v on %q", prop, n, k, got, want, w)
			}
		}
	}
}

func TestNondetEnumerateSizes(t *testing.T) {
	// Paper §5.3: Σss has 12345 states and Σop 9202 for (2,2). The exact
	// counts depend on encoding details; reproduce and report.
	ss := NewNondet(StrictSerializability, 2, 2).Enumerate()
	op := NewNondet(Opacity, 2, 2).Enumerate()
	// This implementation normalizes away dead state fields, so both
	// automata come out smaller than the paper's (and their relative order
	// differs); EXPERIMENTS.md records the comparison.
	t.Logf("Σss states = %d (paper, unnormalized: 12345)", ss.NumStates())
	t.Logf("Σop states = %d (paper, unnormalized: 9202)", op.NumStates())
	if ss.NumStates() < 1000 || op.NumStates() < 1000 {
		t.Errorf("suspiciously small specifications: ss=%d op=%d", ss.NumStates(), op.NumStates())
	}
}

func TestNondetEnumerateMatchesAccepts(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	ab := core.Alphabet{Threads: 2, Vars: 2}
	for _, prop := range []Property{StrictSerializability, Opacity} {
		spec := NewNondet(prop, 2, 2)
		nfa := spec.Enumerate()
		for i := 0; i < 300; i++ {
			w := wordgen.WellFormed(rng, wordgen.Config{Threads: 2, Vars: 2, Len: 3 + rng.Intn(8)})
			if got, want := nfa.Accepts(ab.EncodeWord(w)), spec.Accepts(w); got != want {
				t.Fatalf("%v: enumerated NFA=%v, direct=%v on %q", prop, got, want, w)
			}
		}
	}
}

func TestNondetPrefixClosed(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	for _, prop := range []Property{StrictSerializability, Opacity} {
		spec := NewNondet(prop, 2, 2)
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

func TestOpacityImpliesSSViaSpecs(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	ss := NewNondet(StrictSerializability, 2, 2)
	op := NewNondet(Opacity, 2, 2)
	for i := 0; i < 300; i++ {
		w := wordgen.WellFormed(rng, wordgen.Config{Threads: 2, Vars: 2, Len: 3 + rng.Intn(7)})
		if op.Accepts(w) && !ss.Accepts(w) {
			t.Fatalf("πop ⊄ πss on %q", w)
		}
	}
}
