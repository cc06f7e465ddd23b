package automata

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// TestQuickDenseInclusionMatchesBoxed cross-checks the dense
// deterministic inclusion walk against the boxed one on random automata
// pairs: verdict, counterexample word, and pair count must all be
// bit-identical (the counterexample contract the safety engines rely
// on).
func TestQuickDenseInclusionMatchesBoxed(t *testing.T) {
	if err := quick.Check(func(g1, g2 genSmallNFA) bool {
		a, d := g1.A, g2.A.Determinize()
		okB, cexB, stB := IncludedInDFAStats(a, d)
		okD, cexD, stD, err := IncludedInDFADenseGuarded(DenseFromNFA(a), d, nil)
		if err != nil {
			return false
		}
		return okB == okD && reflect.DeepEqual(cexB, cexD) &&
			stB.PairsVisited == stD.PairsVisited && stB.CexLen == stD.CexLen
	}, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestDenseFromNFAPreservesShape checks the CSR view state for state:
// same ε-successor sequence and, per letter, the same successor
// sequence as the boxed automaton.
func TestDenseFromNFAPreservesShape(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		g := genSmallNFA{}.Generate(rng, 10).Interface().(genSmallNFA)
		a := g.A
		dn := DenseFromNFA(a)
		if dn.NumStates() != a.NumStates() || dn.Initial() != a.Initial() || dn.Alphabet() != a.Alphabet() {
			t.Fatalf("shape mismatch: %d/%d states, initial %d/%d",
				dn.NumStates(), a.NumStates(), dn.Initial(), a.Initial())
		}
		for s := 0; s < a.NumStates(); s++ {
			es := dn.Edges(int32(s))
			i := 0
			eps := []int32{}
			for ; i < len(es) && es[i].Emit < 0; i++ {
				eps = append(eps, es[i].To)
			}
			if !reflect.DeepEqual(eps, append([]int32{}, a.EpsSucc(s)...)) {
				t.Fatalf("state %d: eps %v, want %v", s, eps, a.EpsSucc(s))
			}
			for l := 0; l < a.Alphabet(); l++ {
				var got []int32
				for ; i < len(es) && int(es[i].Emit) == l; i++ {
					got = append(got, es[i].To)
				}
				if !reflect.DeepEqual(got, append([]int32(nil), a.Succ(s, l)...)) && len(a.Succ(s, l)) > 0 {
					t.Fatalf("state %d letter %d: %v, want %v", s, l, got, a.Succ(s, l))
				}
			}
			if i != len(es) {
				t.Fatalf("state %d: letters not ascending", s)
			}
		}
	}
}
