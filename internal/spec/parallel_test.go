package spec

import (
	"fmt"
	"reflect"
	"testing"

	"tmcheck/internal/automata"
	"tmcheck/internal/core"
)

// dims are the instance sizes the reduction theorems need; the
// equivalence must hold on every one of them.
var parDims = []struct{ n, k int }{{2, 1}, {2, 2}}

// TestDetEnumerateWorkersEquivalent checks that the parallel DFA
// enumeration is bit-identical — same numbering, same transitions — to
// the sequential one, for both properties at (2,1) and (2,2).
func TestDetEnumerateWorkersEquivalent(t *testing.T) {
	for _, prop := range []Property{StrictSerializability, Opacity} {
		for _, d := range parDims {
			t.Run(fmt.Sprintf("%s-n%dk%d", prop.Key(), d.n, d.k), func(t *testing.T) {
				seq := NewDet(prop, d.n, d.k).EnumerateWorkers(1)
				for _, workers := range []int{2, 4} {
					par := NewDet(prop, d.n, d.k).EnumerateWorkers(workers)
					if par.NumStates() != seq.NumStates() {
						t.Fatalf("workers=%d: %d states, sequential has %d",
							workers, par.NumStates(), seq.NumStates())
					}
					for s := 0; s < seq.NumStates(); s++ {
						for l := 0; l < seq.Alphabet(); l++ {
							if par.Succ(s, l) != seq.Succ(s, l) {
								t.Fatalf("workers=%d: δ(%d,%d) = %d, sequential %d",
									workers, s, l, par.Succ(s, l), seq.Succ(s, l))
							}
						}
					}
				}
			})
		}
	}
}

// TestNondetEnumerateWorkersEquivalent pins the numbering of the
// nondeterministic specification's NFA, including ε-edge order, now
// that its enumeration takes no worker count: Enumerate must equal an
// independent first-sight scan-order BFS over Step and Eps (letters
// first, then ε(t) guesses), the canonical order every engine of this
// repository numbers states in.
func TestNondetEnumerateWorkersEquivalent(t *testing.T) {
	for _, prop := range []Property{StrictSerializability, Opacity} {
		for _, d := range parDims {
			t.Run(fmt.Sprintf("%s-n%dk%d", prop.Key(), d.n, d.k), func(t *testing.T) {
				sp := NewNondet(prop, d.n, d.k)
				if !nfasEqual(sp.Enumerate(), refNondetBFS(sp)) {
					t.Fatal("NFA diverges from the scan-order reference enumeration")
				}
			})
		}
	}
}

// refNondetBFS enumerates sp by a plain scan-order BFS, independently
// of Nondet.Enumerate.
func refNondetBFS(sp *Nondet) *automata.NFA {
	ab := core.Alphabet{Threads: sp.Threads, Vars: sp.Vars}
	nfa := automata.NewNFA(ab.Size())
	ids := map[NState]int{sp.Initial(): 0}
	queue := []NState{sp.Initial()}
	id := func(q NState) int {
		if i, ok := ids[q]; ok {
			return i
		}
		ids[q] = nfa.AddState()
		queue = append(queue, q)
		return ids[q]
	}
	for qi := 0; qi < len(queue); qi++ {
		for l := 0; l < ab.Size(); l++ {
			if q2, ok := sp.Step(queue[qi], ab.Decode(l)); ok {
				nfa.AddEdge(qi, l, id(q2))
			}
		}
		for th := 0; th < sp.Threads; th++ {
			if q2, ok := sp.Eps(queue[qi], core.Thread(th)); ok {
				nfa.AddEps(qi, id(q2))
			}
		}
	}
	return nfa
}

func nfasEqual(a, b *automata.NFA) bool {
	if a.NumStates() != b.NumStates() || a.Alphabet() != b.Alphabet() {
		return false
	}
	for s := 0; s < a.NumStates(); s++ {
		for l := 0; l < a.Alphabet(); l++ {
			if !reflect.DeepEqual(a.Succ(s, l), b.Succ(s, l)) {
				return false
			}
		}
		if !reflect.DeepEqual(a.EpsSucc(s), b.EpsSucc(s)) {
			return false
		}
	}
	return true
}
