package spec

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"tmcheck/internal/automata"
	"tmcheck/internal/core"
	"tmcheck/internal/guard"
)

// dims are the instance sizes the reduction theorems need; the
// equivalence must hold on every one of them.
var parDims = []struct{ n, k int }{{2, 1}, {2, 2}}

// TestDetEnumerateWorkersEquivalent pins the numbering of the
// deterministic specification's DFA, which the packed spec.Lazy
// interns: EnumerateWorkers must equal an independent map-keyed
// first-sight scan-order BFS over Det.Step, state for state and edge
// for edge, for both properties at (2,1), (2,2) and (3,1).
func TestDetEnumerateWorkersEquivalent(t *testing.T) {
	for _, prop := range []Property{StrictSerializability, Opacity} {
		for _, d := range append(parDims, struct{ n, k int }{3, 1}) {
			t.Run(fmt.Sprintf("%s-n%dk%d", prop.Key(), d.n, d.k), func(t *testing.T) {
				got := NewDet(prop, d.n, d.k).EnumerateWorkers(1)
				want := refDetBFS(NewDet(prop, d.n, d.k))
				if got.NumStates() != want.NumStates() {
					t.Fatalf("%d states, reference has %d", got.NumStates(), want.NumStates())
				}
				for s := 0; s < want.NumStates(); s++ {
					for l := 0; l < want.Alphabet(); l++ {
						if got.Succ(s, l) != want.Succ(s, l) {
							t.Fatalf("δ(%d,%d) = %d, reference %d", s, l, got.Succ(s, l), want.Succ(s, l))
						}
					}
				}
			})
		}
	}
}

// refDetBFS enumerates sp by a plain scan-order BFS over a Go map,
// independently of spec.Lazy and its packed keys.
func refDetBFS(sp *Det) *automata.DFA {
	ab := core.Alphabet{Threads: sp.Threads, Vars: sp.Vars}
	dfa := automata.NewDFA(ab.Size())
	ids := map[DState]int{sp.Initial(): 0}
	queue := []DState{sp.Initial()}
	for qi := 0; qi < len(queue); qi++ {
		for l := 0; l < ab.Size(); l++ {
			q2, ok := sp.Step(queue[qi], ab.Decode(l))
			if !ok {
				continue
			}
			id, seen := ids[q2]
			if !seen {
				id = dfa.AddState()
				ids[q2] = id
				queue = append(queue, q2)
			}
			dfa.SetEdge(qi, l, id)
		}
	}
	return dfa
}

// TestEnumerateBudget checks the guard of the Σd enumeration: a state
// budget stops it with a typed states-kind *guard.LimitError that
// reports the budget and the states interned when it stopped, at the
// same count on every run.
func TestEnumerateBudget(t *testing.T) {
	visited := -1
	for range 2 {
		dfa, err := NewDet(StrictSerializability, 2, 2).EnumerateGuarded(guard.New(nil, 5, 0))
		if dfa != nil || !errors.Is(err, guard.ErrStates) {
			t.Fatalf("EnumerateGuarded under a 5-state budget = (%v, %v), want guard.ErrStates", dfa, err)
		}
		var le *guard.LimitError
		if !errors.As(err, &le) {
			t.Fatalf("error %v is not a *guard.LimitError", err)
		}
		if le.Budget != 5 || le.Visited <= 5 {
			t.Errorf("limit error reports budget=%d visited=%d", le.Budget, le.Visited)
		}
		if visited >= 0 && le.Visited != visited {
			t.Errorf("budget tripped at %d states, then at %d", visited, le.Visited)
		}
		visited = le.Visited
	}
}

// TestDStateKeyRoundTrip checks the packed DState codec of spec.Lazy:
// every state reached by seeded random walks of Det.Step must decode
// from its key to itself, up to the (4,16) bound, whose 300-bit keys
// fill pack.MaxWords.
func TestDStateKeyRoundTrip(t *testing.T) {
	for _, prop := range []Property{StrictSerializability, Opacity} {
		for _, d := range []struct{ n, k int }{{2, 2}, {3, 3}, {4, 16}} {
			t.Run(fmt.Sprintf("%s-n%dk%d", prop.Key(), d.n, d.k), func(t *testing.T) {
				det := NewDet(prop, d.n, d.k)
				lz := NewLazy(det)
				ab := core.Alphabet{Threads: d.n, Vars: d.k}
				rng := rand.New(rand.NewSource(int64(d.n*100 + d.k)))
				checked := 0
				for walk := 0; walk < 200; walk++ {
					q := det.Initial()
					for step := 0; step < 40; step++ {
						q2, ok := det.Step(q, ab.Decode(rng.Intn(ab.Size())))
						if !ok {
							continue
						}
						q = q2
						var back DState
						lz.decode(lz.encode(&q), &back)
						if back != q {
							t.Fatalf("walk %d step %d: %+v decodes to %+v", walk, step, q, back)
						}
						checked++
					}
				}
				if checked < 1000 {
					t.Fatalf("only %d states checked", checked)
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
