package automata

import (
	"fmt"

	"tmcheck/internal/guard"
	"tmcheck/internal/obs"
)

// DenseNFA is a compressed-sparse-row view of an NFA, the built left
// side of a product Walk: the edges of all states in one flat array,
// each state's in SortEdges order, so iterating a state touches only
// the letters it has — the boxed NFA walk scans the whole alphabet and
// chases a [][]int32 row per state.
//
// SortEdges order is the boxed walk's successor order: all
// ε-successors in edge-insertion order, then the letters ascending,
// each letter's successors in edge-insertion order. Counterexamples of
// the dense inclusion check are therefore bit-identical to
// IncludedInDFA's.
type DenseNFA struct {
	alphabet int
	initial  int32
	// The edges of state s are edges[off[s]:off[s+1]].
	off   []int32
	edges []Edge
}

// Alphabet returns the alphabet size.
func (a *DenseNFA) Alphabet() int { return a.alphabet }

// NumStates returns the number of states.
func (a *DenseNFA) NumStates() int { return len(a.off) - 1 }

// Initial returns the initial state.
func (a *DenseNFA) Initial() int { return int(a.initial) }

// Edges returns the edges of state s in SortEdges order; callers must
// not modify them.
func (a *DenseNFA) Edges(s int32) []Edge { return a.edges[a.off[s]:a.off[s+1]] }

// DenseBuilder assembles a DenseNFA state by state in id order: call
// StartState for each state 0, 1, …, add that state's transitions with
// Edge and Eps in any order (the builder sorts each state's edges),
// then Finish.
type DenseBuilder struct {
	out DenseNFA
}

// NewDenseBuilder returns a builder for automata over an alphabet of
// the given size.
func NewDenseBuilder(alphabet int) *DenseBuilder {
	if alphabet < 0 || alphabet > 1<<15-1 {
		panic(fmt.Sprintf("automata: alphabet %d out of range for dense letters", alphabet))
	}
	return &DenseBuilder{out: DenseNFA{alphabet: alphabet}}
}

// StartState opens the next state (ids are assigned in call order,
// starting at 0) and returns its id.
func (b *DenseBuilder) StartState() int {
	b.closeState()
	return len(b.out.off) - 1
}

// Edge adds a transition of the open state on letter to state to.
func (b *DenseBuilder) Edge(letter, to int) {
	if letter < 0 || letter >= b.out.alphabet {
		panic(fmt.Sprintf("automata: letter %d out of range [0,%d)", letter, b.out.alphabet))
	}
	b.out.edges = append(b.out.edges, Edge{To: int32(to), Emit: int16(letter)})
}

// Eps adds an ε-transition of the open state to state to.
func (b *DenseBuilder) Eps(to int) {
	b.out.edges = append(b.out.edges, Edge{To: int32(to), Emit: -1})
}

// closeState sorts the edges of the open state, if any, and records the
// fencepost where the next state's edges start.
func (b *DenseBuilder) closeState() {
	if n := len(b.out.off); n > 0 {
		SortEdges(b.out.edges[b.out.off[n-1]:])
	}
	b.out.off = append(b.out.off, int32(len(b.out.edges)))
}

// Finish closes the last state and returns the automaton with the
// given initial state. The builder must not be reused afterwards.
func (b *DenseBuilder) Finish(initial int) *DenseNFA {
	b.closeState()
	if n := b.out.NumStates(); initial < 0 || initial >= n {
		panic(fmt.Sprintf("automata: initial state %d out of range [0,%d)", initial, n))
	}
	b.out.initial = int32(initial)
	return &b.out
}

// DenseFromNFA converts a boxed NFA into its dense view, preserving the
// per-state successor enumeration order of the inclusion walk.
func DenseFromNFA(a *NFA) *DenseNFA {
	b := NewDenseBuilder(a.alphabet)
	for s := 0; s < a.NumStates(); s++ {
		b.StartState()
		for _, t := range a.eps[s] {
			b.Eps(int(t))
		}
		for l := 0; l < a.alphabet; l++ {
			for _, t := range a.trans[s][l] {
				b.Edge(l, int(t))
			}
		}
	}
	return b.Finish(a.initial)
}

// IncludedInDFADenseGuarded is the materialized engine's inclusion
// check: the product Walk over a built automaton and an enumerated
// DFA, with the same verdicts, counterexamples and pair counts as
// IncludedInDFAStats. The guard is consulted once per pair with the
// pairs plus both automata's states, so a state budget, a -timeout or
// Ctrl-C interrupts even a long inclusion phase; the stats still report
// the truncated work. The totals are recorded under
// "automata.dfa_inclusion.*" in the obs registry.
func IncludedInDFADenseGuarded(a *DenseNFA, d *DFA, g *guard.Guard) (ok bool, cex []int, st InclusionStats, err error) {
	w := Walk{A: a, D: d, A0: a.initial, D0: int32(d.initial), Guard: g}
	r, err := w.Run()
	obs.Inc("automata.dfa_inclusion.checks", 1)
	obs.Inc("automata.dfa_inclusion.pairs", int64(r.Stats.PairsVisited))
	return r.Holds, r.Cex, r.Stats, err
}
