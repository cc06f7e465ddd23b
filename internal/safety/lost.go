package safety

import (
	"tmcheck/internal/automata"
	"tmcheck/internal/core"
	"tmcheck/internal/explore"
	"tmcheck/internal/spec"
)

// LostConcurrency finds a shortest safe word the TM forbids: a word in the
// property's language (πss or πop over the TM's instance bounds) that is
// not in L(TM). Every safe TM that is not maximally permissive has one —
// the witness shows concretely what concurrency the TM gives up. ok is
// false only if the TM admits every safe word (no known TM does).
//
// Spontaneous aborts make degenerate witnesses (the specification allows
// an abort anywhere, while TMs only abort under duress), so the search is
// restricted to abort-free words — the concurrency a TM user actually
// cares about.
//
// The search runs a BFS over the product of the deterministic
// specification and the subset construction of the TM's NFA, looking for
// a reachable pair where the specification can extend but the TM cannot.
func LostConcurrency(ts *explore.TS, prop spec.Property) (core.Word, bool) {
	dfa := spec.NewDet(prop, ts.Alg.Threads(), ts.Alg.Vars()).EnumerateWorkers(1)
	nfa := ts.NFA()

	type node struct {
		d   int
		set *automata.BitSet
	}
	type key struct {
		d int
		h uint64
	}
	visited := map[key][]*automata.BitSet{}
	seen := func(d int, s *automata.BitSet) bool {
		for _, x := range visited[key{d, s.Hash()}] {
			if x.Equal(s) {
				return true
			}
		}
		return false
	}
	mark := func(d int, s *automata.BitSet) {
		k := key{d, s.Hash()}
		visited[k] = append(visited[k], s)
	}

	type qitem struct {
		n      node
		parent int
		letter int
	}
	var items []qitem
	start := node{d: dfa.Initial(), set: nfa.InitialSet()}
	mark(start.d, start.set)
	items = append(items, qitem{n: start, parent: -1, letter: -1})

	build := func(idx int) core.Word {
		var rev []int
		for idx >= 0 {
			if items[idx].letter >= 0 {
				rev = append(rev, items[idx].letter)
			}
			idx = items[idx].parent
		}
		for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
			rev[i], rev[j] = rev[j], rev[i]
		}
		return ts.Alphabet.DecodeWord(rev)
	}

	for qi := 0; qi < len(items); qi++ {
		cur := items[qi].n
		for l := 0; l < dfa.Alphabet(); l++ {
			if ts.Alphabet.Decode(l).Cmd.Op == core.OpAbort {
				continue // abort-free witnesses only
			}
			d2 := dfa.Succ(cur.d, l)
			if d2 < 0 {
				continue // not a safe extension
			}
			set2 := nfa.Step(cur.set, l)
			if set2.Empty() {
				// Safe word the TM cannot produce.
				w := build(qi)
				return append(w, ts.Alphabet.Decode(l)), true
			}
			n2 := node{d: d2, set: set2}
			if seen(n2.d, n2.set) {
				continue
			}
			mark(n2.d, n2.set)
			items = append(items, qitem{n: n2, parent: qi, letter: l})
		}
	}
	return nil, false
}
