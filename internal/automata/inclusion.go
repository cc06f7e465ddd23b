package automata

import (
	"sync"

	"tmcheck/internal/obs"
)

// Language inclusion for prefix-closed (all-states-accepting) automata.
//
// IncludedInDFA is the linear product check the paper uses to verify a TM
// against a deterministic specification: since the specification is
// deterministic, a word of the implementation escapes the specification
// exactly when the synchronized product runs off a defined transition.
//
// IncludedInNFA is the antichain algorithm (paper ref. [28]): searching for
// a word accepted by the left automaton that kills every run of the right
// one, pruning subset-subsumed search nodes.

// InclusionStats exposes the work an inclusion check performed, for
// the observability layer and for callers tracking the perf
// trajectory across instances.
type InclusionStats struct {
	// PairsVisited counts distinct product pairs reached by the
	// deterministic check (IncludedInDFA).
	PairsVisited int
	// NodesCreated and NodesPruned count antichain search nodes
	// created respectively killed by subsumption (IncludedInNFA).
	NodesCreated int
	NodesPruned  int
	// CexLen is the number of letters of the returned counterexample —
	// the BFS depth at which the inclusion broke — or 0 when inclusion
	// holds.
	CexLen int
}

// IncludedInDFA reports whether L(a) ⊆ L(d). When inclusion fails it
// returns a shortest-by-BFS counterexample word in L(a) \ L(d).
func IncludedInDFA(a *NFA, d *DFA) (bool, []int) {
	ok, cex, _ := IncludedInDFAStats(a, d)
	return ok, cex
}

// denseVisitedLimit bounds the product size (NFA states × DFA states)
// for which the deterministic inclusion check uses a dense visited
// table; 2²⁵ int32 entries ≈ 128 MiB. Larger products fall back to the
// hash map, trading speed for footprint.
const denseVisitedLimit = 1 << 25

// denseVisitedPool recycles the dense visited tables across checks.
// Every pooled slice upholds the all-(-1) invariant: users reset
// exactly the entries they touched (those in their BFS queue) before
// returning it.
var denseVisitedPool sync.Pool

func getDenseVisited(n int) []int32 {
	if v, ok := denseVisitedPool.Get().(*[]int32); ok && len(*v) >= n {
		return (*v)[:n]
	}
	fresh := make([]int32, n)
	for i := range fresh {
		fresh[i] = -1
	}
	return fresh
}

func putDenseVisited(v []int32, touched []int64) {
	for _, pair := range touched {
		v[pair] = -1
	}
	full := v[:cap(v)]
	denseVisitedPool.Put(&full)
}

// IncludedInDFAStats is IncludedInDFA returning the work counters; the
// aggregate totals are also recorded under "automata.dfa_inclusion.*"
// in the obs registry. It is the reference walk the dense check
// (IncludedInDFADenseGuarded) is tested against.
//
// The visited set over product pairs (n, d) is a dense int32 table
// indexed by n·width+d (both factors are known up front), recycled
// across checks through a pool; oversized products fall back to a map.
func IncludedInDFAStats(a *NFA, d *DFA) (ok bool, cex []int, st InclusionStats) {
	type node struct {
		parent int
		letter int // -1 for the root and for ε-steps
	}
	width := int64(d.NumStates() + 1)
	encode := func(n, dd int) int64 { return int64(n)*width + int64(dd) }
	total := int64(a.NumStates()) * width
	nodes := []node{{parent: -1, letter: -1}}
	var queue []int64

	// lookup/set abstract the two visited-table representations; every
	// visited pair enters the queue exactly once, so len(queue) is the
	// pairs-visited count for both.
	var lookup func(pair int64) (int32, bool)
	var set func(pair int64, idx int32)
	var dense []int32
	if total <= denseVisitedLimit {
		dense = getDenseVisited(int(total))
		lookup = func(pair int64) (int32, bool) {
			idx := dense[pair]
			return idx, idx >= 0
		}
		set = func(pair int64, idx int32) { dense[pair] = idx }
	} else {
		m := make(map[int64]int32)
		lookup = func(pair int64) (int32, bool) {
			idx, ok := m[pair]
			return idx, ok
		}
		set = func(pair int64, idx int32) { m[pair] = idx }
	}

	push := func(pair int64, parent int, letter int) {
		if _, ok := lookup(pair); ok {
			return
		}
		nodes = append(nodes, node{parent: parent, letter: letter})
		set(pair, int32(len(nodes)-1))
		queue = append(queue, pair)
	}

	buildWord := func(idx, lastLetter int) []int {
		var rev []int
		if lastLetter >= 0 {
			rev = append(rev, lastLetter)
		}
		for idx > 0 {
			if nodes[idx].letter >= 0 {
				rev = append(rev, nodes[idx].letter)
			}
			idx = nodes[idx].parent
		}
		for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
			rev[i], rev[j] = rev[j], rev[i]
		}
		return rev
	}

	record := func(ok bool, cex []int) (bool, []int, InclusionStats) {
		st = InclusionStats{PairsVisited: len(queue), CexLen: len(cex)}
		obs.Inc("automata.dfa_inclusion.checks", 1)
		obs.Inc("automata.dfa_inclusion.pairs", int64(st.PairsVisited))
		if dense != nil {
			putDenseVisited(dense, queue)
		}
		return ok, cex, st
	}

	start := encode(a.Initial(), d.Initial())
	set(start, 0)
	queue = append(queue, start)
	for qi := 0; qi < len(queue); qi++ {
		pair := queue[qi]
		n := int(pair / width)
		dd := int(pair % width)
		idx32, _ := lookup(pair)
		idx := int(idx32)
		for _, n2 := range a.EpsSucc(n) {
			push(encode(int(n2), dd), idx, -1)
		}
		for l := 0; l < a.Alphabet(); l++ {
			succs := a.Succ(n, l)
			if len(succs) == 0 {
				continue
			}
			d2 := d.Succ(dd, l)
			if d2 < 0 {
				return record(false, buildWord(idx, l))
			}
			for _, n2 := range succs {
				push(encode(int(n2), d2), idx, l)
			}
		}
	}
	return record(true, nil)
}

// IncludedInNFA reports whether L(a) ⊆ L(b) using the antichain method.
// When inclusion fails it returns a counterexample word in L(a) \ L(b).
func IncludedInNFA(a *NFA, b *NFA) (bool, []int) {
	ok, cex, _ := IncludedInNFAStats(a, b)
	return ok, cex
}

// IncludedInNFAStats is IncludedInNFA returning the work counters; the
// aggregate totals are also recorded under "automata.antichain.*" in
// the obs registry.
func IncludedInNFAStats(a *NFA, b *NFA) (ok bool, cex []int, st InclusionStats) {
	type node struct {
		aState int
		set    *BitSet
		parent int
		letter int // -1 for the root and for ε-steps
		dead   bool
	}
	var nodes []node
	pruned := 0
	// antichain[aState] indexes nodes holding the minimal b-sets seen for
	// that a-state.
	antichain := map[int][]int{}

	buildWord := func(idx, lastLetter int) []int {
		var rev []int
		if lastLetter >= 0 {
			rev = append(rev, lastLetter)
		}
		for idx >= 0 {
			if nodes[idx].letter >= 0 {
				rev = append(rev, nodes[idx].letter)
			}
			idx = nodes[idx].parent
		}
		for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
			rev[i], rev[j] = rev[j], rev[i]
		}
		return rev
	}

	// insert adds (aState, set) unless subsumed; returns the node id or -1.
	insert := func(aState int, set *BitSet, parent, letter int) int {
		ids := antichain[aState]
		for _, id := range ids {
			if !nodes[id].dead && nodes[id].set.SubsetOf(set) {
				return -1 // an easier-or-equal node already covers this one
			}
		}
		for _, id := range ids {
			if !nodes[id].dead && set.SubsetOf(nodes[id].set) {
				nodes[id].dead = true
				pruned++
			}
		}
		nodes = append(nodes, node{aState: aState, set: set, parent: parent, letter: letter})
		id := len(nodes) - 1
		antichain[aState] = append(ids, id)
		return id
	}

	record := func(ok bool, cex []int) (bool, []int, InclusionStats) {
		st = InclusionStats{NodesCreated: len(nodes), NodesPruned: pruned, CexLen: len(cex)}
		obs.Inc("automata.antichain.checks", 1)
		obs.Inc("automata.antichain.nodes", int64(st.NodesCreated))
		obs.Inc("automata.antichain.pruned", int64(st.NodesPruned))
		return ok, cex, st
	}

	init := insert(a.Initial(), b.InitialSet(), -1, -1)
	queue := []int{init}
	for qi := 0; qi < len(queue); qi++ {
		id := queue[qi]
		if nodes[id].dead {
			continue
		}
		n, set := nodes[id].aState, nodes[id].set
		for _, n2 := range a.EpsSucc(n) {
			if nid := insert(int(n2), set, id, -1); nid >= 0 {
				queue = append(queue, nid)
			}
		}
		for l := 0; l < a.Alphabet(); l++ {
			succs := a.Succ(n, l)
			if len(succs) == 0 {
				continue
			}
			next := b.Step(set, l)
			if next.Empty() {
				return record(false, buildWord(id, l))
			}
			for _, n2 := range succs {
				if nid := insert(int(n2), next, id, l); nid >= 0 {
					queue = append(queue, nid)
				}
			}
		}
	}
	return record(true, nil)
}

// EquivalentNFADFA checks L(a) = L(d): the forward direction with the
// product check and the backward direction with the antichain method. On
// failure, the returned word witnesses the symmetric difference and fwd
// tells which side failed (fwd true: word ∈ L(a) \ L(d)).
func EquivalentNFADFA(a *NFA, d *DFA) (equal bool, fwd bool, cex []int) {
	if ok, w := IncludedInDFA(a, d); !ok {
		return false, true, w
	}
	if ok, w := IncludedInNFA(d.ToNFA(), a); !ok {
		return false, false, w
	}
	return true, false, nil
}
