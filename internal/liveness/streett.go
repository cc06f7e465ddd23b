package liveness

import (
	"slices"
	"time"

	"tmcheck/internal/core"
	"tmcheck/internal/explore"
)

// The paper observes (§6) that obstruction freedom is formally a Streett
// condition and livelock freedom a close relative. This file provides the
// machinery both liveness engines share: a Streett-satisfaction search
// based on the classical recursive SCC decomposition (find an SCC; any
// pair with its E-edges present but F-edges absent is unsatisfiable
// there, so delete those E-edges and recurse), plus the per-property
// restriction/pair/required-class predicates.
//
// The search operates on a bare adjacency slice rather than a *explore.TS
// so it can run on the closed prefixes the on-the-fly engine exposes at
// its level barriers (states beyond the expanded boundary simply have no
// outgoing edges yet): a loop found in a prefix uses only real edges, so
// it is a real violation of the full system.
//
// Violations are phrased as runs to FIND:
//
//   - obstruction freedom is violated by a run that eventually uses only
//     one thread's non-commit edges and visits that thread's aborts
//     infinitely — a required-class search on a restricted graph;
//   - livelock freedom is violated by a run with finitely many commits
//     that satisfies the Streett pairs (statements of t ⇒ aborts of t) for
//     every thread — a Streett satisfaction on the commit-free graph;
//   - wait freedom is violated by a run that aborts some thread t
//     infinitely while never committing t (other threads may commit).

// StreettPair is an edge-level Streett pair: a run satisfies it when
// visiting E infinitely implies visiting F infinitely.
type StreettPair struct {
	E func(explore.Edge) bool
	F func(explore.Edge) bool
}

// obstructionStreett is the §6 single-pair shortcut for one thread:
// restrict the graph to t's non-commit edges and require an abort of t.
func obstructionStreett(t core.Thread) (restrict func(explore.Edge) bool, require []func(explore.Edge) bool) {
	restrict = func(e explore.Edge) bool { return e.T == t && !isCommit(e) }
	require = []func(explore.Edge) bool{
		func(e explore.Edge) bool { return isAbort(e) && e.T == t },
	}
	return restrict, require
}

// livelockStreett phrases livelock freedom over all threads: on the
// commit-free graph, the pairs (statements of t ⇒ aborts of t) for every
// thread, with at least one abort overall.
func livelockStreett(threads int) (restrict func(explore.Edge) bool, pairs []StreettPair, require []func(explore.Edge) bool) {
	restrict = func(e explore.Edge) bool { return !isCommit(e) }
	for t := core.Thread(0); int(t) < threads; t++ {
		th := t
		pairs = append(pairs, StreettPair{
			E: func(e explore.Edge) bool { return e.T == th },
			F: func(e explore.Edge) bool { return e.T == th && isAbort(e) },
		})
	}
	require = []func(explore.Edge) bool{isAbort}
	return restrict, pairs, require
}

// waitStreett phrases wait freedom for one thread: forbid only t's own
// commits and require an abort of t (other threads may commit freely).
func waitStreett(t core.Thread) (restrict func(explore.Edge) bool, require []func(explore.Edge) bool) {
	restrict = func(e explore.Edge) bool { return !(isCommit(e) && e.T == t) }
	require = []func(explore.Edge) bool{
		func(e explore.Edge) bool { return isAbort(e) && e.T == t },
	}
	return restrict, require
}

// FindStreettRun looks for an infinite run of the graph that eventually
// uses only edges passing restrict, satisfies every Streett pair, and
// visits at least one edge of every required class infinitely often. It
// returns the stem and loop of a witness lasso, or nil loops when no
// such run exists. The search is a pure deterministic function of the
// adjacency, so identical prefixes yield identical lassos — the
// cross-engine equality the on-the-fly liveness engine relies on.
func FindStreettRun(out [][]explore.Edge, restrict func(explore.Edge) bool, pairs []StreettPair, require []func(explore.Edge) bool) (stem, loop []explore.Edge) {
	// Edge idx of state s has the global id base[s]+idx; the recursion
	// disables E-edges of failing pairs in the disabled bitset.
	base := make([]int, len(out)+1)
	for s, es := range out {
		base[s+1] = base[s] + len(es)
	}
	disabled := make([]uint64, (base[len(out)]+63)/64)
	allowed := func(from int32, idx int, e explore.Edge) bool {
		g := base[from] + idx
		return restrict(e) && disabled[g>>6]&(1<<(g&63)) == 0
	}

	// search returns a witness within the given state set (nil = all).
	var search func(states []int32) (stem, loop []explore.Edge)
	search = func(states []int32) ([]explore.Edge, []explore.Edge) {
		inScope := make([]bool, len(out))
		if states == nil {
			for s := range inScope {
				inScope[s] = true
			}
		} else {
			for _, s := range states {
				inScope[s] = true
			}
		}
		comp, comps := sccWithFilter(out, inScope, allowed)
		for cid, members := range comps {
			// Edges fully inside this SCC.
			var inside []edgeRef
			for _, s := range members {
				for i, e := range out[s] {
					if allowed(s, i, e) && comp[e.To] == int32(cid) && inScope[e.To] {
						inside = append(inside, edgeRef{s, i})
					}
				}
			}
			if len(inside) == 0 {
				continue // trivial SCC, no cycle
			}
			// Check the Streett pairs within this SCC.
			var failing []int
			for pi, p := range pairs {
				hasE, hasF := false, false
				for _, ce := range inside {
					e := out[ce.from][ce.idx]
					if p.E(e) {
						hasE = true
					}
					if p.F(e) {
						hasF = true
					}
				}
				if hasE && !hasF {
					failing = append(failing, pi)
				}
			}
			if len(failing) > 0 {
				// Disable the failing pairs' E-edges inside this SCC and
				// recurse on its states.
				var disabledHere []int
				for _, ce := range inside {
					e := out[ce.from][ce.idx]
					for _, pi := range failing {
						if pairs[pi].E(e) {
							g := base[ce.from] + ce.idx
							if disabled[g>>6]&(1<<(g&63)) == 0 {
								disabled[g>>6] |= 1 << (g & 63)
								disabledHere = append(disabledHere, g)
							}
							break
						}
					}
				}
				st, lp := search(members)
				if lp != nil {
					return st, lp
				}
				for _, g := range disabledHere {
					disabled[g>>6] &^= 1 << (g & 63)
				}
				continue
			}
			// Pairs satisfied. Check the required classes.
			reqEdges := make([]edgeRef, 0, len(require)+len(pairs))
			ok := true
			for _, rc := range require {
				found := false
				for _, ce := range inside {
					if rc(out[ce.from][ce.idx]) {
						reqEdges = append(reqEdges, ce)
						found = true
						break
					}
				}
				if !found {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			// Include one F-edge for every pair whose E-edges occur here,
			// so the loop itself satisfies the pairs — unless an already
			// chosen edge covers the pair (keeps the stitched loop short:
			// a required abort doubles as its own thread's F-edge).
			for _, p := range pairs {
				hasE, covered := false, false
				for _, r := range reqEdges {
					if p.F(out[r.from][r.idx]) {
						covered = true
						break
					}
				}
				if covered {
					continue
				}
				for _, ce := range inside {
					if p.E(out[ce.from][ce.idx]) {
						hasE = true
						break
					}
				}
				if !hasE {
					continue
				}
				for _, ce := range inside {
					if p.F(out[ce.from][ce.idx]) {
						reqEdges = append(reqEdges, ce)
						break
					}
				}
			}
			if len(reqEdges) == 0 {
				// Any cycle will do; take the first inside edge.
				reqEdges = append(reqEdges, inside[0])
			}
			return buildStreettLoop(out, inScope, allowed, comp, int32(cid), reqEdges)
		}
		return nil, nil
	}
	return search(nil)
}

// sccWithFilter computes SCCs over the filtered, index-aware edge set,
// returning the component of each state and the member lists of
// components that contain at least one state.
func sccWithFilter(out [][]explore.Edge, inScope []bool, allowed func(int32, int, explore.Edge) bool) ([]int32, [][]int32) {
	n := len(out)
	const unvisited = -1
	index := make([]int32, n)
	low := make([]int32, n)
	onStack := make([]bool, n)
	comp := make([]int32, n)
	for i := range index {
		index[i] = unvisited
		comp[i] = -1
	}
	var stack []int32
	var next, compCount int32
	var comps [][]int32

	type frame struct {
		v  int32
		ei int
	}
	for root := 0; root < n; root++ {
		if !inScope[root] || index[root] != unvisited {
			continue
		}
		call := []frame{{v: int32(root)}}
		index[root] = next
		low[root] = next
		next++
		stack = append(stack, int32(root))
		onStack[root] = true
		for len(call) > 0 {
			f := &call[len(call)-1]
			advanced := false
			for f.ei < len(out[f.v]) {
				i := f.ei
				e := out[f.v][i]
				f.ei++
				if !allowed(f.v, i, e) || !inScope[e.To] {
					continue
				}
				w := e.To
				if index[w] == unvisited {
					index[w] = next
					low[w] = next
					next++
					stack = append(stack, w)
					onStack[w] = true
					call = append(call, frame{v: w})
					advanced = true
					break
				} else if onStack[w] && index[w] < low[f.v] {
					low[f.v] = index[w]
				}
			}
			if advanced {
				continue
			}
			if low[f.v] == index[f.v] {
				var members []int32
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					comp[w] = compCount
					members = append(members, w)
					if w == f.v {
						break
					}
				}
				comps = append(comps, members)
				compCount++
			}
			call = call[:len(call)-1]
			if len(call) > 0 {
				p := &call[len(call)-1]
				if low[f.v] < low[p.v] {
					low[p.v] = low[f.v]
				}
			}
		}
	}
	return comp, comps
}

// buildStreettLoop stitches the required edges into a loop within the SCC
// and finds a stem from the initial state.
func buildStreettLoop(out [][]explore.Edge, inScope []bool, allowed func(int32, int, explore.Edge) bool, comp []int32, cid int32, refs []edgeRef) (stem, loop []explore.Edge) {
	tree := newBFSTree(len(out))
	inSCC := func(v int32, i int, e explore.Edge) bool {
		return allowed(v, i, e) && comp[e.To] == cid && inScope[e.To]
	}
	for i, r := range refs {
		e := out[r.from][r.idx]
		loop = append(loop, e)
		next := refs[(i+1)%len(refs)]
		loop = append(loop, tree.path(out, e.To, next.from, inSCC)...)
	}
	stem = tree.path(out, 0, refs[0].from, func(int32, int, explore.Edge) bool { return true })
	return stem, loop
}

// bfsTree is the scratch of path: each reached state's tree edge, and
// the BFS queue, whose states are the ones to reset after a search.
type bfsTree struct {
	pred  []edgeRef // the edge that reached each state; from -1: unreached
	queue []int32
}

func newBFSTree(n int) *bfsTree {
	t := &bfsTree{pred: make([]edgeRef, n)}
	for i := range t.pred {
		t.pred[i].from = -1
	}
	return t
}

// path returns the edges of a shortest path from src to dst over the
// edges ok admits, taking each state's edges in order, or nil when dst
// is src or unreachable.
func (t *bfsTree) path(out [][]explore.Edge, src, dst int32, ok func(int32, int, explore.Edge) bool) []explore.Edge {
	if src == dst {
		return nil
	}
	t.queue = append(t.queue[:0], src)
	t.pred[src] = edgeRef{from: src}
	defer func() {
		for _, v := range t.queue {
			t.pred[v].from = -1
		}
	}()
	for qi := 0; qi < len(t.queue); qi++ {
		v := t.queue[qi]
		for i, e := range out[v] {
			if !ok(v, i, e) || t.pred[e.To].from >= 0 {
				continue
			}
			t.pred[e.To] = edgeRef{from: v, idx: i}
			t.queue = append(t.queue, e.To)
			if e.To == dst {
				var rev []explore.Edge
				for cur := dst; cur != src; cur = t.pred[cur].from {
					p := t.pred[cur]
					rev = append(rev, out[p.from][p.idx])
				}
				slices.Reverse(rev)
				return rev
			}
		}
	}
	return nil
}

// CheckObstructionFreedomStreett runs the obstruction-freedom search as
// a single full-graph Streett query (no probe schedule) — an
// independent backend the probe-based CheckObstructionFreedom is
// cross-validated against in the tests.
func CheckObstructionFreedomStreett(ts *explore.TS) Result {
	return checkFullGraph(ts, ObstructionFreedom)
}

// CheckLivelockFreedomStreett is the single full-graph Streett query for
// livelock freedom; see CheckObstructionFreedomStreett.
func CheckLivelockFreedomStreett(ts *explore.TS) Result {
	return checkFullGraph(ts, LivelockFreedom)
}

// CheckWaitFreedomStreett is the single full-graph Streett query for
// wait freedom; see CheckObstructionFreedomStreett.
func CheckWaitFreedomStreett(ts *explore.TS) Result { return checkFullGraph(ts, WaitFreedom) }

// checkFullGraph runs one property's lasso search once, on the whole
// built graph; the result reports no probes and no expanded prefix.
func checkFullGraph(ts *explore.TS, p Prop) Result {
	start := time.Now()
	stem, loop := lassoSearch(ts.Out, ts.Alg.Threads(), p)
	res := Result{
		System: ts.Name(), Prop: p, Threads: ts.Alg.Threads(), Vars: ts.Alg.Vars(),
		TMStates: ts.NumStates(), Holds: loop == nil, Stem: stem, Loop: loop,
		Elapsed: time.Since(start), Engine: explore.EngineMaterialized,
	}
	res.record()
	return res
}
