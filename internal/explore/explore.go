// Package explore unfolds a TM algorithm — optionally in product with a
// contention manager — applied to the most general program with n threads
// and k variables into an explicit finite transition system (§3.2).
//
// The most general program lets every thread issue every command whenever
// no command of that thread is pending. The explorer supplies the generic
// parts of the TM-algorithm formalism:
//
//   - pending-command bookkeeping (the function γ): a command answered
//     with response ⊥ stays pending and is the only command the thread may
//     continue with;
//   - abort transitions: an abort of thread t is possible exactly when the
//     enabled command is abort enabled (no extended-command transition
//     exists) or the conflict function is true;
//   - the contention-manager product of §3.1: at a conflict only extended
//     commands the manager has a transition for may execute; elsewhere the
//     manager merely observes.
//
// The resulting transition system is the common substrate of the safety
// checker (via its NFA view: completed commands and aborts are letters,
// ⊥-responses are ε-moves) and of the liveness checker (which inspects its
// loops).
package explore

import (
	"fmt"
	"sync"
	"time"

	"tmcheck/internal/automata"
	"tmcheck/internal/core"
	"tmcheck/internal/guard"
	"tmcheck/internal/obs"
	"tmcheck/internal/tm"
)

// pending is a thread's pending command, if any. The zero value means no
// command is pending.
type pending struct {
	Active bool
	C      core.Command
}

// prodState is an explored state: the TM-algorithm state, each thread's
// pending command, and the contention-manager state (nil when exploring
// without a manager).
type prodState struct {
	TM      tm.State
	Pending [tm.MaxThreads]pending
	CM      tm.State
}

// Edge is one transition of the explicit system.
type Edge struct {
	To int32
	// Cmd is the program command being executed and T the thread.
	Cmd core.Command
	T   core.Thread
	// X and R are the extended command executed and the TM's response.
	// Aborts appear as X.Kind == XAbort with R == Resp0.
	X tm.XCmd
	R tm.Resp
	// Emit is the letter of the emitted statement (completed command or
	// abort) in the instance alphabet, or -1 for internal ⊥-steps.
	Emit int16
}

// stateTable is the id-indexed product-state storage of a TS. A packed
// scan keeps its keys and decodes on demand (packedStates), so
// materializing a packed system never boxes every state; boxed scans
// and the restricted builder keep boxed states (boxedStates).
type stateTable interface {
	Len() int
	At(i int32) prodState
}

// boxedStates is the boxed state table of boxed scans and of the
// restricted builder.
type boxedStates []prodState

func (b boxedStates) Len() int             { return len(b) }
func (b boxedStates) At(i int32) prodState { return b[i] }

// System is a TM algorithm with an optional contention manager.
type System struct {
	Alg tm.Algorithm
	CM  tm.ContentionManager // nil when the TM runs without a manager
}

// Name describes the system, e.g. "dstm" or "tl2+polite".
func (s System) Name() string {
	if s.CM == nil {
		return s.Alg.Name()
	}
	return s.Alg.Name() + "+" + s.CM.Name()
}

// TS is the explicit transition system of a TM algorithm applied to the
// most general program.
type TS struct {
	System
	Alphabet core.Alphabet
	Out      [][]Edge // outgoing edges per state; state 0 is initial

	// Resumed is the number of states seeded from a snapshot when the
	// build was resumed (0 for a fresh build). It does not affect the
	// constructed system — numbering and adjacency are bit-identical to
	// an uninterrupted build — only the reporting.
	Resumed int

	// states holds the product states by id; access through StateAt.
	states stateTable

	// nfa caches the NFA view: TS is immutable after Build, so the view
	// is computed at most once and shared by every caller.
	nfaOnce sync.Once
	nfa     *automata.NFA

	// dense caches the CSR automaton view the DFA-inclusion checks walk.
	denseOnce sync.Once
	dense     *automata.DenseNFA
}

// StateAt returns the product state with the given id. Packed systems
// decode it on demand, so treat this as a cold-path accessor (tests,
// witnesses, diagnostics) — the hot analyses walk Out and the NFA view.
func (ts *TS) StateAt(i int32) prodState { return ts.states.At(i) }

// NumStates returns the number of reachable states — the "Size" column of
// the paper's Table 2.
func (ts *TS) NumStates() int {
	if ts.states == nil {
		return 0
	}
	return ts.states.Len()
}

// NumEdges returns the total number of transitions.
func (ts *TS) NumEdges() int {
	n := 0
	for _, es := range ts.Out {
		n += len(es)
	}
	return n
}

// BuildWorkers explores the TM algorithm applied to the most general
// program on the algorithm's own thread and variable bounds; cm may be
// nil. The exploration is one sequential scan, so the worker count
// changes nothing: the transition system — state numbering, edge
// order, and every downstream verdict — is the same for every value
// (TestEngineEquivalence checks it on the registry). Callers without a
// count of their own pass 1.
//
// The exploration records its vitals into the obs registry under
// "explore.<system>.*": reachable states, edges, ε-steps (pending ⊥
// responses), abort transitions, BFS frontier shape, intern-table
// collisions, and the build wall-clock (from which states/sec follows).
//
// BuildWorkers is unguarded: a panicking TM algorithm panics through.
// Callers that need limits or panic isolation use BuildGuarded.
func BuildWorkers(alg tm.Algorithm, cm tm.ContentionManager, workers int) *TS {
	ts, err := BuildGuarded(alg, cm, nil, nil) // unbounded: only a TM panic can fail it
	if err != nil {
		panic(err)
	}
	return ts
}

// BuildGuarded is the guarded builder: the exploration honors the
// guard's context (deadline and cancellation), state budget, and heap
// watchdog, all consulted before every state is expanded, so a budget
// trips at an exact state count; and a panic in the TM algorithm is
// isolated into a *guard.LimitError instead of crashing. A nil guard
// sets no limits.
//
// A non-nil prov supplies the persistence hooks for this system: the
// scan seeds from Persist.Resume, streams level deltas into
// Persist.Sink, and allocates its flat key storage through
// Persist.Grow. The resulting system — numbering, adjacency, verdicts — is
// bit-identical to an uninterrupted unpersisted build; TS.Resumed
// reports how many states came from the snapshot.
func BuildGuarded(alg tm.Algorithm, cm tm.ContentionManager, g *guard.Guard, prov PersistProvider) (*TS, error) {
	var p *Persist
	if prov != nil {
		var err error
		if p, err = prov(alg, cm); err != nil {
			return nil, err
		}
	}
	start := time.Now()
	ts := &TS{System: System{alg, cm}, Alphabet: core.Alphabet{Threads: alg.Threads(), Vars: alg.Vars()}}
	out, states, resumed, err := scan(alg, cm, g, nil, p)
	if err != nil {
		return nil, err
	}
	ts.Out, ts.states, ts.Resumed = out, states, resumed
	ts.record(start)
	return ts, nil
}

// Barrier is the level-boundary hook of ScanLevels. It fires once per
// BFS level with the adjacency constructed so far: len(out) ==
// expanded, and the states with ids below expanded have their outgoing
// edges resolved in out; states in [expanded, interned) are discovered
// but not yet expanded and have no entry. Every edge target is below
// interned. The final call of a completed scan has expanded == interned
// == the total state count. A non-nil return stops the scan and is
// returned verbatim.
//
// The barrier sequence is (cum(0), cum(1)), (cum(1), cum(2)), …,
// (total, total), where cum(L) counts the states in BFS levels 0..L —
// a function of the canonical numbering alone, which TS.Levels replays
// over a built system.
type Barrier func(out [][]Edge, interned, expanded int) error

// ScanLevels lazily unfolds the TM×CM product in canonical scan order,
// calling barrier at every BFS level boundary, without materializing a
// TS. The on-the-fly liveness engine drives its lasso probes from this.
// The guard's context, state budget, and heap watchdog are consulted
// before every state is expanded, and before the barrier hook at the
// same boundary — so a blown budget is reported in preference to
// whatever the hook would have found there, and a cancelled or
// timed-out scan still observes a prefix of the canonical barrier
// sequence.
func ScanLevels(alg tm.Algorithm, cm tm.ContentionManager, g *guard.Guard, barrier Barrier) error {
	_, _, _, err := scan(alg, cm, g, barrier, nil)
	return err
}

// Levels replays over the built system the barrier sequence ScanLevels
// fires while exploring it: the same (interned, expanded) pairs, with
// out the first expanded lists of ts.Out. It walks the scan's loop over
// the finished adjacency — a level ends at the state the last barrier
// had interned, and the interned count at a boundary is one past the
// largest successor id of the states expanded so far, since ids are
// first-sight — so the two sequences agree by construction. A non-nil
// return of barrier stops the replay and is returned verbatim.
func (ts *TS) Levels(barrier Barrier) error {
	levelEnd, interned := 1, 1
	for qi, es := range ts.Out {
		if qi == levelEnd {
			if err := barrier(ts.Out[:qi:qi], interned, qi); err != nil {
				return err
			}
			levelEnd = interned
		}
		for _, e := range es {
			interned = max(interned, int(e.To)+1)
		}
	}
	return barrier(ts.Out, len(ts.Out), len(ts.Out))
}

// scan is the exploration engine under BuildGuarded and ScanLevels:
// scan-order BFS to the fixpoint, with an optional guard, an optional
// per-level barrier hook and optional persistence hooks, inside a
// panic-isolation capture. Every product runs on scanPacked: products
// whose TM and manager both pack (packedFor) on their bit-packed keys,
// the others on the boxed core's numbers, with bit-identical adjacency
// and numbering. Checkpoint/resume and spill need the packed keys (a
// boxed number means nothing in another process), so a persisting build
// of an unpackable product fails loudly instead of silently discarding
// the work it was asked to keep.
func scan(alg tm.Algorithm, cm tm.ContentionManager, g *guard.Guard, barrier Barrier, p *Persist) (out [][]Edge, states stateTable, resumed int, err error) {
	pc, packed := coreFor(alg, cm)
	if p != nil && !packed && (p.Resume != nil || p.Sink != nil || p.Grow != nil) {
		return nil, nil, 0, errNotPackable(alg, cm)
	}
	err = guard.Capture(func() error {
		var ierr error
		out, states, resumed, ierr = scanPacked(pc, alg, cm, g, barrier, p)
		return ierr
	})
	if err != nil {
		return nil, nil, resumed, err
	}
	if !packed {
		// The scan interns each boxed number as the core assigns it, so
		// numbers are ids: the boxed states alone are the table, and the
		// core's index and the scan's keys can go.
		states = boxedStates(pc.(*boxedCore).states)
	}
	return out, states, resumed, nil
}

// newLevelEmitter returns the per-barrier telemetry publisher for one
// scan — nil when the bus is disabled, so callers pay a single branch.
// The returned function is called with (interned, expanded) at each
// level boundary and publishes an EvLevelDone carrying the cumulative
// states, the unexpanded frontier, the sampled heap, and the time since
// the previous boundary.
func newLevelEmitter(name string) func(interned, expanded int) {
	if !obs.EventsEnabled() {
		return nil
	}
	last := time.Now()
	level := int32(0)
	return func(interned, expanded int) {
		now := time.Now()
		obs.Emit(obs.Event{
			Kind:      obs.EvLevelDone,
			Name:      name,
			Level:     level,
			States:    int64(interned),
			Frontier:  int64(interned - expanded),
			HeapBytes: obs.SampledHeap(),
			DurNS:     now.Sub(last).Nanoseconds(),
		})
		last = now
		level++
	}
}

// record batches the exploration statistics into the obs registry, so
// the hot loops above carry no per-edge instrumentation cost. Every
// counter and gauge is derived from the final graph, so it is the same
// on every run.
func (ts *TS) record(start time.Time) {
	if !obs.Enabled() {
		return
	}
	eps, aborts := 0, 0
	for _, es := range ts.Out {
		for _, e := range es {
			if e.Emit < 0 {
				eps++
			}
			if e.X.Kind == tm.XAbort {
				aborts++
			}
		}
	}
	// Reconstruct the sequential engine's queue-backlog peak from the
	// canonical numbering: when state qi is dequeued, the states known
	// so far are exactly those with ids below the largest successor id
	// seen while processing 0..qi-1.
	maxFrontier, known := 1, 1
	for qi := range ts.Out {
		if f := known - qi; f > maxFrontier {
			maxFrontier = f
		}
		for _, e := range ts.Out[qi] {
			if int(e.To) >= known {
				known = int(e.To) + 1
			}
		}
	}
	key := "explore." + ts.Name()
	obs.Inc(key+".builds", 1)
	obs.Inc(key+".states", int64(ts.NumStates()))
	obs.Inc(key+".edges", int64(ts.NumEdges()))
	obs.Inc(key+".eps_steps", int64(eps))
	obs.Inc(key+".abort_edges", int64(aborts))
	obs.Inc(key+".intern.dup_hits", int64(ts.NumEdges()-(ts.NumStates()-1)))
	obs.MaxGauge(key+".frontier_max", int64(maxFrontier))
	recordFrontierHist(key, ts.LevelSizes())
	obs.AddTime(key+".build", time.Since(start))
}

// LevelSizes returns the BFS level populations of the final graph.
// Because the numbering is first-sight scan order, level L occupies the
// contiguous id range [cum(L-1), cum(L)).
func (ts *TS) LevelSizes() []int {
	dist := make([]int32, len(ts.Out))
	for i := range dist {
		dist[i] = -1
	}
	dist[0] = 0
	sizes := []int{1}
	queue := []int32{0}
	for qi := 0; qi < len(queue); qi++ {
		s := queue[qi]
		for _, e := range ts.Out[s] {
			if dist[e.To] < 0 {
				dist[e.To] = dist[s] + 1
				for int(dist[e.To]) >= len(sizes) {
					sizes = append(sizes, 0)
				}
				sizes[dist[e.To]]++
				queue = append(queue, e.To)
			}
		}
	}
	return sizes
}

// frontierBounds are the level-population histogram buckets recorded
// under "<key>.frontier.le_<bound>" (plus a final gt_4096 bucket).
var frontierBounds = []int{1, 4, 16, 64, 256, 1024, 4096}

// recordFrontierHist records the per-level frontier histogram: how many
// BFS levels had ≤ bound newly discovered states.
func recordFrontierHist(key string, sizes []int) {
	obs.Inc(key+".frontier.levels", int64(len(sizes)))
	peak := 0
	for _, n := range sizes {
		if n > peak {
			peak = n
		}
		bucket := key + ".frontier.gt_4096"
		for _, b := range frontierBounds {
			if n <= b {
				bucket = fmt.Sprintf("%s.frontier.le_%d", key, b)
				break
			}
		}
		obs.Inc(bucket, 1)
	}
	obs.MaxGauge(key+".frontier_peak", int64(peak))
}

// NFA views the transition system as an automaton over the instance
// alphabet: emitting edges become letter transitions, internal ⊥-steps
// become ε-transitions. Its language is L(A), the language of the TM
// algorithm (§3.2). The view is built once and cached — TS is immutable
// after Build — so repeated safety checks against different properties
// share it.
func (ts *TS) NFA() *automata.NFA {
	ts.nfaOnce.Do(func() { ts.nfa = ts.buildNFA() })
	return ts.nfa
}

func (ts *TS) buildNFA() *automata.NFA {
	a := automata.NewNFA(ts.Alphabet.Size())
	for i := 1; i < ts.NumStates(); i++ {
		a.AddState()
	}
	for s, es := range ts.Out {
		for _, e := range es {
			if e.Emit >= 0 {
				a.AddEdge(s, int(e.Emit), int(e.To))
			} else {
				a.AddEps(s, int(e.To))
			}
		}
	}
	return a
}

// DenseNFA views the transition system as a CSR automaton — the same
// language and per-state successor order as NFA(), flattened into the
// edge array the materialized engine's automata.Walk iterates. Built
// once and cached, like the boxed view, and built directly from the
// edge lists (not via NFA()), so the safety pipeline never materializes
// the boxed per-state-per-letter slices.
func (ts *TS) DenseNFA() *automata.DenseNFA {
	ts.denseOnce.Do(func() { ts.dense = ts.buildDenseNFA() })
	return ts.dense
}

func (ts *TS) buildDenseNFA() *automata.DenseNFA {
	b := automata.NewDenseBuilder(ts.Alphabet.Size())
	for s := range ts.Out {
		b.StartState()
		for _, e := range ts.Out[s] {
			if e.Emit >= 0 {
				b.Edge(int(e.Emit), int(e.To))
			} else {
				b.Eps(int(e.To))
			}
		}
	}
	return b.Finish(0)
}

// InLanguage reports whether the word is in L(A), by NFA simulation.
func (ts *TS) InLanguage(w core.Word) bool {
	return ts.NFA().Accepts(ts.Alphabet.EncodeWord(w))
}

// Run replays a scheduler (a sequence of thread choices) from the initial
// state, resolving nondeterminism by taking the first enabled transition of
// the scheduled thread whose extended command is not an abort, falling
// back to an abort when nothing else is enabled. It returns the sequence
// of executed edges, mirroring the runs of the paper's Table 1. The replay
// stops early if the scheduled thread has no transition at all.
func (ts *TS) Run(schedule []core.Thread) []Edge {
	var out []Edge
	cur := int32(0)
	for _, t := range schedule {
		var chosen *Edge
		for i := range ts.Out[cur] {
			e := &ts.Out[cur][i]
			if e.T != t {
				continue
			}
			if e.X.Kind != tm.XAbort {
				chosen = e
				break
			}
			if chosen == nil {
				chosen = e
			}
		}
		if chosen == nil {
			return out
		}
		out = append(out, *chosen)
		cur = chosen.To
	}
	return out
}

// WordOf extracts the emitted word of a sequence of edges.
func (ts *TS) WordOf(run []Edge) core.Word {
	var w core.Word
	for _, e := range run {
		if e.Emit >= 0 {
			w = append(w, ts.Alphabet.Decode(int(e.Emit)))
		}
	}
	return w
}

// FormatRun renders a run in the paper's Table 1 notation, e.g.
// "(rl,1)1, (r,1)1, (wl,2)1, ...".
func FormatRun(run []Edge) string {
	s := ""
	for i, e := range run {
		if i > 0 {
			s += ", "
		}
		s += fmt.Sprintf("%s%d", e.X, e.T+1)
	}
	return s
}
