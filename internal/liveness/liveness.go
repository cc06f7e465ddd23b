// Package liveness model checks liveness properties of TM algorithms
// combined with specific contention managers (the paper's §6). Unlike
// safety, liveness depends on the manager: the checks run on the
// transition system of the managed TM applied to the most general program
// — by the liveness reduction theorem (Theorem 5), two threads and one
// variable suffice for TMs with the structural properties P5 and P6.
//
// A violation is a lasso: a reachable loop in the transition system whose
// labels form the looping word bω of a counterexample a·bω.
//
//   - Obstruction freedom fails iff some loop consists of statements of a
//     single thread, contains an abort, and contains no commit (the
//     single-Streett-pair shortcut of §6).
//   - Livelock freedom fails iff some loop contains no commit and every
//     thread with a statement in the loop has an abort in it.
//   - Wait freedom fails iff some loop contains an abort of a thread and
//     no commit of that same thread (other threads may commit); since
//     wait freedom implies livelock freedom, any livelock violation is
//     also a wait-freedom violation.
//
// Two engines run the same search. The on-the-fly engine (onthefly.go)
// unfolds the managed TM lazily through internal/space and probes the
// closed prefix for lassos at BFS level barriers, stopping at the first
// violation; the materialized checks below replay the identical probe
// schedule over the level prefixes of a built *explore.TS. Because the
// numbering is canonical and the probe is a pure function of the prefix,
// verdicts and lasso words are bit-identical across engines and worker
// counts.
package liveness

import (
	"time"

	"tmcheck/internal/explore"
	"tmcheck/internal/guard"
	"tmcheck/internal/obs"
	"tmcheck/internal/space"
	"tmcheck/internal/tm"
)

// Prop selects a liveness property.
type Prop uint8

// The three liveness properties of §2.
const (
	ObstructionFreedom Prop = iota
	LivelockFreedom
	WaitFreedom
)

// Props lists the three properties in the order the drivers check them.
var Props = []Prop{ObstructionFreedom, LivelockFreedom, WaitFreedom}

// String names the property.
func (p Prop) String() string {
	switch p {
	case ObstructionFreedom:
		return "obstruction freedom"
	case LivelockFreedom:
		return "livelock freedom"
	default:
		return "wait freedom"
	}
}

// Key is the short identifier used in metric names and reports.
func (p Prop) Key() string {
	switch p {
	case ObstructionFreedom:
		return "obstruction"
	case LivelockFreedom:
		return "livelock"
	default:
		return "wait"
	}
}

// Result reports one liveness check.
type Result struct {
	// System names the TM (and contention manager, if any).
	System string
	// Prop is the property checked.
	Prop Prop
	// Threads and Vars are the instance bounds.
	Threads, Vars int
	// TMStates is the number of states constructed when the check
	// concluded: the full transition system for the materialized engine,
	// possibly fewer for an on-the-fly check that found its violation
	// before the fixpoint.
	TMStates int
	// Holds reports whether the property holds (no violating loop).
	Holds bool
	// Stem is a path of edges from the initial state to the loop, and Loop
	// the violating loop itself, when the property fails. The looping word
	// is the paper's b in a·bω.
	Stem, Loop []explore.Edge
	// Elapsed is the wall-clock time of the check.
	Elapsed time.Duration
	// BuildElapsed is the wall-clock time spent exploring the managed
	// TM transition system, when the checking entry point built it
	// (zero when the caller passed a pre-built system, and zero for the
	// on-the-fly engine, whose exploration is interleaved with the
	// search and charged to Elapsed). BuildElapsed + Elapsed then adds
	// up to the check's total wall-clock.
	BuildElapsed time.Duration
	// Engine identifies the pipeline that produced this result.
	Engine space.Engine
	// Expanded is the number of states whose successors had been
	// explored when the verdict was reached — the prefix the violating
	// probe ran on, or the full state count when the property holds.
	// Identical across engines and worker counts.
	Expanded int
	// Probes counts the lasso probes the geometric schedule ran before
	// the check concluded.
	Probes int
	// Resumed is the number of TM states seeded from a snapshot before
	// the row explored anything (zero for a fresh build); like
	// BuildElapsed it is charged to the row's first check.
	Resumed int
	// Limit is non-nil when the check stopped at a resource limit
	// before resolving this property; Holds is then meaningless and the
	// keep-going table drivers render the cell as LIMIT(kind). A
	// violation found before the limit tripped keeps its Result (Limit
	// nil) — only unresolved properties are limited.
	Limit *guard.LimitError
}

// LoopWord renders the looping part of the counterexample in the paper's
// Table 3 notation (extended statements, e.g. "a1, (r,1)1, (o,1)1, a2,
// (o,1)2").
func (r Result) LoopWord() string { return explore.FormatRun(r.Loop) }

// edgeRef identifies an edge by its source state and index.
type edgeRef struct {
	from int32
	idx  int
}

func isCommit(e explore.Edge) bool { return e.X.Kind == tm.XCommit }
func isAbort(e explore.Edge) bool  { return e.X.Kind == tm.XAbort }

// CheckObstructionFreedom looks for a loop of one thread's statements that
// aborts without committing.
func CheckObstructionFreedom(ts *explore.TS) Result { return checkTS(ts, ObstructionFreedom) }

// CheckLivelockFreedom looks for a commit-free loop in which every
// participating thread aborts.
func CheckLivelockFreedom(ts *explore.TS) Result { return checkTS(ts, LivelockFreedom) }

// CheckWaitFreedom looks for a loop that aborts some thread t without ever
// committing t — other threads may commit inside the loop.
func CheckWaitFreedom(ts *explore.TS) Result { return checkTS(ts, WaitFreedom) }

// checkTS is the materialized engine: it replays the on-the-fly probe
// schedule over the canonical BFS level prefixes of the built system.
// Running the same pure lasso search on the same prefix sequence is what
// makes the two engines' verdicts and lasso words bit-identical (the
// first due prefix containing a violation determines the counterexample,
// not the full graph) — TestLivenessEngineAgreement asserts it.
func checkTS(ts *explore.TS, p Prop) Result {
	start := time.Now()
	res := newResult(ts, p)
	threads := ts.Alg.Threads()
	total := len(ts.Out)
	// cum[L] counts the states in BFS levels 0..L; level L occupies the
	// id range [cum[L-1], cum[L]) under the canonical numbering.
	sizes := ts.LevelSizes()
	cum := make([]int, len(sizes))
	c := 0
	for i, n := range sizes {
		c += n
		cum[i] = c
	}
	lastProbed := 0
	last := len(cum) - 1
	for k := 0; k <= last; k++ {
		// The barrier sequence of ScanLevels: (cum[k], cum[k+1]) per
		// level boundary, then a final (total, total).
		expanded := cum[k] // cum[last] == total, so the last pair is (total, total)
		interned := total
		if k < last {
			interned = cum[k+1]
		}
		final := expanded == interned
		if !final && !probeDue(expanded, lastProbed) {
			continue
		}
		lastProbed = expanded
		res.Probes++
		view := ts.Out
		if !final {
			view = make([][]explore.Edge, interned)
			copy(view, ts.Out[:expanded])
		}
		if stem, loop := lassoSearch(view, threads, p); loop != nil {
			res.Holds = false
			res.Stem, res.Loop = stem, loop
			res.Expanded = expanded
			break
		}
	}
	if res.Holds {
		res.Expanded = total
	}
	res.Elapsed = time.Since(start)
	res.record()
	return res
}

func newResult(ts *explore.TS, p Prop) Result {
	return Result{
		System:   ts.Name(),
		Prop:     p,
		Threads:  ts.Alg.Threads(),
		Vars:     ts.Alg.Vars(),
		TMStates: ts.NumStates(),
		Holds:    true,
		Engine:   space.EngineMaterialized,
	}
}

// record writes the per-system verdict counters and timings into the
// obs registry, keyed "liveness.<system>.<prop>.*".
func (r Result) record() {
	if !obs.Enabled() {
		return
	}
	key := "liveness." + r.System + "." + r.Prop.Key()
	obs.Inc(key+".checks", 1)
	obs.SetGauge(key+".tm_states", int64(r.TMStates))
	obs.SetGauge(key+".expanded", int64(r.Expanded))
	if r.Probes > 0 {
		obs.Inc(key+".probes", int64(r.Probes))
	}
	if !r.Holds {
		obs.SetGauge(key+".loop_len", int64(len(r.Loop)))
		obs.SetGauge(key+".stem_len", int64(len(r.Stem)))
	}
	obs.AddTime(key+".check", r.Elapsed)
}

// Table3Row pairs the obstruction- and livelock-freedom verdicts for one
// system, as in the paper's Table 3, plus the wait-freedom verdict.
type Table3Row struct {
	Obstruction Result
	Livelock    Result
	Wait        Result
}

// System is a TM algorithm with an optional contention manager.
type System struct {
	Alg tm.Algorithm
	CM  tm.ContentionManager
}

// PaperSystems returns the four systems of the paper's Table 3 at (n, k):
// sequential and 2PL without a manager, DSTM with the aggressive manager,
// and TL2 with the polite manager.
func PaperSystems(n, k int) []System {
	return []System{
		{Alg: tm.NewSeq(n, k)},
		{Alg: tm.NewTwoPL(n, k)},
		{Alg: tm.NewDSTM(n, k), CM: tm.Aggressive{}},
		{Alg: tm.NewTL2(n, k), CM: tm.Polite{}},
	}
}
