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
// Two engines run the same probe loop (onthefly.go). The on-the-fly
// engine feeds it the BFS level barriers of explore.ScanLevels, which
// unfolds the managed TM lazily, and stops at the last property's first
// violation; the materialized checks below feed it the same barrier
// sequence, replayed over a built *explore.TS by explore.TS.Levels.
// Because the numbering is canonical and the probe is a pure function
// of the prefix, verdicts and lasso words are bit-identical across
// engines and worker counts.
package liveness

import (
	"time"

	"tmcheck/internal/explore"
	"tmcheck/internal/guard"
	"tmcheck/internal/obs"
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
	Engine explore.Engine
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

// checkTS is the materialized engine: the on-the-fly engine's probe
// loop over the barrier sequence explore.TS.Levels replays from the
// built system. The same pure lasso search on the same prefix sequence
// is what makes the two engines' verdicts and lasso words bit-identical
// (the first due prefix containing a violation determines the
// counterexample, not the full graph) — TestLivenessEngineAgreement
// asserts it. TMStates reports the whole built system.
func checkTS(ts *explore.TS, p Prop) Result {
	pr := newProber(ts.System, explore.EngineMaterialized, []Prop{p})
	// A replay has no guard, so the only error it can return is the
	// probe loop's own errAllResolved stop.
	_ = ts.Levels(pr.barrier)
	res := pr.finish(nil)[0]
	res.TMStates = ts.NumStates()
	res.record()
	return res
}

// VerifyOpts checks obstruction, livelock and wait freedom of alg×cm
// with the engine opts.Engine selects, failing fast: a resource limit
// stops the check with its *guard.LimitError. On the fly, the three
// properties share one scan, and the row returned with a limit keeps
// the violations its probes found before the stop, marking the rest
// with Result.Limit. Materialized, the system is built once, through
// opts.Persist, and each property is checked on it; the build's time
// and resumed states are charged to the first result.
func VerifyOpts(alg tm.Algorithm, cm tm.ContentionManager, opts Options) (Table3Row, error) {
	return verify(System{Alg: alg, CM: cm}, opts, !opts.NoPhases)
}

// verify is VerifyOpts; stages opens the materialized engine's build-tm
// and check:<prop> spans, which Table 3 rows run without.
func verify(sys System, opts Options, stages bool) (Table3Row, error) {
	if opts.Engine == explore.EngineOnTheFly {
		res, err := checkLazy(sys.Alg, sys.CM, Props, opts.Guard(), !opts.NoPhases)
		if len(res) != len(Props) {
			return Table3Row{}, err
		}
		return Table3Row{Obstruction: res[0], Livelock: res[1], Wait: res[2]}, err
	}
	span := func(name string) func() {
		if !stages {
			return func() {}
		}
		return obs.Phase(name)
	}
	start := time.Now()
	done := span("build-tm")
	ts, err := explore.BuildGuarded(sys.Alg, sys.CM, opts.Guard(), opts.Persist)
	done()
	if err != nil {
		return Table3Row{}, err
	}
	buildElapsed := time.Since(start)
	var res [3]Result
	for i, p := range Props {
		done := span("check:" + p.Key())
		res[i] = checkTS(ts, p)
		done()
	}
	res[0].BuildElapsed, res[0].Resumed = buildElapsed, ts.Resumed
	return Table3Row{Obstruction: res[0], Livelock: res[1], Wait: res[2]}, nil
}

// record writes one check's vitals into the obs registry, keyed
// "liveness.<system>.<prop>.*" for the materialized engine and
// "liveness.<system>.<prop>.otf.*" for the on-the-fly one: states
// constructed and expanded at the verdict (compare the two engines'
// tm_states to see the early-exit win), probes run, the lasso's shape
// or the limit that stopped the check, and its wall-clock (a "check"
// timer, or "search" on the fly, where exploration and probing are
// interleaved).
func (r Result) record() {
	if !obs.Enabled() {
		return
	}
	key, timer := "liveness."+r.System+"."+r.Prop.Key(), ".check"
	if r.Engine == explore.EngineOnTheFly {
		key, timer = key+".otf", ".search"
	}
	obs.Inc(key+".checks", 1)
	obs.SetGauge(key+".tm_states", int64(r.TMStates))
	obs.SetGauge(key+".expanded", int64(r.Expanded))
	// Only a limit stops a probing check before its first probe; the
	// full-graph checks of streett.go run none.
	if r.Probes > 0 || r.Limit != nil {
		obs.Inc(key+".probes", int64(r.Probes))
	}
	if r.Limit != nil {
		obs.Inc(key+".limited", 1)
	} else if !r.Holds {
		obs.SetGauge(key+".loop_len", int64(len(r.Loop)))
		obs.SetGauge(key+".stem_len", int64(len(r.Stem)))
	}
	obs.AddTime(key+timer, r.Elapsed)
}

// Table3Row pairs the obstruction- and livelock-freedom verdicts for one
// system, as in the paper's Table 3, plus the wait-freedom verdict.
type Table3Row struct {
	Obstruction Result
	Livelock    Result
	Wait        Result
}

// System is a TM algorithm with an optional contention manager.
type System = explore.System

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
