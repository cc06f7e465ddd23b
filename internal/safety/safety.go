// Package safety checks TM algorithms against the safety specifications
// (the paper's §5.4): the language of the TM algorithm applied to the most
// general program must be included in the language of the TM specification
// for strict serializability or opacity.
//
// The standard pipeline checks against the deterministic specification,
// where inclusion is a linear product construction; a slower validation
// path checks against the nondeterministic specification with the
// antichain algorithm. By the reduction theorem (paper Theorem 1), a
// verdict for 2 threads and 2 variables extends to all programs for TMs
// satisfying the structural properties P1–P4, and safety without a
// contention manager implies safety with every contention manager (since a
// manager only restricts the language).
package safety

import (
	"time"

	"tmcheck/internal/automata"
	"tmcheck/internal/core"
	"tmcheck/internal/explore"
	"tmcheck/internal/guard"
	"tmcheck/internal/obs"
	"tmcheck/internal/spec"
	"tmcheck/internal/tm"
)

// Result reports one language-inclusion check.
type Result struct {
	// System names the TM (and contention manager, if any).
	System string
	// Prop is the property checked.
	Prop spec.Property
	// Threads and Vars are the instance bounds.
	Threads, Vars int
	// TMStates is the size of the TM transition system (Table 2's "Size").
	TMStates int
	// SpecStates is the size of the specification automaton used.
	SpecStates int
	// Holds reports whether L(TM) ⊆ L(Σ).
	Holds bool
	// Counterexample is a word of the TM outside the specification, when
	// inclusion fails.
	Counterexample core.Word
	// Elapsed is the wall-clock time of the inclusion check itself
	// (excluding construction of the two systems).
	Elapsed time.Duration
	// BuildTMElapsed is the wall-clock time spent exploring the TM
	// transition system, when the checking entry point built it (zero
	// when the caller passed a pre-built system).
	BuildTMElapsed time.Duration
	// BuildSpecElapsed is the wall-clock time spent enumerating the
	// specification automaton; when a shared automaton is reused across
	// checks (Table2), the enumeration is charged to the first check
	// and zero here for the rest. BuildTMElapsed + BuildSpecElapsed +
	// Elapsed then adds up to the total wall-clock of the check.
	BuildSpecElapsed time.Duration
	// Inclusion reports the work counters of the inclusion check. For
	// the on-the-fly engine PairsVisited counts the product pairs the
	// interleaved search constructed.
	Inclusion automata.InclusionStats
	// Engine identifies the pipeline that produced this result.
	Engine Engine
	// FrontierPeak is the peak BFS frontier of the on-the-fly product
	// search (zero for the materialized engine).
	FrontierPeak int
	// Resumed is the number of TM states seeded from a snapshot before
	// this check explored anything (zero for a fresh build).
	Resumed int
	// Limit is non-nil when the check stopped at a resource limit
	// instead of reaching a verdict; Holds is then meaningless and the
	// keep-going table drivers render the row as LIMIT(kind). TMStates
	// reports the states constructed before the stop, when known.
	Limit *guard.LimitError
}

// Check verifies L(ts) ⊆ L(Σd prop) with the deterministic specification,
// in time linear in the product of the two systems.
func Check(ts *explore.TS, prop spec.Property) Result {
	det := spec.NewDet(prop, ts.Alg.Threads(), ts.Alg.Vars())
	specStart := time.Now()
	dfa := det.EnumerateWorkers(1)
	specElapsed := time.Since(specStart)
	res := CheckAgainstDFA(ts, prop, dfa)
	res.BuildSpecElapsed = specElapsed
	return res
}

// CheckAgainstDFA is Check with a pre-built specification automaton, so
// the (comparatively expensive) specification enumeration can be shared
// across many TM checks.
func CheckAgainstDFA(ts *explore.TS, prop spec.Property, dfa *automata.DFA) Result {
	res, err := checkAgainstDFAGuarded(ts, prop, dfa, nil, true)
	if err != nil {
		// Unreachable: a nil guard never trips.
		panic(err)
	}
	return res
}

// checkAgainstDFAGuarded is CheckAgainstDFA consulting a resource
// guard during the inclusion search, for the keep-going drivers: a
// deadline or cancellation interrupts the product walk itself.
// phase=false suppresses the obs span: the phase stack assumes one
// single-threaded spine, so concurrent table rows must not open spans.
func checkAgainstDFAGuarded(ts *explore.TS, prop spec.Property, dfa *automata.DFA, g *guard.Guard, phase bool) (Result, error) {
	if phase {
		done := obs.Phase("inclusion:" + ts.Name() + ":" + prop.Key())
		defer done()
	}
	nfa := ts.DenseNFA()
	start := time.Now()
	ok, cexLetters, st, err := automata.IncludedInDFADenseGuarded(nfa, dfa, g)
	elapsed := time.Since(start)
	if err != nil {
		return Result{}, err
	}
	res := Result{
		System:     ts.Name(),
		Prop:       prop,
		Threads:    ts.Alg.Threads(),
		Vars:       ts.Alg.Vars(),
		TMStates:   ts.NumStates(),
		SpecStates: dfa.NumStates(),
		Holds:      ok,
		Elapsed:    elapsed,
		Inclusion:  st,
		Resumed:    ts.Resumed,
	}
	if !ok {
		res.Counterexample = ts.Alphabet.DecodeWord(cexLetters)
	}
	res.record("dfa")
	return res, nil
}

// record writes the per-system verdict counters and timings into the
// obs registry, keyed "safety.<system>.<prop>.*".
func (r Result) record(pipeline string) {
	if !obs.Enabled() {
		return
	}
	key := "safety." + r.System + "." + r.Prop.Key()
	obs.Inc(key+".checks", 1)
	obs.SetGauge(key+".tm_states", int64(r.TMStates))
	obs.SetGauge(key+".spec_states", int64(r.SpecStates))
	switch pipeline {
	case "dfa":
		obs.Inc(key+".pairs", int64(r.Inclusion.PairsVisited))
	case "antichain":
		obs.Inc(key+".antichain_nodes", int64(r.Inclusion.NodesCreated))
		obs.Inc(key+".antichain_pruned", int64(r.Inclusion.NodesPruned))
	}
	if !r.Holds {
		obs.SetGauge(key+".cex_len", int64(r.Inclusion.CexLen))
	}
	obs.AddTime(key+".inclusion", r.Elapsed)
}

// CheckAgainstNondet verifies L(ts) ⊆ L(Σ prop) directly against the
// nondeterministic specification using the antichain algorithm — the
// validation path for the deterministic pipeline.
func CheckAgainstNondet(ts *explore.TS, prop spec.Property) Result {
	nd := spec.NewNondet(prop, ts.Alg.Threads(), ts.Alg.Vars())
	specStart := time.Now()
	specNFA := nd.Enumerate()
	specElapsed := time.Since(specStart)
	nfa := ts.NFA()
	start := time.Now()
	ok, cexLetters, st := automata.IncludedInNFAStats(nfa, specNFA)
	elapsed := time.Since(start)
	res := Result{
		System:           ts.Name(),
		Prop:             prop,
		Threads:          ts.Alg.Threads(),
		Vars:             ts.Alg.Vars(),
		TMStates:         ts.NumStates(),
		SpecStates:       specNFA.NumStates(),
		Holds:            ok,
		Elapsed:          elapsed,
		BuildSpecElapsed: specElapsed,
		Inclusion:        st,
	}
	if !ok {
		res.Counterexample = ts.Alphabet.DecodeWord(cexLetters)
	}
	res.record("antichain")
	return res
}

// Table2Row pairs the two safety verdicts for one TM, as in the paper's
// Table 2.
type Table2Row struct {
	SS Result
	OP Result
}

// System is a TM algorithm with an optional contention manager.
type System = explore.System

// PaperSystems returns the five systems of the paper's Table 2 at (n, k):
// sequential, 2PL, DSTM, TL2, and modified TL2 with the polite manager.
func PaperSystems(n, k int) []System {
	return []System{
		{Alg: tm.NewSeq(n, k)},
		{Alg: tm.NewTwoPL(n, k)},
		{Alg: tm.NewDSTM(n, k)},
		{Alg: tm.NewTL2(n, k)},
		{Alg: tm.NewTL2Mod(n, k), CM: tm.Polite{}},
	}
}
