package explore

import (
	"context"
	"fmt"

	"tmcheck/internal/guard"
)

// Engine selects how a check is executed. It is the vocabulary of the
// -engine flag of cmd/tmcheck, shared by the safety and liveness
// checkers: both offer a classic materialize-then-check pipeline and a
// lazy search that expands states only as it reaches them and stops
// early.
type Engine uint8

const (
	// EngineMaterialized is the classic build-then-check pipeline: the
	// full transition system (and, for safety, the full specification
	// DFA) is constructed before any property is examined. Its peak
	// memory is the full system even when a counterexample is shallow.
	EngineMaterialized Engine = iota
	// EngineOnTheFly interleaves exploration with checking: states are
	// constructed only as the search reaches them and the check stops at
	// the first violation. It is the default engine of cmd/tmcheck.
	EngineOnTheFly
)

// String names the engine as accepted by the -engine flag.
func (e Engine) String() string {
	if e == EngineOnTheFly {
		return "onthefly"
	}
	return "materialized"
}

// ParseEngine parses an -engine flag value.
func ParseEngine(s string) (Engine, error) {
	switch s {
	case "onthefly":
		return EngineOnTheFly, nil
	case "materialized":
		return EngineMaterialized, nil
	}
	return EngineMaterialized, fmt.Errorf("unknown engine %q (want onthefly or materialized)", s)
}

// Options configures one check or table of the safety and liveness
// checkers; safety.Options and liveness.Options are this type.
type Options struct {
	// Workers is the worker count; <= 0 means GOMAXPROCS. At one,
	// nothing starts. Above one, a single on-the-fly safety check
	// explores its TM ahead of its product loop on two goroutines, a
	// stage and its helper, whatever the count (NewLazyWorkers), and
	// the Table2 and Table3 drivers fan their rows out over a pool of
	// Workers goroutines, each row at one worker. Every other loop is
	// sequential, and every Result field but the elapsed times is the
	// same at every count.
	Workers int
	// Engine selects the pipeline; the zero value is
	// EngineMaterialized. liveness.CheckOnTheFlyOpts and
	// CheckAllOnTheFlyOpts name their engine and ignore it.
	Engine Engine
	// MaxStates bounds the states a check constructs; <= 0 means
	// unbounded. A blown budget stops the check with a
	// *guard.LimitError.
	MaxStates int
	// MaxMem is the heap cap in bytes; 0 means uncapped.
	MaxMem uint64
	// Ctx carries the check's deadline and cancellation; nil means no
	// deadline. The engines consult it at the same points where they
	// check the state budget.
	Ctx context.Context
	// NoPhases suppresses the obs phase spans (the phase stack assumes a
	// single-threaded spine); counters and bus events still record.
	// Front-ends running checks concurrently (tmcheckd) set it.
	NoPhases bool
	// Persist supplies checkpoint/resume and disk-spill wiring for the
	// TM exploration; nil runs plain. Only the materialized engine
	// interns the canonical prefix a snapshot records: safety.VerifyOpts
	// refuses Persist with EngineOnTheFly, and the other on-the-fly
	// entries run without it.
	Persist PersistProvider
}

// Guard builds one check's guard from the options.
func (o Options) Guard() *guard.Guard {
	return guard.New(o.Ctx, o.MaxStates, o.MaxMem)
}
