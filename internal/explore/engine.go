package explore

import "fmt"

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
