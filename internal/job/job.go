// Package job is the run-orchestration layer of the checker: a
// serializable Spec naming what to verify (system, property or table,
// engine, worker count, resource budgets), a Run that drives the
// safety and liveness engines through internal/guard and returns a
// typed Result, and the shared CLI plumbing (flags.go) the tmcheck and
// tmfuzz binaries build on.
//
// The package exists so that every front-end — the single-shot CLI,
// the tmcheckd daemon, tests — runs checks through exactly one code
// path: cmd/tmcheck renders a local Result, tmcheck -remote renders
// the same Result decoded from the wire, and the bytes match because
// the renderers (render.go) consume only Result fields.
package job

import (
	"fmt"
	"time"

	"tmcheck/internal/space"
	"tmcheck/internal/spec"
	"tmcheck/internal/tm"
)

// Kind selects what a job verifies.
type Kind uint8

const (
	// KindSafety checks one TM against one safety property
	// (tmcheck safety).
	KindSafety Kind = iota
	// KindLiveness checks one managed TM against all three liveness
	// properties (tmcheck liveness).
	KindLiveness
	// KindTable2 reproduces the paper's Table 2 over the registry
	// (tmcheck table2) with the keep-going driver.
	KindTable2
	// KindTable3 reproduces Table 3 (tmcheck table3), keep-going.
	KindTable3
)

// String names the kind as the CLI subcommand that submits it.
func (k Kind) String() string {
	switch k {
	case KindSafety:
		return "safety"
	case KindLiveness:
		return "liveness"
	case KindTable2:
		return "table2"
	case KindTable3:
		return "table3"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// ParseKind parses a subcommand name into a Kind.
func ParseKind(s string) (Kind, error) {
	switch s {
	case "safety":
		return KindSafety, nil
	case "liveness":
		return KindLiveness, nil
	case "table2":
		return KindTable2, nil
	case "table3":
		return KindTable3, nil
	}
	return 0, fmt.Errorf("unknown job kind %q (want safety, liveness, table2 or table3)", s)
}

// Spec is one verification job, serializable over internal/wire. It
// carries every setting the run depends on: the zero values of the
// resource fields mean GOMAXPROCS workers and no limit, exactly as the
// CLI's unset -workers/-maxstates/-timeout/-maxmem flags do, and a
// daemon fills its own defaults into unset fields before running.
type Spec struct {
	// Kind selects the job shape.
	Kind Kind
	// TM and CM name the algorithm and optional contention manager for
	// KindSafety and KindLiveness ("" CM means no manager). The table
	// kinds ignore them — they run the paper's fixed registry.
	TM, CM string
	// Prop is the safety property key for KindSafety: "ss" or "op".
	Prop string
	// Engine is "onthefly" or "materialized"; "" means onthefly (the
	// CLI default).
	Engine string
	// Threads and Vars are the instance bounds; 0 takes the paper's
	// default for the kind — (2,2) for safety and table2, (2,1) for
	// liveness and table3.
	Threads, Vars int
	// Ext includes the extension TMs (norec, etl) and broken variants
	// in a table2 job.
	Ext bool
	// Workers is the worker count; <= 0 means GOMAXPROCS. It sets the
	// on-the-fly safety search's helper goroutines and the table kinds'
	// row fan-out; no verdict depends on it.
	Workers int
	// MaxStates bounds the states any check constructs; <= 0 means
	// unlimited.
	MaxStates int
	// Timeout bounds the job's wall-clock; 0 means no deadline beyond
	// the caller's context.
	Timeout time.Duration
	// MaxMem is the heap cap in bytes; 0 means uncapped.
	MaxMem uint64
	// Checkpoint names a snapshot file the run appends the interned
	// state-space prefix to at every guard barrier, so a killed or
	// limited run loses no exploration ("" disables). Requires the
	// materialized engine and a bit-packable system.
	Checkpoint string
	// Resume names a snapshot file whose interned prefix seeds the run;
	// usually the same path as Checkpoint ("" starts fresh).
	Resume string
	// Spill names a directory for mmap-backed visited-set key storage,
	// letting state spaces larger than RAM page out ("" keeps keys on
	// the heap). Like Checkpoint, it requires the materialized engine.
	Spill string
}

// Normalize fills the kind-dependent defaults in place, exactly as the
// CLI flag defaults would: instance bounds, the default TM for the
// single-system kinds, and the engine name.
func (s *Spec) Normalize() {
	if s.Engine == "" {
		s.Engine = "onthefly"
	}
	defN, defK := 2, 2
	if s.Kind == KindLiveness || s.Kind == KindTable3 {
		defK = 1
	}
	if s.Threads <= 0 {
		s.Threads = defN
	}
	if s.Vars <= 0 {
		s.Vars = defK
	}
	if (s.Kind == KindSafety || s.Kind == KindLiveness) && s.TM == "" {
		s.TM = "dstm"
	}
	if s.Kind == KindSafety && s.Prop == "" {
		s.Prop = "op"
	}
}

// Validate checks the Spec against the TM and contention-manager
// registries and the engine and property vocabularies, so a bad job is
// refused before any state is constructed. It reports the same errors
// the CLI flags would.
func (s Spec) Validate() error {
	if _, err := space.ParseEngine(engineName(s.Engine)); err != nil {
		return err
	}
	if s.Threads < 1 || s.Vars < 1 {
		return fmt.Errorf("job: invalid instance (%d threads, %d variables)", s.Threads, s.Vars)
	}
	if (s.Checkpoint != "" || s.Resume != "" || s.Spill != "") && engineName(s.Engine) != "materialized" {
		return fmt.Errorf("job: -checkpoint/-resume/-spill require -engine materialized (got %q): only the materialized build interns the canonical prefix a snapshot records", engineName(s.Engine))
	}
	switch s.Kind {
	case KindSafety:
		if s.Prop != "ss" && s.Prop != "op" {
			return fmt.Errorf("job: unknown safety property %q (want ss or op)", s.Prop)
		}
		fallthrough
	case KindLiveness:
		if _, err := tm.NewAlgorithm(s.TM, s.Threads, s.Vars); err != nil {
			return err
		}
		if _, err := tm.NewContentionManager(s.CM); err != nil {
			return err
		}
	case KindTable2, KindTable3:
		// The tables run the fixed registry; nothing else to resolve.
	default:
		return fmt.Errorf("job: unknown kind %d", uint8(s.Kind))
	}
	return nil
}

// engineName maps the empty engine to its default without mutating.
func engineName(e string) string {
	if e == "" {
		return "onthefly"
	}
	return e
}

// engine parses the spec's engine field (after Normalize).
func (s Spec) engine() (space.Engine, error) {
	return space.ParseEngine(engineName(s.Engine))
}

// property maps the spec's Prop key onto the spec-package property.
func (s Spec) property() spec.Property {
	if s.Prop == "ss" {
		return spec.StrictSerializability
	}
	return spec.Opacity
}
