package job

import (
	"errors"
	"fmt"
	"time"

	"tmcheck/internal/guard"
	"tmcheck/internal/liveness"
	"tmcheck/internal/safety"
	"tmcheck/internal/spec"
)

// Limit is the wire-serializable mirror of *guard.LimitError. Err
// reconstructs a LimitError whose Error() string and errors.Is
// behavior match the original, so a budget error crossing the wire
// still satisfies errors.Is(err, guard.ErrStates).
type Limit struct {
	// Kind is the guard.Kind that tripped.
	Kind uint8
	// Budget and Visited mirror the state-budget fields.
	Budget, Visited int
	// ElapsedNS mirrors LimitError.Elapsed.
	ElapsedNS int64
	// MaxMemBytes and HeapBytes mirror the memory-watchdog fields.
	MaxMemBytes, HeapBytes uint64
	// Panic is the formatted panic value (KindPanic); the stack does
	// not cross the wire.
	Panic string
	// Snapshot is the checkpoint file holding the progress made before
	// the limit tripped ("" when the run was not checkpointing).
	Snapshot string
}

// LimitFrom captures a *guard.LimitError for serialization; nil in,
// nil out.
func LimitFrom(le *guard.LimitError) *Limit {
	if le == nil {
		return nil
	}
	l := &Limit{
		Kind:        uint8(le.Kind),
		Budget:      le.Budget,
		Visited:     le.Visited,
		ElapsedNS:   le.Elapsed.Nanoseconds(),
		MaxMemBytes: le.MaxMemBytes,
		HeapBytes:   le.HeapBytes,
		Snapshot:    le.Snapshot,
	}
	if le.Kind == guard.KindPanic {
		l.Panic = fmt.Sprint(le.Value)
	}
	return l
}

// Err reconstructs the typed limit error; nil receiver yields nil.
// LimitError messages are deterministic functions of the fields, so
// the reconstructed Error() equals the original's.
func (l *Limit) Err() *guard.LimitError {
	if l == nil {
		return nil
	}
	le := &guard.LimitError{
		Kind:        guard.Kind(l.Kind),
		Budget:      l.Budget,
		Visited:     l.Visited,
		Elapsed:     time.Duration(l.ElapsedNS),
		MaxMemBytes: l.MaxMemBytes,
		HeapBytes:   l.HeapBytes,
		Snapshot:    l.Snapshot,
	}
	if le.Kind == guard.KindPanic {
		le.Value = l.Panic
	}
	return le
}

// Check is one verdict row of a Result — the serializable projection
// of a safety.Result or liveness.Result that the renderers consume.
type Check struct {
	// System names the TM (and manager) as "alg" or "alg+cm".
	System string
	// Prop is the property key: ss, op, obstruction, livelock, wait.
	Prop string
	// Engine is "onthefly" or "materialized".
	Engine string
	// Threads and Vars are the instance bounds.
	Threads, Vars int
	// TMStates and SpecStates are the constructed sizes.
	TMStates, SpecStates int
	// Holds is the verdict (meaningless when Limit is set).
	Holds bool
	// Counterexample is the violating word in the paper's notation
	// (safety), LoopWord the looping word bω (liveness).
	Counterexample, LoopWord string
	// ElapsedNS, BuildTMNS and BuildSpecNS are the stage wall-clocks.
	ElapsedNS, BuildTMNS, BuildSpecNS int64
	// Pairs and CexLen mirror the inclusion stats; FrontierPeak,
	// Expanded and Probes the on-the-fly vitals.
	Pairs, CexLen, FrontierPeak, Expanded, Probes int
	// Resumed is the number of TM states seeded from a -resume snapshot
	// before this check explored anything (0 for a fresh build).
	Resumed int
	// Limit is set when the check stopped at a resource limit.
	Limit *Limit
}

// Result is what Run returns: the normalized Spec it ran and one Check
// per verdict, in the fixed driver order — SS then OP per system for
// table2, obstruction/livelock/wait per system for table3.
type Result struct {
	Spec   Spec
	Checks []Check
}

// Resumed reports the largest snapshot seed across the checks — the
// "resumed from N states" note the CLI prints to stderr (stdout stays
// byte-identical to an uninterrupted run).
func (r *Result) Resumed() int {
	max := 0
	for i := range r.Checks {
		if r.Checks[i].Resumed > max {
			max = r.Checks[i].Resumed
		}
	}
	return max
}

// Limits collects the reconstructed limit errors of all limited
// checks, in check order — the input of the CLI's keep-going summary.
func (r *Result) Limits() []*guard.LimitError {
	var out []*guard.LimitError
	for i := range r.Checks {
		if le := r.Checks[i].Limit.Err(); le != nil {
			out = append(out, le)
		}
	}
	return out
}

// checkFromSafety projects one safety.Result.
func checkFromSafety(r safety.Result) Check {
	c := Check{
		System:       r.System,
		Prop:         r.Prop.Key(),
		Engine:       r.Engine.String(),
		Threads:      r.Threads,
		Vars:         r.Vars,
		TMStates:     r.TMStates,
		SpecStates:   r.SpecStates,
		Holds:        r.Holds,
		ElapsedNS:    r.Elapsed.Nanoseconds(),
		BuildTMNS:    r.BuildTMElapsed.Nanoseconds(),
		BuildSpecNS:  r.BuildSpecElapsed.Nanoseconds(),
		Pairs:        r.Inclusion.PairsVisited,
		CexLen:       r.Inclusion.CexLen,
		FrontierPeak: r.FrontierPeak,
		Resumed:      r.Resumed,
		Limit:        LimitFrom(r.Limit),
	}
	if len(r.Counterexample) > 0 {
		c.Counterexample = r.Counterexample.String()
	}
	return c
}

// checkFromLiveness projects one liveness.Result. The loop word is
// rendered here (edges do not cross the wire); BuildTMNS carries the
// materialized build time when the entry point built the system.
func checkFromLiveness(r liveness.Result) Check {
	c := Check{
		System:    r.System,
		Prop:      r.Prop.Key(),
		Engine:    r.Engine.String(),
		Threads:   r.Threads,
		Vars:      r.Vars,
		TMStates:  r.TMStates,
		Holds:     r.Holds,
		ElapsedNS: r.Elapsed.Nanoseconds(),
		BuildTMNS: r.BuildElapsed.Nanoseconds(),
		Expanded:  r.Expanded,
		Probes:    r.Probes,
		Resumed:   r.Resumed,
		Limit:     LimitFrom(r.Limit),
	}
	if len(r.Loop) > 0 {
		c.LoopWord = r.LoopWord()
	}
	return c
}

// safetyProp maps a Check.Prop key back onto the spec property.
func safetyProp(key string) spec.Property {
	if key == "ss" {
		return spec.StrictSerializability
	}
	return spec.Opacity
}

// AsLimit unwraps the typed limit behind err, or nil.
func AsLimit(err error) *guard.LimitError {
	var le *guard.LimitError
	if errors.As(err, &le) {
		return le
	}
	return nil
}

// ReconstructError rebuilds the error a remote Run returned from its
// serialized message and optional typed limit, preserving errors.Is
// for the guard sentinels: when the message is exactly the limit's
// deterministic rendering the original *guard.LimitError comes back;
// a wrapped message keeps its prefix around the typed error.
func ReconstructError(msg string, l *Limit) error {
	if msg == "" {
		return nil
	}
	if le := l.Err(); le != nil {
		les := le.Error()
		if msg == les {
			return le
		}
		if len(msg) > len(les) && msg[len(msg)-len(les):] == les {
			return &wrappedLimit{prefix: msg[:len(msg)-len(les)], le: le}
		}
	}
	return errors.New(msg)
}

// wrappedLimit reattaches a non-limit prefix around a reconstructed
// limit error while keeping the errors.Is chain intact.
type wrappedLimit struct {
	prefix string
	le     *guard.LimitError
}

func (w *wrappedLimit) Error() string { return w.prefix + w.le.Error() }
func (w *wrappedLimit) Unwrap() error { return w.le }
