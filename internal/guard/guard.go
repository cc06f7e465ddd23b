// Package guard is the resource-governance layer of the checker: one
// vocabulary for every way a check can stop before its fixpoint, and
// one object — the Guard — that the engines consult at the same points
// where they already check the state budget.
//
// A stopped check reports a *LimitError whose Kind says what tripped:
// the state budget (states), a -timeout deadline (wall-clock), the
// -maxmem heap watchdog (memory), Ctrl-C (cancelled), or a panic in
// user-supplied TM code isolated by Capture or the parbfs worker pool
// (panic). All kinds are graceful refusals, not crashes: the process
// keeps running, partial results stay valid, and the keep-going table
// drivers render the row as LIMIT(kind) and move on.
//
// Determinism: the engines consult the guard once per state or product
// pair — exactly where the state budget has always been checked — so a
// budget trips at the same state count at every worker count, and a
// cancelled or timed-out scan still observes a prefix of the canonical
// barrier sequence.
package guard

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"time"

	"tmcheck/internal/chaos"
	"tmcheck/internal/obs"
)

// Kind classifies what stopped a check.
type Kind uint8

const (
	// KindStates is the state budget (-maxstates). It is the zero value,
	// so a LimitError literal without a Kind means "state budget
	// exceeded".
	KindStates Kind = iota
	// KindTime is a wall-clock deadline (-timeout).
	KindTime
	// KindMemory is the heap watchdog (-maxmem).
	KindMemory
	// KindCancelled is an external cancellation (Ctrl-C / SIGTERM).
	KindCancelled
	// KindPanic is a panic in user-supplied code, isolated into an
	// error by Capture or by the parbfs worker pool.
	KindPanic
)

// String names the kind for reports and LimitError messages.
func (k Kind) String() string {
	switch k {
	case KindStates:
		return "states"
	case KindTime:
		return "wall-clock"
	case KindMemory:
		return "memory"
	case KindCancelled:
		return "cancelled"
	case KindPanic:
		return "panic"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Label is the short form used in LIMIT(...) table cells and metric
// keys.
func (k Kind) Label() string {
	switch k {
	case KindStates:
		return "states"
	case KindTime:
		return "time"
	case KindMemory:
		return "mem"
	case KindCancelled:
		return "cancelled"
	case KindPanic:
		return "panic"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Sentinels for errors.Is: ErrLimit matches every *LimitError, the
// others match one kind each. A KindTime error additionally matches
// context.DeadlineExceeded and a KindCancelled error matches
// context.Canceled, so callers holding only a context see the class
// they expect.
var (
	ErrLimit     = errors.New("guard: resource limit reached")
	ErrStates    = errors.New("guard: state budget exceeded")
	ErrTimeout   = errors.New("guard: wall-clock limit exceeded")
	ErrMemory    = errors.New("guard: memory limit exceeded")
	ErrCancelled = errors.New("guard: cancelled")
	ErrPanic     = errors.New("guard: panic isolated")
)

// LimitError reports that a check stopped at a resource limit. It is a
// graceful refusal, not a crash: the caller can retry with a larger
// limit, a lazier engine, or a smaller instance.
type LimitError struct {
	// Kind says which limit tripped; the zero value is KindStates.
	Kind Kind
	// Budget is the configured state cap (KindStates).
	Budget int
	// Visited is the number of states constructed or visited when the
	// limit tripped. For a state budget it is the count at the first
	// poll past Budget, which one expansion may overshoot by the fresh
	// successors it interned; it is the same at every worker count.
	Visited int
	// Elapsed is the wall-clock spent when the limit tripped
	// (KindTime and KindCancelled).
	Elapsed time.Duration
	// MaxMemBytes and HeapBytes are the configured cap and the sampled
	// heap when the watchdog tripped (KindMemory).
	MaxMemBytes, HeapBytes uint64
	// Value is the recovered panic value and Stack the goroutine stack
	// at the recovery point (KindPanic).
	Value any
	Stack []byte
	// Snapshot, when non-empty, is the checkpoint file holding the work
	// done up to the stop barrier; the run resumes from it with the
	// same -checkpoint flag. The job layer annotates it — the guard
	// itself never knows the path.
	Snapshot string
}

// Error names the flag that raises the limit, so the CLI needs no
// extra hinting layer. The message is a deterministic function of the
// fields — the wire layer depends on that to reconstruct errors
// exactly.
func (e *LimitError) Error() string {
	var msg string
	switch e.Kind {
	case KindStates:
		if e.Budget > 0 {
			msg = fmt.Sprintf("state budget exhausted at %d states; rerun with -maxstates %d",
				e.Visited, 2*e.Budget)
		} else {
			msg = fmt.Sprintf("state budget exhausted at %d states", e.Visited)
		}
	case KindTime:
		msg = fmt.Sprintf("wall-clock limit reached after %v; rerun with a larger -timeout",
			e.Elapsed.Round(time.Millisecond))
	case KindMemory:
		msg = fmt.Sprintf("memory limit reached: heap %s over -maxmem %s; rerun with a larger -maxmem or a smaller instance (-n/-k)",
			FormatBytes(e.HeapBytes), FormatBytes(e.MaxMemBytes))
	case KindCancelled:
		msg = fmt.Sprintf("check cancelled after %v", e.Elapsed.Round(time.Millisecond))
	case KindPanic:
		msg = fmt.Sprintf("panic isolated during check: %v", e.Value)
	default:
		msg = fmt.Sprintf("guard: limit %v reached", e.Kind)
	}
	if e.Snapshot != "" {
		msg += fmt.Sprintf("; progress saved to snapshot %s", e.Snapshot)
	}
	return msg
}

// Is makes errors.Is match ErrLimit, the kind's sentinel, and — for
// deadlines and cancellation — the standard context errors.
func (e *LimitError) Is(target error) bool {
	if target == ErrLimit {
		return true
	}
	switch e.Kind {
	case KindStates:
		return target == ErrStates
	case KindTime:
		return target == ErrTimeout || target == context.DeadlineExceeded
	case KindMemory:
		return target == ErrMemory
	case KindCancelled:
		return target == ErrCancelled || target == context.Canceled
	case KindPanic:
		return target == ErrPanic
	}
	return false
}

// The ReadMemStats watchdog samples on an adaptive schedule counted in
// states — the progress count every Check call carries — not in calls
// or wall-clock time. The engines consult the guard once per state or
// product pair, the fuzzer once per word (many specification states),
// so only a count of states measures allocation at every granularity,
// and a loop that allocates faster than any timer fires is still
// sampled.
// After each sample the next one waits for the states that, at the
// bytes allocated per state since the last sample, would consume a
// quarter of the remaining headroom, clamped to [1, memCheckMaxStates].
// A wall-clock ceiling, memCheckMaxWait, keeps a caller whose count
// stalls from going unsampled.
const (
	memCheckMaxStates = 1024
	memCheckMaxWait   = 50 * time.Millisecond
)

// Guard bundles the limits one check runs under: a context (deadline
// and cancellation), a state budget, and a heap cap. The zero of every
// field means "no limit of that kind"; a nil *Guard never trips.
//
// A Guard is consulted from one goroutine at a time (the engine spine
// that drives the scan); per-check guards must not be shared across
// concurrently running checks.
type Guard struct {
	ctx       context.Context
	start     time.Time
	maxStates int
	maxMem    uint64
	// memNext is the state count at which the next heap sample is due;
	// lastStates, lastAlloc and lastMem are the state count,
	// MemStats.TotalAlloc and time of the last sample (lastMem is zero
	// before the first).
	memNext, lastStates int
	lastAlloc           uint64
	lastMem             time.Time
}

// New returns a guard over ctx (nil means context.Background()) with
// the given state budget and heap cap; zero disables either limit.
func New(ctx context.Context, maxStates int, maxMem uint64) *Guard {
	if ctx == nil {
		ctx = context.Background()
	}
	if maxStates < 0 {
		maxStates = 0
	}
	return &Guard{ctx: ctx, start: time.Now(), maxStates: maxStates, maxMem: maxMem}
}

// MaxStates returns the guard's state budget (0 = unlimited).
func (g *Guard) MaxStates() int {
	if g == nil {
		return 0
	}
	return g.maxStates
}

// Context returns the guard's context (context.Background() for a nil
// guard).
func (g *Guard) Context() context.Context {
	if g == nil || g.ctx == nil {
		return context.Background()
	}
	return g.ctx
}

// WithStates returns a guard sharing this guard's context, start time
// and heap cap but with its own state budget — the derived budgets of
// the staged materialized pipeline.
func (g *Guard) WithStates(maxStates int) *Guard {
	if maxStates < 0 {
		maxStates = 0
	}
	if g == nil {
		return &Guard{ctx: context.Background(), start: time.Now(), maxStates: maxStates}
	}
	return &Guard{ctx: g.ctx, start: g.start, maxStates: maxStates, maxMem: g.maxMem}
}

// Active reports whether the guard can ever trip; engines hoist this
// out of their hot loops so an unlimited scan pays nothing per state.
func (g *Guard) Active() bool {
	return g != nil && (g.maxStates > 0 || g.maxMem > 0 || g.ctx.Done() != nil)
}

// Check is the single consultation point of the engines: called with
// the number of states constructed so far, it returns a *LimitError
// when the context is done (KindCancelled or KindTime), the state
// budget is exceeded, or the sampled heap is over the cap — nil
// otherwise. Cancellation is checked first so a Ctrl-C is reported as
// such even when the budget is also blown.
func (g *Guard) Check(states int) error {
	if g == nil {
		return nil
	}
	if chaos.Fire(chaos.SiteGuardMem) {
		// A planted watchdog trip: sample the real heap so the message
		// stays truthful, then report it as over-cap. The soak runner
		// asserts this surfaces as a typed KindMemory limit.
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return trip(&LimitError{
			Kind: KindMemory, Visited: states, Elapsed: time.Since(g.start),
			MaxMemBytes: ms.HeapAlloc, HeapBytes: ms.HeapAlloc,
		})
	}
	if g.ctx.Done() != nil {
		if err := g.ctx.Err(); err != nil {
			kind := KindCancelled
			if errors.Is(err, context.DeadlineExceeded) {
				kind = KindTime
			}
			return trip(&LimitError{Kind: kind, Visited: states, Elapsed: time.Since(g.start)})
		}
	}
	if g.maxStates > 0 && states > g.maxStates {
		return trip(&LimitError{Kind: KindStates, Budget: g.maxStates, Visited: states})
	}
	if g.maxMem > 0 && (states >= g.memNext || time.Since(g.lastMem) >= memCheckMaxWait) {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		// The watchdog is the one place that already pays for
		// ReadMemStats, so it also publishes the heap vitals the
		// after-the-run report used to silently discard.
		obs.Inc("guard.mem.samples", 1)
		obs.MaxGauge("guard.heap.max_bytes", int64(ms.HeapAlloc))
		if ms.HeapAlloc > g.maxMem {
			return trip(&LimitError{
				Kind: KindMemory, Visited: states, Elapsed: time.Since(g.start),
				MaxMemBytes: g.maxMem, HeapBytes: ms.HeapAlloc,
			})
		}
		advanced := states - g.lastStates
		if g.lastMem.IsZero() {
			advanced = 0 // no rate is known at the first sample
		}
		g.memNext = states + nextMemCheck(advanced, ms.TotalAlloc-g.lastAlloc, ms.HeapAlloc, g.maxMem)
		g.lastStates, g.lastAlloc, g.lastMem = states, ms.TotalAlloc, time.Now()
	}
	return nil
}

// nextMemCheck returns how many states the watchdog waits before its
// next heap sample. advanced is the number of states the interval that
// just ended covered (0 or less when no rate is known: the first
// sample, or a count that stalled or restarted) and allocated the bytes
// allocated over it — TotalAlloc growth, so a GC between samples does
// not read as an idle heap. The result is the number of states that, at
// that many bytes per state, would consume a quarter of the headroom
// left under the cap, clamped to [1, memCheckMaxStates].
func nextMemCheck(advanced int, allocated, heap, cap uint64) int {
	if advanced <= 0 || heap >= cap {
		return 1
	}
	if allocated == 0 {
		return memCheckMaxStates
	}
	next := float64(cap-heap) * float64(advanced) / (4 * float64(allocated))
	if next < 1 {
		return 1
	}
	if next > memCheckMaxStates {
		return memCheckMaxStates
	}
	return int(next)
}

// trip publishes the limit on the telemetry bus (an EvLimitHit, or an
// EvPanicRecovered for isolated panics) and returns it, so every way a
// check can stop shows up in the live event stream and the flight
// recorder without per-call-site wiring.
func trip(le *LimitError) *LimitError {
	if obs.EventsEnabled() {
		kind := obs.EvLimitHit
		if le.Kind == KindPanic {
			kind = obs.EvPanicRecovered
		}
		obs.Emit(obs.Event{
			Kind:      kind,
			States:    int64(le.Visited),
			HeapBytes: le.HeapBytes,
			Detail:    le.Kind.Label() + ": " + le.Error(),
		})
	}
	return le
}

// Capture runs f and converts a panic into a *LimitError{Kind:
// KindPanic} carrying the recovered value and stack, so user-supplied
// TM code that crashes degrades into an error instead of killing the
// process. A recovered value that already is a *LimitError (a parbfs
// worker recovery re-panicked through an unbudgeted wrapper) passes
// through unwrapped.
func Capture(f func() error) (err error) {
	defer func() {
		if v := recover(); v != nil {
			if le, ok := v.(*LimitError); ok {
				err = le
				return
			}
			err = trip(&LimitError{Kind: KindPanic, Value: v, Stack: debug.Stack()})
		}
	}()
	return f()
}

// FormatBytes renders a byte count with a binary suffix, e.g. "512MiB".
func FormatBytes(n uint64) string {
	switch {
	case n >= 1<<30:
		return fmt.Sprintf("%.1fGiB", float64(n)/(1<<30))
	case n >= 1<<20:
		return fmt.Sprintf("%.1fMiB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1fKiB", float64(n)/(1<<10))
	}
	return fmt.Sprintf("%dB", n)
}

// ParseBytes parses a -maxmem value: a plain integer is bytes, and the
// suffixes K/KB/KiB, M/MB/MiB, G/GB/GiB, T/TB/TiB (case-insensitive)
// scale by powers of 1024.
func ParseBytes(s string) (uint64, error) {
	orig := s
	mult := uint64(1)
	lower := func(b byte) byte {
		if 'A' <= b && b <= 'Z' {
			return b + 'a' - 'A'
		}
		return b
	}
	// Strip an optional b/ib tail, then the scale letter.
	n := len(s)
	if n > 1 && lower(s[n-1]) == 'b' {
		s = s[:n-1]
		n--
		if n > 1 && lower(s[n-1]) == 'i' {
			s = s[:n-1]
			n--
		}
	}
	if n > 0 {
		switch lower(s[n-1]) {
		case 'k':
			mult, s = 1<<10, s[:n-1]
		case 'm':
			mult, s = 1<<20, s[:n-1]
		case 'g':
			mult, s = 1<<30, s[:n-1]
		case 't':
			mult, s = 1<<40, s[:n-1]
		}
	}
	if s == "" {
		return 0, fmt.Errorf("guard: invalid size %q", orig)
	}
	var v uint64
	for i := 0; i < len(s); i++ {
		if s[i] < '0' || s[i] > '9' {
			return 0, fmt.Errorf("guard: invalid size %q", orig)
		}
		v = v*10 + uint64(s[i]-'0')
	}
	if v == 0 {
		return 0, fmt.Errorf("guard: size must be positive, got %q", orig)
	}
	return v * mult, nil
}
