package obs

// This file is the live half of the observability layer: a structured
// event bus that the engines publish typed progress events into while a
// run is in flight. The after-the-run registry (obs.go) answers "what
// did the run do"; the bus answers "what is it doing right now" — it
// feeds the -progress renderer, the -trace Chrome-trace writer, the
// -debug-addr /events SSE stream, and the flight recorder that attaches
// the recent event history to the stats report when a check stops at a
// resource limit.
//
// The bus is built for the engines' hot paths:
//
//   - disabled (the default), Emit is one atomic load and returns — no
//     allocation, no lock (TestEventSinkDisabledZeroAlloc asserts 0
//     allocs/op);
//   - enabled, Emit writes the event into a bounded ring buffer and
//     offers it to each subscriber with a non-blocking channel send: a
//     slow consumer drops events (counted per subscriber and bus-wide)
//     but never stalls the publisher.
//
// Events carry no pointers into engine state, so publishing is safe
// from any goroutine at any time.

import (
	"encoding/json"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// EventKind classifies a bus event.
type EventKind uint8

const (
	// EvRunStart and EvRunDone bracket one CLI command (Name is the
	// subcommand).
	EvRunStart EventKind = iota
	EvRunDone
	// EvCheckStart and EvCheckDone bracket one verification check (Name
	// is "system:property"); EvCheckDone carries the verdict in Detail
	// and the check wall-clock in DurNS.
	EvCheckStart
	EvCheckDone
	// EvPhaseStart and EvPhaseEnd mirror the registry's phase spans on
	// the single-threaded pipeline spine.
	EvPhaseStart
	EvPhaseEnd
	// EvLevelDone fires at every BFS level barrier of a scan: Level is
	// the completed level, States the cumulative states interned,
	// Frontier the states discovered but not yet expanded, HeapBytes the
	// sampled Go heap, and DurNS the time since the previous barrier.
	EvLevelDone
	// EvProgress is a periodic heartbeat from engines without level
	// structure (the sequential product search, spec enumeration,
	// tmfuzz): States is the cumulative unit count.
	EvProgress
	// EvWorkerSpan reports one worker's activity window — a row-pool
	// worker of parbfs.For or the TM stage's helper of the on-the-fly
	// safety search (Worker 0): Worker is its index, States the items it
	// processed, DurNS the span.
	EvWorkerSpan
	// EvViolation fires when a check finds a counterexample or violating
	// lasso (Detail describes it).
	EvViolation
	// EvLimitHit fires when a guard trips: Detail carries the limit
	// kind and message, States the states reached.
	EvLimitHit
	// EvPanicRecovered fires when a panic in user-supplied TM code is
	// isolated; Detail carries the recovered value.
	EvPanicRecovered
)

// String names the kind as rendered in JSON, traces and SSE streams.
func (k EventKind) String() string {
	switch k {
	case EvRunStart:
		return "run_start"
	case EvRunDone:
		return "run_done"
	case EvCheckStart:
		return "check_start"
	case EvCheckDone:
		return "check_done"
	case EvPhaseStart:
		return "phase_start"
	case EvPhaseEnd:
		return "phase_end"
	case EvLevelDone:
		return "level_done"
	case EvProgress:
		return "progress"
	case EvWorkerSpan:
		return "worker_span"
	case EvViolation:
		return "violation"
	case EvLimitHit:
		return "limit_hit"
	case EvPanicRecovered:
		return "panic_recovered"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// MarshalJSON renders the kind as its string name.
func (k EventKind) MarshalJSON() ([]byte, error) {
	return []byte(`"` + k.String() + `"`), nil
}

// UnmarshalJSON parses a kind from its string name, so consumers of the
// /events SSE stream and of a report's flight dump can round-trip
// events through encoding/json.
func (k *EventKind) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return err
	}
	for i := EvRunStart; i <= EvPanicRecovered; i++ {
		if i.String() == s {
			*k = i
			return nil
		}
	}
	return fmt.Errorf("unknown event kind %q", s)
}

// Event is one bus event: a flat value struct (no pointers, no
// interfaces) so publishing allocates nothing and snapshots are plain
// copies. Unused fields stay zero and are omitted from JSON.
type Event struct {
	// Seq is the bus-assigned publication number (1-based).
	Seq uint64 `json:"seq"`
	// TimeNS is the wall-clock publication time in Unix nanoseconds.
	// For span-shaped events (EvLevelDone, EvWorkerSpan, EvPhaseEnd,
	// EvCheckDone) it marks the END of the span and DurNS its length.
	TimeNS int64     `json:"time_ns"`
	Kind   EventKind `json:"kind"`
	// Name identifies what the event is about: the subcommand, the
	// system, "system:property", or the phase name.
	Name      string `json:"name,omitempty"`
	Level     int32  `json:"level,omitempty"`
	Worker    int32  `json:"worker,omitempty"`
	States    int64  `json:"states,omitempty"`
	Frontier  int64  `json:"frontier,omitempty"`
	HeapBytes uint64 `json:"heap_bytes,omitempty"`
	DurNS     int64  `json:"dur_ns,omitempty"`
	Detail    string `json:"detail,omitempty"`
}

// Sub is one bus subscription. Receive from C; events the consumer is
// too slow to take are dropped (never blocking the publisher) and
// counted. C is closed by Unsubscribe.
type Sub struct {
	C       <-chan Event
	ch      chan Event
	dropped atomic.Uint64
}

// Dropped returns the number of events dropped on this subscription.
func (s *Sub) Dropped() uint64 { return s.dropped.Load() }

// LiveSnapshot is the bus's always-current view of the in-flight run,
// maintained from the event stream so /vitals and the -progress
// renderer need no subscription of their own.
type LiveSnapshot struct {
	Run       string `json:"run,omitempty"`
	Check     string `json:"check,omitempty"`
	Level     int32  `json:"level"`
	States    int64  `json:"states"`
	Frontier  int64  `json:"frontier"`
	HeapBytes uint64 `json:"heap_bytes"`
	// StartNS is the EvRunStart time; UpdatedNS the latest event time.
	StartNS   int64  `json:"start_ns"`
	UpdatedNS int64  `json:"updated_ns"`
	Events    uint64 `json:"events"`
	Dropped   uint64 `json:"dropped"`
}

// Bus is a bounded, non-blocking event sink: a ring buffer of the most
// recent events (the flight recorder) plus fan-out to subscribers.
type Bus struct {
	enabled atomic.Bool
	seq     atomic.Uint64
	dropped atomic.Uint64
	limited atomic.Bool

	mu    sync.Mutex
	ring  []Event
	count uint64 // total events written to the ring
	subs  []*Sub
	live  LiveSnapshot
}

// defaultRing is the flight-recorder depth of the process-wide bus.
const defaultRing = 512

// NewBus returns a disabled bus whose flight recorder keeps the last
// ring events (minimum 1).
func NewBus(ring int) *Bus {
	if ring < 1 {
		ring = 1
	}
	return &Bus{ring: make([]Event, ring)}
}

// events is the process-wide bus, published into by the engines and
// enabled by the CLI telemetry flags (-progress, -trace, -debug-addr).
var events = NewBus(defaultRing)

// Events returns the process-wide bus.
func Events() *Bus { return events }

// EventsEnabled reports whether the process-wide bus accepts events.
// Engines hoist this out of hot loops.
func EventsEnabled() bool { return events.Enabled() }

// Emit publishes an event on the process-wide bus.
func Emit(e Event) { events.Emit(e) }

// SetEnabled switches the bus on or off. While off, Emit is a single
// atomic load.
func (b *Bus) SetEnabled(on bool) { b.enabled.Store(on) }

// Enabled reports whether the bus accepts events.
func (b *Bus) Enabled() bool { return b.enabled.Load() }

// Dropped returns the total events dropped across all subscribers.
func (b *Bus) Dropped() uint64 { return b.dropped.Load() }

// SawLimit reports whether an EvLimitHit or EvPanicRecovered event was
// published since the last Reset — the flight recorder's dump trigger.
func (b *Bus) SawLimit() bool { return b.limited.Load() }

// Reset clears the ring, the live view, and the drop and limit markers
// (subscriptions stay). For tests and long-running servers between jobs.
func (b *Bus) Reset() {
	b.mu.Lock()
	clear(b.ring)
	b.count = 0
	b.live = LiveSnapshot{}
	b.mu.Unlock()
	b.dropped.Store(0)
	b.limited.Store(false)
}

// Emit publishes e: assigns Seq and TimeNS (when zero), records it in
// the ring, updates the live view, and offers it to every subscriber
// without blocking. Disabled, it returns immediately and allocates
// nothing.
func (b *Bus) Emit(e Event) {
	if !b.enabled.Load() {
		return
	}
	e.Seq = b.seq.Add(1)
	if e.TimeNS == 0 {
		e.TimeNS = time.Now().UnixNano()
	}
	if e.Kind == EvLimitHit || e.Kind == EvPanicRecovered {
		b.limited.Store(true)
	}
	b.mu.Lock()
	b.ring[b.count%uint64(len(b.ring))] = e
	b.count++
	b.applyLive(e)
	for _, s := range b.subs {
		select {
		case s.ch <- e:
		default:
			s.dropped.Add(1)
			b.dropped.Add(1)
		}
	}
	b.mu.Unlock()
}

// applyLive folds one event into the live snapshot (b.mu held).
func (b *Bus) applyLive(e Event) {
	lv := &b.live
	lv.Events++
	lv.UpdatedNS = e.TimeNS
	switch e.Kind {
	case EvRunStart:
		lv.Run, lv.StartNS = e.Name, e.TimeNS
		lv.Check, lv.Level, lv.States, lv.Frontier = "", 0, 0, 0
	case EvCheckStart:
		lv.Check, lv.Level = e.Name, 0
	case EvLevelDone:
		if e.Name != "" && lv.Check == "" {
			lv.Check = e.Name
		}
		lv.Level, lv.States, lv.Frontier = e.Level, e.States, e.Frontier
		if e.HeapBytes > 0 {
			lv.HeapBytes = e.HeapBytes
		}
	case EvProgress:
		if e.Name != "" && lv.Check == "" {
			lv.Check = e.Name
		}
		if e.States > 0 {
			lv.States = e.States
		}
		if e.HeapBytes > 0 {
			lv.HeapBytes = e.HeapBytes
		}
	}
}

// Live returns the current live snapshot, with the bus-wide drop count
// filled in.
func (b *Bus) Live() LiveSnapshot {
	b.mu.Lock()
	lv := b.live
	b.mu.Unlock()
	lv.Dropped = b.dropped.Load()
	return lv
}

// Recent returns up to n of the most recent events, oldest first.
func (b *Bus) Recent(n int) []Event {
	b.mu.Lock()
	defer b.mu.Unlock()
	size := uint64(len(b.ring))
	have := b.count
	if have > size {
		have = size
	}
	if uint64(n) < have {
		have = uint64(n)
	}
	out := make([]Event, 0, have)
	for i := b.count - have; i < b.count; i++ {
		out = append(out, b.ring[i%size])
	}
	return out
}

// Flight returns the flight-recorder dump — the last n events plus the
// bus-wide drop count — and whether a limit or panic event triggered it.
// Callers attach the dump to the stats report only when limited is true.
func (b *Bus) Flight(n int) (evs []Event, dropped uint64, limited bool) {
	if !b.SawLimit() {
		return nil, b.Dropped(), false
	}
	return b.Recent(n), b.Dropped(), true
}

// Subscribe registers a consumer with the given channel capacity
// (minimum 1). The bus never blocks on it: a full channel drops.
func (b *Bus) Subscribe(buf int) *Sub {
	if buf < 1 {
		buf = 1
	}
	ch := make(chan Event, buf)
	s := &Sub{C: ch, ch: ch}
	b.mu.Lock()
	b.subs = append(b.subs, s)
	b.mu.Unlock()
	return s
}

// Unsubscribe removes the subscription and closes its channel (safe:
// sends only happen under the same lock that removes it).
func (b *Bus) Unsubscribe(s *Sub) {
	b.mu.Lock()
	for i, x := range b.subs {
		if x == s {
			b.subs = append(b.subs[:i], b.subs[i+1:]...)
			close(s.ch)
			break
		}
	}
	b.mu.Unlock()
}

// heapSample caches runtime.ReadMemStats so per-level events can carry
// a heap figure without paying the full stats collection at every
// barrier: the sample refreshes at most every 50ms.
var heapSample struct {
	lastNS atomic.Int64
	bytes  atomic.Uint64
}

// SampledHeap returns the Go heap in use, sampled at most every 50ms.
func SampledHeap() uint64 {
	now := time.Now().UnixNano()
	last := heapSample.lastNS.Load()
	if last != 0 && now-last < 50*int64(time.Millisecond) {
		return heapSample.bytes.Load()
	}
	if !heapSample.lastNS.CompareAndSwap(last, now) {
		return heapSample.bytes.Load() // another goroutine is sampling
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	heapSample.bytes.Store(ms.HeapAlloc)
	return ms.HeapAlloc
}

// formatEventBytes renders a byte count with a binary suffix. It
// duplicates guard.FormatBytes because obs sits below guard in the
// import graph.
func formatEventBytes(n uint64) string {
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

// FormatEvents renders events as indented text lines for the -stats
// flight-recorder section, one event per line with a relative
// timestamp.
func FormatEvents(evs []Event) string {
	if len(evs) == 0 {
		return ""
	}
	base := evs[0].TimeNS
	var b strings.Builder
	for _, e := range evs {
		fmt.Fprintf(&b, "  +%-10s %-15s", time.Duration(e.TimeNS-base).Round(time.Microsecond), e.Kind)
		if e.Name != "" {
			fmt.Fprintf(&b, " %s", e.Name)
		}
		if e.Kind == EvLevelDone {
			fmt.Fprintf(&b, " level=%d", e.Level)
		}
		if e.States > 0 {
			fmt.Fprintf(&b, " states=%d", e.States)
		}
		if e.Frontier > 0 {
			fmt.Fprintf(&b, " frontier=%d", e.Frontier)
		}
		if e.HeapBytes > 0 {
			fmt.Fprintf(&b, " heap=%s", formatEventBytes(e.HeapBytes))
		}
		if e.DurNS > 0 {
			fmt.Fprintf(&b, " dur=%v", time.Duration(e.DurNS).Round(time.Microsecond))
		}
		if e.Detail != "" {
			fmt.Fprintf(&b, " %s", e.Detail)
		}
		b.WriteByte('\n')
	}
	return b.String()
}
