package obs

// The -trace writer: converts the bus's event stream into Chrome
// trace-event JSON ({"traceEvents": [...]}) loadable in Perfetto or
// chrome://tracing.
//
// Track layout:
//
//   - tid 1 ("pipeline") carries the run and the registry's phase spans
//     (B/E events — the phase stack is single-threaded, so they nest);
//   - each check and each explored system gets its own named track with
//     one complete (X) span per check and per BFS level, the level spans
//     annotated with cumulative states, frontier and heap;
//   - workers (table-row pool workers, the on-the-fly stage's helper)
//     appear on tracks 1000+w with one X span per pool run or chunk;
//   - violations, limits, and recovered panics are instant (i) events;
//   - cumulative states are also emitted as a counter (C) track, so
//     Perfetto plots the state-growth curve.
//
// The writer consumes its subscription on its own goroutine and
// streams; a dropped event (slow disk) loses that span but never stalls
// the engines. Close unsubscribes, drains, and writes the footer.

import (
	"encoding/json"
	"io"
	"sync"
)

// traceEvent is one Chrome trace-event object.
type traceEvent struct {
	Name  string         `json:"name"`
	Ph    string         `json:"ph"`
	TS    int64          `json:"ts"` // microseconds
	Dur   int64          `json:"dur,omitempty"`
	Pid   int            `json:"pid"`
	Tid   int64          `json:"tid"`
	Scope string         `json:"s,omitempty"`
	Args  map[string]any `json:"args,omitempty"`
}

// TraceWriter streams bus events into Chrome trace-event JSON.
type TraceWriter struct {
	w   io.Writer
	bus *Bus
	sub *Sub

	mu      sync.Mutex
	err     error
	baseNS  int64
	wrote   bool
	tids    map[string]int64
	nextTid int64
	done    chan struct{}
}

const (
	tracePid      = 1
	traceSpineTid = 1
	workerTidBase = 1000
)

// StartTrace subscribes to the bus and starts streaming trace JSON to
// w. Call Close when the run ends.
func StartTrace(w io.Writer, bus *Bus) *TraceWriter {
	t := &TraceWriter{
		w: w, bus: bus, sub: bus.Subscribe(4096),
		tids: map[string]int64{}, nextTid: 10,
		done: make(chan struct{}),
	}
	t.head()
	go t.loop()
	return t
}

// head writes the JSON prologue and the track-naming metadata.
func (t *TraceWriter) head() {
	t.write([]byte(`{"traceEvents":[` + "\n"))
	t.event(traceEvent{Name: "thread_name", Ph: "M", Pid: tracePid, Tid: traceSpineTid,
		Args: map[string]any{"name": "pipeline"}})
}

func (t *TraceWriter) loop() {
	defer close(t.done)
	for e := range t.sub.C {
		t.consume(e)
	}
}

// Close stops the writer: it unsubscribes (which closes the stream),
// drains the remaining events, and writes the footer. The first write
// error, if any, is returned.
func (t *TraceWriter) Close() error {
	t.bus.Unsubscribe(t.sub)
	<-t.done
	if n := t.sub.Dropped(); n > 0 {
		t.event(traceEvent{Name: "events dropped", Ph: "i", Pid: tracePid,
			Tid: traceSpineTid, Scope: "g", Args: map[string]any{"dropped": n}})
	}
	t.write([]byte("\n]}\n"))
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.err
}

// ts converts an event wall-clock to microseconds since the first event.
func (t *TraceWriter) ts(ns int64) int64 {
	t.mu.Lock()
	if t.baseNS == 0 {
		t.baseNS = ns
	}
	base := t.baseNS
	t.mu.Unlock()
	us := (ns - base) / 1000
	if us < 0 {
		us = 0
	}
	return us
}

// tidFor assigns (and names, on first sight) a stable track for a check
// or system name.
func (t *TraceWriter) tidFor(name string) int64 {
	t.mu.Lock()
	tid, ok := t.tids[name]
	if !ok {
		tid = t.nextTid
		t.nextTid++
		t.tids[name] = tid
	}
	t.mu.Unlock()
	if !ok {
		t.event(traceEvent{Name: "thread_name", Ph: "M", Pid: tracePid, Tid: tid,
			Args: map[string]any{"name": name}})
	}
	return tid
}

// consume converts one bus event into trace events.
func (t *TraceWriter) consume(e Event) {
	ts := t.ts(e.TimeNS)
	switch e.Kind {
	case EvRunStart:
		t.event(traceEvent{Name: "process_name", Ph: "M", Pid: tracePid, Tid: traceSpineTid,
			Args: map[string]any{"name": "tmcheck " + e.Name}})
		t.event(traceEvent{Name: "run:" + e.Name, Ph: "B", TS: ts, Pid: tracePid, Tid: traceSpineTid})
	case EvRunDone:
		t.event(traceEvent{Name: "run:" + e.Name, Ph: "E", TS: ts, Pid: tracePid, Tid: traceSpineTid})
	case EvPhaseStart:
		t.event(traceEvent{Name: e.Name, Ph: "B", TS: ts, Pid: tracePid, Tid: traceSpineTid})
	case EvPhaseEnd:
		t.event(traceEvent{Name: e.Name, Ph: "E", TS: ts, Pid: tracePid, Tid: traceSpineTid})
	case EvCheckStart:
		t.event(traceEvent{Name: e.Name, Ph: "B", TS: ts, Pid: tracePid, Tid: t.tidFor(e.Name)})
	case EvCheckDone:
		args := map[string]any{}
		if e.Detail != "" {
			args["verdict"] = e.Detail
		}
		if e.States > 0 {
			args["states"] = e.States
		}
		t.event(traceEvent{Name: e.Name, Ph: "E", TS: ts, Pid: tracePid, Tid: t.tidFor(e.Name), Args: args})
	case EvLevelDone:
		dur := e.DurNS / 1000
		start := ts - dur
		if start < 0 {
			start, dur = 0, ts
		}
		tid := t.tidFor(e.Name)
		args := map[string]any{"states": e.States, "frontier": e.Frontier}
		if e.HeapBytes > 0 {
			args["heap_bytes"] = e.HeapBytes
		}
		t.event(traceEvent{Name: levelName(e.Level), Ph: "X", TS: start, Dur: dur,
			Pid: tracePid, Tid: tid, Args: args})
		t.event(traceEvent{Name: "states:" + e.Name, Ph: "C", TS: ts, Pid: tracePid, Tid: tid,
			Args: map[string]any{"states": e.States}})
	case EvProgress:
		if e.States > 0 {
			t.event(traceEvent{Name: "states:" + e.Name, Ph: "C", TS: ts, Pid: tracePid,
				Tid: t.tidFor(e.Name), Args: map[string]any{"states": e.States}})
		}
	case EvWorkerSpan:
		dur := e.DurNS / 1000
		start := ts - dur
		if start < 0 {
			start, dur = 0, ts
		}
		name := e.Name
		if name == "" {
			name = "expand"
		}
		t.event(traceEvent{Name: name, Ph: "X", TS: start, Dur: dur, Pid: tracePid,
			Tid: workerTidBase + int64(e.Worker), Args: map[string]any{"items": e.States}})
	case EvViolation:
		t.event(traceEvent{Name: "violation:" + e.Name, Ph: "i", TS: ts, Pid: tracePid,
			Tid: t.tidFor(e.Name), Scope: "g", Args: map[string]any{"detail": e.Detail}})
	case EvLimitHit:
		t.event(traceEvent{Name: "limit", Ph: "i", TS: ts, Pid: tracePid, Tid: traceSpineTid,
			Scope: "g", Args: map[string]any{"detail": e.Detail, "states": e.States}})
	case EvPanicRecovered:
		t.event(traceEvent{Name: "panic recovered", Ph: "i", TS: ts, Pid: tracePid, Tid: traceSpineTid,
			Scope: "g", Args: map[string]any{"detail": e.Detail}})
	}
}

// levelName renders "L<level>" without fmt on the streaming path.
func levelName(level int32) string {
	buf := [12]byte{'L'}
	n := 1
	if level == 0 {
		return "L0"
	}
	var digits [10]byte
	d := 0
	for v := level; v > 0; v /= 10 {
		digits[d] = byte('0' + v%10)
		d++
	}
	for d > 0 {
		d--
		buf[n] = digits[d]
		n++
	}
	return string(buf[:n])
}

// event marshals and writes one trace event, comma-separating after the
// first.
func (t *TraceWriter) event(e traceEvent) {
	b, err := json.Marshal(e)
	if err != nil {
		t.fail(err)
		return
	}
	t.mu.Lock()
	pre := []byte(",\n")
	if !t.wrote {
		pre = nil
		t.wrote = true
	}
	t.mu.Unlock()
	if pre != nil {
		t.write(pre)
	}
	t.write(b)
}

func (t *TraceWriter) write(b []byte) {
	if _, err := t.w.Write(b); err != nil {
		t.fail(err)
	}
}

func (t *TraceWriter) fail(err error) {
	t.mu.Lock()
	if t.err == nil {
		t.err = err
	}
	t.mu.Unlock()
}
