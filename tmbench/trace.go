package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"
)

// Tracer records spans around the benchmark's calls into the layers'
// public functions. Spans live in memory and are written out once, at
// the end of the run. A nil *Tracer records nothing, so the untraced
// runs pay only a nil check.
type Tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []Span
}

// Span is one recorded call: its name (layer.function), interval,
// causing span, job, and the allocation and GC counts the process
// accrued across it.
type Span struct {
	ID, Parent, Job, Lane int
	Name                  string
	Start, End            time.Duration
	AllocBytes            uint64
	GCs                   uint32
}

// SpanHandle is an open span; End closes it.
type SpanHandle struct {
	tr    *Tracer
	sp    Span
	alloc uint64
	gcs   uint32
}

func newTracer() *Tracer { return &Tracer{t0: time.Now()} }

// Begin opens a span. parent is the ID of the causing span (0 for a
// root), job the job or probe the span belongs to, lane the client
// connection or worker it ran on.
func (t *Tracer) Begin(name string, parent, job, lane int) *SpanHandle {
	if t == nil {
		return nil
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	t.mu.Lock()
	id := len(t.spans) + 1
	// Reserve the slot so IDs stay dense and children can name it.
	t.spans = append(t.spans, Span{ID: id})
	t.mu.Unlock()
	return &SpanHandle{tr: t, alloc: ms.TotalAlloc, gcs: ms.NumGC,
		sp: Span{ID: id, Parent: parent, Job: job, Lane: lane, Name: name, Start: time.Since(t.t0)}}
}

// ID is the span's identifier for its children (0 when not tracing).
func (h *SpanHandle) ID() int {
	if h == nil {
		return 0
	}
	return h.sp.ID
}

// End closes the span.
func (h *SpanHandle) End() {
	if h == nil {
		return
	}
	h.sp.End = time.Since(h.tr.t0)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	h.sp.AllocBytes = ms.TotalAlloc - h.alloc
	h.sp.GCs = ms.NumGC - h.gcs
	h.tr.mu.Lock()
	h.tr.spans[h.sp.ID-1] = h.sp
	h.tr.mu.Unlock()
}

// endAfter closes a span that stands for d of work done elsewhere (the
// replay loops time their batches themselves): it is placed to end
// now and start d earlier.
func (h *SpanHandle) endAfter(d time.Duration) {
	if h == nil {
		return
	}
	h.End()
	h.tr.mu.Lock()
	s := &h.tr.spans[h.sp.ID-1]
	s.Start = s.End - d
	h.tr.mu.Unlock()
}

// layerOf names the layer a span belongs to: the part of its name
// before the first dot.
func layerOf(name string) string {
	l, _, _ := strings.Cut(name, ".")
	return l
}

// LayerTime is one row of the self-time table.
type LayerTime struct {
	Layer       string
	Spans       int
	Total, Self time.Duration
	AllocBytes  uint64
	GCs         uint32
}

// SelfTimes aggregates the spans by layer. A span's self time is its
// duration minus the part of its interval its children cover.
func (t *Tracer) SelfTimes() []LayerTime {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int][]Span)
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	rows := make(map[string]*LayerTime)
	for _, s := range t.spans {
		if s.Name == "" {
			continue // opened but never closed
		}
		r := rows[layerOf(s.Name)]
		if r == nil {
			r = &LayerTime{Layer: layerOf(s.Name)}
			rows[r.Layer] = r
		}
		d := s.End - s.Start
		r.Spans++
		r.Total += d
		r.Self += d - covered(s, children[s.ID])
		r.AllocBytes += s.AllocBytes
		r.GCs += s.GCs
	}
	out := make([]LayerTime, 0, len(rows))
	for _, r := range rows {
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Self > out[j].Self })
	return out
}

// covered returns the length of the union of the children's intervals
// clipped to the parent's.
func covered(p Span, kids []Span) time.Duration {
	type iv struct{ a, b time.Duration }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.Start, p.Start), min(k.End, p.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total time.Duration
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case v.a <= cur.b:
			cur.b = max(cur.b, v.b)
		default:
			total += cur.b - cur.a
			cur = v
		}
	}
	if len(ivs) > 0 {
		total += cur.b - cur.a
	}
	return total
}

// WriteSelfTimes prints the self-time table.
func WriteSelfTimes(w io.Writer, rows []LayerTime) {
	fmt.Fprintf(w, "  %-10s %7s %12s %12s %12s %6s\n", "layer", "spans", "total_ms", "self_ms", "alloc_mb", "gcs")
	for _, r := range rows {
		fmt.Fprintf(w, "  %-10s %7d %12.3f %12.3f %12.3f %6d\n", r.Layer, r.Spans,
			ms(r.Total), ms(r.Self), float64(r.AllocBytes)/(1<<20), r.GCs)
	}
}

// WriteChrome writes the spans as Chrome trace-event JSON (the format
// tmcheck -trace emits), which Perfetto loads.
func (t *Tracer) WriteChrome(path string) error {
	t.mu.Lock()
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	evs := make([]event, 0, len(t.spans))
	for _, s := range t.spans {
		if s.Name == "" {
			continue
		}
		evs = append(evs, event{Name: s.Name, Cat: layerOf(s.Name), Ph: "X",
			TS: float64(s.Start) / 1e3, Dur: float64(s.End-s.Start) / 1e3, PID: 1, TID: s.Lane,
			Args: map[string]any{"id": s.ID, "parent": s.Parent, "job": s.Job, "alloc_bytes": s.AllocBytes, "gcs": s.GCs}})
	}
	t.mu.Unlock()
	data, err := json.Marshal(map[string]any{"traceEvents": evs, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / 1e6 }
