package obs

import (
	"bytes"
	"encoding/json"
	"errors"
	"strings"
	"testing"
	"time"
)

// traceFile mirrors the Chrome trace-event container for unmarshalling.
type traceFile struct {
	TraceEvents []struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		TS   int64          `json:"ts"`
		Dur  int64          `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int64          `json:"tid"`
		Args map[string]any `json:"args"`
	} `json:"traceEvents"`
}

func TestTraceWriterProducesLoadableJSON(t *testing.T) {
	bus := NewBus(64)
	bus.SetEnabled(true)
	var buf bytes.Buffer
	tw := StartTrace(&buf, bus)

	base := time.Now().UnixNano()
	ms := int64(time.Millisecond)
	bus.Emit(Event{Kind: EvRunStart, Name: "table2", TimeNS: base})
	bus.Emit(Event{Kind: EvPhaseStart, Name: "table2", TimeNS: base + ms})
	bus.Emit(Event{Kind: EvCheckStart, Name: "otf:dstm:op", TimeNS: base + 2*ms})
	bus.Emit(Event{Kind: EvLevelDone, Name: "otf:dstm:op", Level: 0, States: 10,
		Frontier: 9, DurNS: ms, TimeNS: base + 3*ms})
	bus.Emit(Event{Kind: EvLevelDone, Name: "otf:dstm:op", Level: 1, States: 40,
		Frontier: 30, HeapBytes: 1 << 20, DurNS: ms, TimeNS: base + 4*ms})
	bus.Emit(Event{Kind: EvWorkerSpan, Worker: 3, States: 17, DurNS: ms, TimeNS: base + 4*ms})
	bus.Emit(Event{Kind: EvViolation, Name: "otf:dstm:op", Detail: "cex", TimeNS: base + 5*ms})
	bus.Emit(Event{Kind: EvCheckDone, Name: "otf:dstm:op", Detail: "UNSAFE", States: 40,
		DurNS: 3 * ms, TimeNS: base + 5*ms})
	bus.Emit(Event{Kind: EvProgress, Name: "spec.enumerate", States: 123, TimeNS: base + 6*ms})
	bus.Emit(Event{Kind: EvLimitHit, Detail: "states: budget", States: 40, TimeNS: base + 6*ms})
	bus.Emit(Event{Kind: EvPhaseEnd, Name: "table2", DurNS: 6 * ms, TimeNS: base + 7*ms})
	bus.Emit(Event{Kind: EvRunDone, Name: "table2", TimeNS: base + 7*ms})
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}

	var tf traceFile
	if err := json.Unmarshal(buf.Bytes(), &tf); err != nil {
		t.Fatalf("trace output is not valid JSON: %v\n%s", err, buf.String())
	}
	if len(tf.TraceEvents) == 0 {
		t.Fatal("trace has no events")
	}

	phases := map[string]bool{}
	var checkTid, levelTid int64
	levels := map[string]bool{}
	workerSpan := false
	for _, e := range tf.TraceEvents {
		phases[e.Ph] = true
		if e.Ph == "B" && e.Name == "otf:dstm:op" {
			checkTid = e.Tid
		}
		if e.Ph == "X" && strings.HasPrefix(e.Name, "L") {
			levels[e.Name] = true
			levelTid = e.Tid
		}
		if e.Ph == "X" && e.Tid == workerTidBase+3 {
			workerSpan = true
			if e.Args["items"] != float64(17) {
				t.Errorf("worker span items = %v, want 17", e.Args["items"])
			}
		}
		if e.TS < 0 || e.Dur < 0 {
			t.Errorf("negative timestamp in %+v", e)
		}
	}
	for _, ph := range []string{"M", "B", "E", "X", "i", "C"} {
		if !phases[ph] {
			t.Errorf("trace has no %q events (got %v)", ph, phases)
		}
	}
	if !levels["L0"] || !levels["L1"] {
		t.Errorf("per-level spans missing: %v", levels)
	}
	if !workerSpan {
		t.Error("per-worker span missing")
	}
	if checkTid < 10 || levelTid != checkTid {
		t.Errorf("check (tid %d) and its levels (tid %d) should share a named track >= 10", checkTid, levelTid)
	}
}

// TestTraceWriterSpansNestOnSpine asserts B/E pairing for the spine:
// every B has a matching later E with the same name and tid 1.
func TestTraceWriterSpineBalanced(t *testing.T) {
	bus := NewBus(64)
	bus.SetEnabled(true)
	var buf bytes.Buffer
	tw := StartTrace(&buf, bus)
	bus.Emit(Event{Kind: EvRunStart, Name: "all"})
	bus.Emit(Event{Kind: EvPhaseStart, Name: "outer"})
	bus.Emit(Event{Kind: EvPhaseStart, Name: "inner"})
	bus.Emit(Event{Kind: EvPhaseEnd, Name: "inner"})
	bus.Emit(Event{Kind: EvPhaseEnd, Name: "outer"})
	bus.Emit(Event{Kind: EvRunDone, Name: "all"})
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
	var tf traceFile
	if err := json.Unmarshal(buf.Bytes(), &tf); err != nil {
		t.Fatal(err)
	}
	depth := 0
	for _, e := range tf.TraceEvents {
		if e.Tid != traceSpineTid {
			continue
		}
		switch e.Ph {
		case "B":
			depth++
		case "E":
			depth--
		}
		if depth < 0 {
			t.Fatalf("unbalanced E before B at %+v", e)
		}
	}
	if depth != 0 {
		t.Errorf("spine spans unbalanced: depth %d at end", depth)
	}
}

func TestTraceWriterReportsWriteError(t *testing.T) {
	bus := NewBus(8)
	bus.SetEnabled(true)
	tw := StartTrace(failWriter{}, bus)
	bus.Emit(Event{Kind: EvRunStart, Name: "x"})
	if err := tw.Close(); err == nil {
		t.Error("Close should surface the write error")
	}
}

type failWriter struct{}

func (failWriter) Write(p []byte) (int, error) { return 0, errWrite }

var errWrite = errors.New("sink failed")
