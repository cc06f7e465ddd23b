package obs

import (
	"strings"
	"testing"
	"time"
)

// TestEventSinkDisabledZeroAlloc is the fast-path contract: with the
// bus disabled (the default — no telemetry flag set), Emit must not
// allocate, so the engines can call it unconditionally from hot loops.
func TestEventSinkDisabledZeroAlloc(t *testing.T) {
	b := NewBus(16)
	if b.Enabled() {
		t.Fatal("fresh bus should start disabled")
	}
	allocs := testing.AllocsPerRun(1000, func() {
		b.Emit(Event{Kind: EvLevelDone, Name: "dstm:op", Level: 3, States: 1234, Frontier: 56, DurNS: 1000})
	})
	if allocs != 0 {
		t.Errorf("disabled Emit allocates %.1f/op, want 0", allocs)
	}
	// The package-level helpers ride the same path.
	if EventsEnabled() {
		t.Fatal("process-wide bus unexpectedly enabled in tests")
	}
	allocs = testing.AllocsPerRun(1000, func() {
		Emit(Event{Kind: EvProgress, Name: "spec.enumerate", States: 99})
	})
	if allocs != 0 {
		t.Errorf("disabled package Emit allocates %.1f/op, want 0", allocs)
	}
}

func TestDisabledBusRecordsNothing(t *testing.T) {
	b := NewBus(8)
	b.Emit(Event{Kind: EvRunStart, Name: "x"})
	if got := b.Recent(10); len(got) != 0 {
		t.Errorf("disabled bus recorded %d events", len(got))
	}
	if lv := b.Live(); lv.Events != 0 {
		t.Errorf("disabled bus live view counts %d events", lv.Events)
	}
}

func TestBusRingKeepsMostRecent(t *testing.T) {
	b := NewBus(4)
	b.SetEnabled(true)
	for i := 0; i < 6; i++ {
		b.Emit(Event{Kind: EvProgress, States: int64(i + 1)})
	}
	got := b.Recent(10)
	if len(got) != 4 {
		t.Fatalf("Recent returned %d events, want ring size 4", len(got))
	}
	for i, e := range got {
		if want := uint64(i + 3); e.Seq != want {
			t.Errorf("event %d: seq %d, want %d (oldest-first)", i, e.Seq, want)
		}
	}
	if got := b.Recent(2); len(got) != 2 || got[1].Seq != 6 {
		t.Errorf("Recent(2) = %v, want the last two", got)
	}
}

func TestBusSubscribeNonBlockingDrop(t *testing.T) {
	b := NewBus(8)
	b.SetEnabled(true)
	sub := b.Subscribe(1)
	for i := 0; i < 3; i++ {
		b.Emit(Event{Kind: EvProgress, States: int64(i)})
	}
	if sub.Dropped() != 2 {
		t.Errorf("sub dropped %d, want 2 (capacity 1, 3 events)", sub.Dropped())
	}
	if b.Dropped() != 2 {
		t.Errorf("bus dropped %d, want 2", b.Dropped())
	}
	e := <-sub.C
	if e.Seq != 1 {
		t.Errorf("delivered seq %d, want the first event", e.Seq)
	}
	b.Unsubscribe(sub)
	if _, ok := <-sub.C; ok {
		t.Error("channel should be closed after Unsubscribe")
	}
	// Emitting after Unsubscribe must not panic or count drops.
	before := b.Dropped()
	b.Emit(Event{Kind: EvProgress})
	if b.Dropped() != before {
		t.Error("removed subscriber still counted a drop")
	}
}

func TestFlightRecorderGatedOnLimit(t *testing.T) {
	b := NewBus(8)
	b.SetEnabled(true)
	b.Emit(Event{Kind: EvLevelDone, States: 10})
	if evs, _, limited := b.Flight(8); limited || evs != nil {
		t.Errorf("flight before any limit: limited=%v evs=%v", limited, evs)
	}
	b.Emit(Event{Kind: EvLimitHit, Detail: "states: budget exceeded"})
	evs, _, limited := b.Flight(8)
	if !limited || len(evs) != 2 {
		t.Fatalf("flight after limit: limited=%v, %d events, want true/2", limited, len(evs))
	}
	if evs[len(evs)-1].Kind != EvLimitHit {
		t.Errorf("last flight event is %v, want limit_hit", evs[len(evs)-1].Kind)
	}
	b.Reset()
	if b.SawLimit() {
		t.Error("Reset should clear the limit marker")
	}
	if got := b.Recent(8); len(got) != 0 {
		t.Errorf("Reset left %d events in the ring", len(got))
	}
}

func TestPanicEventTriggersFlight(t *testing.T) {
	b := NewBus(8)
	b.SetEnabled(true)
	b.Emit(Event{Kind: EvPanicRecovered, Detail: "boom"})
	if !b.SawLimit() {
		t.Error("panic_recovered should arm the flight recorder")
	}
}

func TestLiveSnapshotFolding(t *testing.T) {
	b := NewBus(16)
	b.SetEnabled(true)
	b.Emit(Event{Kind: EvRunStart, Name: "table2"})
	b.Emit(Event{Kind: EvCheckStart, Name: "otf:dstm:op"})
	b.Emit(Event{Kind: EvLevelDone, Name: "otf:dstm:op", Level: 7, States: 500, Frontier: 80, HeapBytes: 1 << 20})
	lv := b.Live()
	if lv.Run != "table2" || lv.Check != "otf:dstm:op" || lv.Level != 7 ||
		lv.States != 500 || lv.Frontier != 80 || lv.HeapBytes != 1<<20 {
		t.Errorf("live snapshot wrong: %+v", lv)
	}
	if lv.Events != 3 || lv.StartNS == 0 || lv.UpdatedNS < lv.StartNS {
		t.Errorf("live bookkeeping wrong: %+v", lv)
	}
	b.Emit(Event{Kind: EvProgress, Name: "fuzz", States: 900})
	if lv := b.Live(); lv.States != 900 {
		t.Errorf("progress did not advance states: %+v", lv)
	}
	// A fresh run resets the per-run fields.
	b.Emit(Event{Kind: EvRunStart, Name: "table3"})
	if lv := b.Live(); lv.Run != "table3" || lv.Check != "" || lv.States != 0 {
		t.Errorf("run start did not reset: %+v", lv)
	}
}

func TestEventKindJSONNames(t *testing.T) {
	for k := EvRunStart; k <= EvPanicRecovered; k++ {
		s := k.String()
		if s == "" || strings.HasPrefix(s, "kind(") {
			t.Errorf("kind %d has no name", k)
		}
		j, err := k.MarshalJSON()
		if err != nil || string(j) != `"`+s+`"` {
			t.Errorf("kind %v marshals to %s (err %v)", k, j, err)
		}
	}
}

func TestSampledHeap(t *testing.T) {
	if h := SampledHeap(); h == 0 {
		t.Error("SampledHeap returned 0")
	}
	// Within the refresh window the cached value is reused.
	a := SampledHeap()
	b := SampledHeap()
	if a != b {
		t.Errorf("back-to-back samples differ: %d vs %d", a, b)
	}
}

func TestFormatEvents(t *testing.T) {
	base := time.Now().UnixNano()
	text := FormatEvents([]Event{
		{Kind: EvLevelDone, Name: "dstm", Level: 2, States: 100, Frontier: 10,
			HeapBytes: 2 << 20, DurNS: int64(3 * time.Millisecond), TimeNS: base},
		{Kind: EvLimitHit, Detail: "states: budget exceeded", TimeNS: base + int64(time.Second)},
	})
	for _, want := range []string{"level_done", "dstm", "states=100", "limit_hit", "budget exceeded", "+1s"} {
		if !strings.Contains(text, want) {
			t.Errorf("FormatEvents output misses %q:\n%s", want, text)
		}
	}
	if FormatEvents(nil) != "" {
		t.Error("FormatEvents(nil) should be empty")
	}
}

func TestGroupThousandsAndRate(t *testing.T) {
	cases := map[int64]string{0: "0", 999: "999", 1000: "1,000", 1234567: "1,234,567", -4321: "-4,321"}
	for n, want := range cases {
		if got := groupThousands(n); got != want {
			t.Errorf("groupThousands(%d) = %q, want %q", n, got, want)
		}
	}
	if got := formatRate(850); got != "850" {
		t.Errorf("formatRate(850) = %q", got)
	}
	if got := formatRate(12_300); got != "12.3k" {
		t.Errorf("formatRate(12300) = %q", got)
	}
	if got := formatRate(4_500_000); got != "4.5M" {
		t.Errorf("formatRate(4.5e6) = %q", got)
	}
}

func TestLevelName(t *testing.T) {
	for level, want := range map[int32]string{0: "L0", 7: "L7", 42: "L42", 1234: "L1234"} {
		if got := levelName(level); got != want {
			t.Errorf("levelName(%d) = %q, want %q", level, got, want)
		}
	}
}
