package guard

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"
)

func TestLimitErrorMessagesNameTheFlag(t *testing.T) {
	cases := []struct {
		err  *LimitError
		want []string
	}{
		{&LimitError{Kind: KindStates, Budget: 50000, Visited: 50001},
			[]string{"state budget exhausted at 50001 states", "-maxstates 100000"}},
		{&LimitError{Kind: KindTime, Elapsed: 1500 * time.Millisecond},
			[]string{"wall-clock limit", "-timeout"}},
		{&LimitError{Kind: KindMemory, MaxMemBytes: 1 << 30, HeapBytes: 3 << 29},
			[]string{"memory limit", "-maxmem", "1.5GiB", "1.0GiB"}},
		{&LimitError{Kind: KindCancelled, Elapsed: time.Second}, []string{"cancelled"}},
		{&LimitError{Kind: KindPanic, Value: "boom"}, []string{"panic", "boom"}},
	}
	for _, c := range cases {
		msg := c.err.Error()
		for _, want := range c.want {
			if !strings.Contains(msg, want) {
				t.Errorf("%v message %q missing %q", c.err.Kind, msg, want)
			}
		}
	}
}

func TestLimitErrorIs(t *testing.T) {
	cases := []struct {
		kind     Kind
		sentinel error
		also     error
	}{
		{KindStates, ErrStates, nil},
		{KindTime, ErrTimeout, context.DeadlineExceeded},
		{KindMemory, ErrMemory, nil},
		{KindCancelled, ErrCancelled, context.Canceled},
		{KindPanic, ErrPanic, nil},
	}
	for _, c := range cases {
		err := error(&LimitError{Kind: c.kind})
		if !errors.Is(err, ErrLimit) {
			t.Errorf("%v does not match ErrLimit", c.kind)
		}
		if !errors.Is(err, c.sentinel) {
			t.Errorf("%v does not match its sentinel", c.kind)
		}
		if c.also != nil && !errors.Is(err, c.also) {
			t.Errorf("%v does not match %v", c.kind, c.also)
		}
		if c.kind != KindStates && errors.Is(err, ErrStates) {
			t.Errorf("%v wrongly matches ErrStates", c.kind)
		}
	}
}

func TestGuardStatesBudget(t *testing.T) {
	g := New(nil, 10, 0)
	if err := g.Check(10); err != nil {
		t.Fatalf("Check(10) under budget 10: %v", err)
	}
	err := g.Check(11)
	var le *LimitError
	if !errors.As(err, &le) || le.Kind != KindStates || le.Budget != 10 || le.Visited != 11 {
		t.Fatalf("Check(11) = %v, want states limit {10, 11}", err)
	}
}

func TestGuardCancellationAndDeadline(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	g := New(ctx, 0, 0)
	if err := g.Check(1); err != nil {
		t.Fatalf("pre-cancel Check: %v", err)
	}
	cancel()
	if err := g.Check(2); !errors.Is(err, ErrCancelled) || !errors.Is(err, context.Canceled) {
		t.Fatalf("post-cancel Check = %v, want cancelled", err)
	}

	dctx, dcancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer dcancel()
	if err := New(dctx, 0, 0).Check(1); !errors.Is(err, ErrTimeout) {
		t.Fatalf("expired-deadline Check = %v, want timeout", err)
	}

	// Cancellation wins over a simultaneously blown budget.
	g2 := New(ctx, 1, 0)
	var le *LimitError
	if err := g2.Check(5); !errors.As(err, &le) || le.Kind != KindCancelled {
		t.Fatalf("cancelled+blown Check = %v, want cancelled first", err)
	}
}

func TestGuardMemoryWatchdog(t *testing.T) {
	// A 1-byte cap trips on the first sample; an absurdly large cap
	// never does.
	if err := New(nil, 0, 1).Check(1); !errors.Is(err, ErrMemory) {
		t.Fatalf("1-byte cap did not trip: Check = %v", err)
	}
	if err := New(nil, 0, 1<<62).Check(1); err != nil {
		t.Fatalf("huge cap tripped: %v", err)
	}
}

func TestNextMemCheckSchedule(t *testing.T) {
	// The first sample (no rate observed yet) samples again next state.
	if got := nextMemCheck(0, 0, 0, 1<<30); got != 1 {
		t.Errorf("first interval = %d, want 1", got)
	}
	// A count that went backwards (a restarted scan) has no rate either.
	if got := nextMemCheck(-5, 1<<20, 0, 1<<30); got != 1 {
		t.Errorf("restarted count = %d, want 1", got)
	}
	// Fast growth near the cap pins the interval to the floor.
	if got := nextMemCheck(1, 100<<20, 1000<<20, 1024<<20); got != 1 {
		t.Errorf("fast growth near cap = %d, want 1", got)
	}
	// A heap already over the cap (a trip is imminent) samples every state.
	if got := nextMemCheck(memCheckMaxStates, 1, 2<<30, 1<<30); got != 1 {
		t.Errorf("heap over cap = %d, want 1", got)
	}
	// Slow growth far from the cap rides the ceiling.
	if got := nextMemCheck(1000, 1024, 10<<20, 4096<<20); got != memCheckMaxStates {
		t.Errorf("slow growth far from cap = %d, want %d", got, memCheckMaxStates)
	}
	// No allocation at all backs off to the ceiling.
	if got := nextMemCheck(1, 0, 100<<20, 1<<30); got != memCheckMaxStates {
		t.Errorf("idle heap = %d, want %d", got, memCheckMaxStates)
	}
	// Steady growth schedules for a quarter of the headroom: 100MiB
	// allocated over 10 states with 400MiB headroom left → 10 states.
	// The heap may have shrunk in between (a GC ran); the allocation
	// rate, not the heap delta, sets the pace.
	if got := nextMemCheck(10, 100<<20, 100<<20, 500<<20); got != 10 {
		t.Errorf("steady growth = %d, want 10", got)
	}
}

func TestGuardMemoryWatchdogBoundedOvershoot(t *testing.T) {
	// Regression: a wall-clock sampling schedule cannot bound the
	// overshoot of a loop that allocates faster than the timer fires,
	// so a tight allocation loop retained hundreds of MiB past -maxmem
	// between two samples. The state-counted schedule must keep the
	// trip within a modest margin of the cap. The baseline is read from
	// a collected heap so repeated runs (-count N) start alike.
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	const headroom = 64 << 20
	capBytes := ms.HeapAlloc + headroom
	g := New(nil, 0, capBytes)

	var le *LimitError
	retained := make([][]byte, 0, 1024)
	for i := 0; i < 1024; i++ {
		chunk := make([]byte, 1<<20)
		chunk[0] = byte(i) // touch so the page is really committed
		retained = append(retained, chunk)
		if err := g.Check(i); err != nil {
			if !errors.As(err, &le) || le.Kind != KindMemory {
				t.Fatalf("Check = %v, want a memory limit", err)
			}
			break
		}
	}
	runtime.KeepAlive(retained)
	if le == nil {
		t.Fatal("retained 1GiB past the cap without tripping")
	}
	const slack = 48 << 20
	if le.HeapBytes > capBytes+slack {
		t.Fatalf("watchdog overshoot: tripped at heap %s, cap %s + %s slack",
			FormatBytes(le.HeapBytes), FormatBytes(capBytes), FormatBytes(slack))
	}
}

func TestGuardMemoryWatchdogAtLevelBarriers(t *testing.T) {
	// Regression: a caller may poll the guard with growing gaps between
	// calls (one poll per BFS level barrier, say, as levels grow). A
	// schedule counted in Check calls learned its rate from the first,
	// tiny levels, waited hundreds of calls, and so never sampled again
	// in a scan of a few dozen levels. Here every level doubles and each
	// state retains 16KiB; the watchdog must trip no later than the
	// first barrier at which the retained bytes pass the cap.
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	const (
		headroom = 48 << 20
		perState = 16 << 10
	)
	g := New(nil, 0, ms.HeapAlloc+headroom)

	var le *LimitError
	var retained [][]byte
	states, crossed := 0, 0
	for level := 1; level <= 4096 && le == nil; level *= 2 {
		for i := 0; i < level; i++ {
			chunk := make([]byte, perState)
			chunk[0] = 1 // touch so the page is really committed
			retained = append(retained, chunk)
		}
		states += level
		if crossed == 0 && states*perState > headroom {
			crossed = states
		}
		if err := g.Check(states); err != nil {
			if !errors.As(err, &le) || le.Kind != KindMemory {
				t.Fatalf("Check(%d) = %v, want a memory limit", states, err)
			}
		}
	}
	runtime.KeepAlive(retained)
	if le == nil {
		t.Fatalf("retained %s over %d states at level barriers without tripping a %s cap",
			FormatBytes(uint64(states*perState)), states, FormatBytes(headroom))
	}
	if le.Visited > crossed {
		t.Fatalf("watchdog skipped barriers: tripped at %d states, but the retained heap passed the cap at the barrier of %d states",
			le.Visited, crossed)
	}
}

func TestGuardNilAndActive(t *testing.T) {
	var g *Guard
	if g.Active() || g.Check(1<<30) != nil || g.MaxStates() != 0 {
		t.Error("nil guard must be inert")
	}
	if New(nil, 0, 0).Active() {
		t.Error("limitless guard reports Active")
	}
	if !New(nil, 1, 0).Active() || !New(nil, 0, 1).Active() {
		t.Error("limited guard reports inactive")
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if !New(ctx, 0, 0).Active() {
		t.Error("cancellable guard reports inactive")
	}
}

func TestCapture(t *testing.T) {
	if err := Capture(func() error { return nil }); err != nil {
		t.Fatalf("clean Capture: %v", err)
	}
	sentinel := errors.New("plain")
	if err := Capture(func() error { return sentinel }); err != sentinel {
		t.Fatalf("Capture did not pass the error through: %v", err)
	}
	err := Capture(func() error { panic("kaboom") })
	var le *LimitError
	if !errors.As(err, &le) || le.Kind != KindPanic || le.Value != "kaboom" || len(le.Stack) == 0 {
		t.Fatalf("Capture(panic) = %v, want panic limit with stack", err)
	}
	// An already-isolated LimitError re-panicked through an unbudgeted
	// wrapper passes through unwrapped.
	inner := &LimitError{Kind: KindPanic, Value: "orig"}
	if err := Capture(func() error { panic(inner) }); err != error(inner) {
		t.Fatalf("Capture(re-panic) = %v, want the original", err)
	}
}

func TestParseAndFormatBytes(t *testing.T) {
	good := map[string]uint64{
		"1024": 1024, "64k": 64 << 10, "64K": 64 << 10, "512MiB": 512 << 20,
		"2g": 2 << 30, "2GB": 2 << 30, "1T": 1 << 40, "7b": 7,
	}
	for in, want := range good {
		got, err := ParseBytes(in)
		if err != nil || got != want {
			t.Errorf("ParseBytes(%q) = %d, %v; want %d", in, got, err, want)
		}
	}
	for _, bad := range []string{"", "0", "-1", "x", "12q", "k", "1.5G"} {
		if _, err := ParseBytes(bad); err == nil {
			t.Errorf("ParseBytes(%q) should fail", bad)
		}
	}
	if got := FormatBytes(1536 << 20); got != "1.5GiB" {
		t.Errorf("FormatBytes = %q", got)
	}
}
