package job

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"tmcheck/internal/guard"
	"tmcheck/internal/obs"
	"tmcheck/internal/tm"
)

func TestParseKindRoundTrip(t *testing.T) {
	for _, k := range []Kind{KindSafety, KindLiveness, KindTable2, KindTable3} {
		got, err := ParseKind(k.String())
		if err != nil || got != k {
			t.Errorf("ParseKind(%q) = %v, %v; want %v", k.String(), got, err, k)
		}
	}
	if _, err := ParseKind("table4"); err == nil {
		t.Error("ParseKind(table4) should error")
	}
	if s := Kind(9).String(); s != "kind(9)" {
		t.Errorf("Kind(9).String() = %q", s)
	}
}

func TestNormalizeDefaults(t *testing.T) {
	cases := []struct {
		kind             Kind
		wantN, wantK     int
		wantTM, wantProp string
	}{
		{KindSafety, 2, 2, "dstm", "op"},
		{KindLiveness, 2, 1, "dstm", ""},
		{KindTable2, 2, 2, "", ""},
		{KindTable3, 2, 1, "", ""},
	}
	for _, c := range cases {
		s := Spec{Kind: c.kind}
		s.Normalize()
		if s.Engine != "onthefly" {
			t.Errorf("%v: engine = %q, want onthefly", c.kind, s.Engine)
		}
		if s.Threads != c.wantN || s.Vars != c.wantK {
			t.Errorf("%v: instance = (%d,%d), want (%d,%d)", c.kind, s.Threads, s.Vars, c.wantN, c.wantK)
		}
		if s.TM != c.wantTM || s.Prop != c.wantProp {
			t.Errorf("%v: tm/prop = %q/%q, want %q/%q", c.kind, s.TM, s.Prop, c.wantTM, c.wantProp)
		}
	}
	// Explicit values survive.
	s := Spec{Kind: KindSafety, TM: "tl2", Prop: "ss", Engine: "materialized", Threads: 3, Vars: 1}
	s.Normalize()
	if s.TM != "tl2" || s.Prop != "ss" || s.Engine != "materialized" || s.Threads != 3 || s.Vars != 1 {
		t.Errorf("Normalize overwrote explicit fields: %+v", s)
	}
}

// TestValidateWholeRegistry exhaustively validates the single-system
// kinds over every registered algorithm × every manager (and no
// manager) — the daemon's admission check must accept exactly what the
// CLI would.
func TestValidateWholeRegistry(t *testing.T) {
	managers := append([]string{""}, tm.ManagerNames()...)
	for _, alg := range tm.AlgorithmNames() {
		for _, cm := range managers {
			for _, prop := range []string{"ss", "op"} {
				s := Spec{Kind: KindSafety, TM: alg, CM: cm, Prop: prop}
				s.Normalize()
				if err := s.Validate(); err != nil {
					t.Errorf("safety %s+%s %s: %v", alg, cm, prop, err)
				}
			}
			s := Spec{Kind: KindLiveness, TM: alg, CM: cm}
			s.Normalize()
			if err := s.Validate(); err != nil {
				t.Errorf("liveness %s+%s: %v", alg, cm, err)
			}
		}
	}
	for _, kind := range []Kind{KindTable2, KindTable3} {
		for _, engine := range []string{"onthefly", "materialized", ""} {
			s := Spec{Kind: kind, Engine: engine}
			s.Normalize()
			if err := s.Validate(); err != nil {
				t.Errorf("%v engine %q: %v", kind, engine, err)
			}
		}
	}
}

func TestValidateRejects(t *testing.T) {
	cases := []struct {
		name string
		s    Spec
		want string
	}{
		{"bad engine", Spec{Kind: KindTable2, Engine: "quantum", Threads: 2, Vars: 2}, "quantum"},
		{"bad instance", Spec{Kind: KindTable2, Threads: -1, Vars: 2}, "invalid instance"},
		{"bad prop", Spec{Kind: KindSafety, TM: "dstm", Prop: "xx", Threads: 2, Vars: 2}, "unknown safety property"},
		{"bad tm", Spec{Kind: KindSafety, TM: "nope", Prop: "op", Threads: 2, Vars: 2}, "nope"},
		{"bad cm", Spec{Kind: KindLiveness, TM: "dstm", CM: "nope", Threads: 2, Vars: 1}, "nope"},
		{"bad kind", Spec{Kind: Kind(9), Threads: 2, Vars: 2}, "unknown kind"},
	}
	for _, c := range cases {
		err := c.s.Validate()
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want mention of %q", c.name, err, c.want)
		}
	}
}

// TestLimitRoundTrip pins that a limit error surviving serialization
// reconstructs the same message and errors.Is behavior for every kind.
func TestLimitRoundTrip(t *testing.T) {
	cases := []struct {
		le       *guard.LimitError
		sentinel error
	}{
		{&guard.LimitError{Kind: guard.KindStates, Budget: 100, Visited: 101, Elapsed: time.Second}, guard.ErrStates},
		{&guard.LimitError{Kind: guard.KindTime, Elapsed: 3 * time.Second}, guard.ErrTimeout},
		{&guard.LimitError{Kind: guard.KindMemory, MaxMemBytes: 1 << 30, HeapBytes: 2 << 30}, guard.ErrMemory},
		{&guard.LimitError{Kind: guard.KindCancelled, Elapsed: time.Millisecond}, guard.ErrCancelled},
		{&guard.LimitError{Kind: guard.KindPanic, Value: "index out of range"}, guard.ErrPanic},
	}
	for _, c := range cases {
		got := LimitFrom(c.le).Err()
		if got.Error() != c.le.Error() {
			t.Errorf("kind %v: message %q != original %q", c.le.Kind, got.Error(), c.le.Error())
		}
		if !errors.Is(got, c.sentinel) {
			t.Errorf("kind %v: reconstructed error lost errors.Is(%v)", c.le.Kind, c.sentinel)
		}
	}
	if LimitFrom(nil) != nil {
		t.Error("LimitFrom(nil) != nil")
	}
	var nilLimit *Limit
	if nilLimit.Err() != nil {
		t.Error("(*Limit)(nil).Err() != nil")
	}
}

func TestReconstructError(t *testing.T) {
	le := &guard.LimitError{Kind: guard.KindStates, Budget: 50, Visited: 51}
	l := LimitFrom(le)

	// Exact message: the typed error comes back.
	err := ReconstructError(le.Error(), l)
	if !errors.Is(err, guard.ErrStates) || err.Error() != le.Error() {
		t.Errorf("exact reconstruction broken: %v", err)
	}
	// Wrapped message: prefix survives, errors.Is still works.
	wrapped := "3 check(s) hit resource limits: " + le.Error()
	err = ReconstructError(wrapped, l)
	if err.Error() != wrapped {
		t.Errorf("wrapped message = %q, want %q", err.Error(), wrapped)
	}
	if !errors.Is(err, guard.ErrStates) {
		t.Error("wrapped reconstruction lost errors.Is")
	}
	// Plain message without a limit: opaque error.
	err = ReconstructError("dial tcp: no route", nil)
	if err == nil || err.Error() != "dial tcp: no route" {
		t.Errorf("plain reconstruction = %v", err)
	}
	if ReconstructError("", nil) != nil {
		t.Error("empty message should reconstruct nil")
	}
}

// TestAsLimit unwraps through fmt wrapping.
func TestAsLimit(t *testing.T) {
	le := &guard.LimitError{Kind: guard.KindTime, Elapsed: time.Second}
	if got := AsLimit(errors.New("plain")); got != nil {
		t.Errorf("AsLimit(plain) = %v", got)
	}
	if got := AsLimit(le); got != le {
		t.Errorf("AsLimit(direct) = %v", got)
	}
	wrapped := &wrappedLimit{prefix: "x: ", le: le}
	if got := AsLimit(wrapped); got != le {
		t.Errorf("AsLimit(wrapped) = %v", got)
	}
}

// TestRunSafety drives one real check end to end through the job
// layer: dstm is opaque at (2,2).
func TestRunSafety(t *testing.T) {
	res, err := Run(context.Background(), Spec{Kind: KindSafety, TM: "dstm"})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Checks) != 1 {
		t.Fatalf("got %d checks, want 1", len(res.Checks))
	}
	c := res.Checks[0]
	if c.System != "dstm" || c.Prop != "op" || !c.Holds || c.TMStates != 2864 {
		t.Errorf("check = %+v, want dstm/op holding with 2864 states", c)
	}
	var sb strings.Builder
	res.Render(&sb)
	out := sb.String()
	for _, want := range []string{"system:         dstm", "verdict:        SAFE", "TM states:      2864"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

// TestRunSafetyBudget checks a Spec-scoped budget stops the check with
// the typed limit error.
func TestRunSafetyBudget(t *testing.T) {
	_, err := Run(context.Background(), Spec{Kind: KindSafety, TM: "dstm", MaxStates: 100})
	if !errors.Is(err, guard.ErrStates) {
		t.Errorf("want state-budget error, got %v", err)
	}
}

// TestRunLiveness drives the liveness path: dstm+aggressive holds
// obstruction freedom and fails livelock freedom at (2,1).
func TestRunLiveness(t *testing.T) {
	res, err := Run(context.Background(), Spec{Kind: KindLiveness, TM: "dstm", CM: "aggressive"})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Checks) != 3 {
		t.Fatalf("got %d checks, want 3", len(res.Checks))
	}
	if !res.Checks[0].Holds || res.Checks[0].Prop != "obstruction" {
		t.Errorf("obstruction check = %+v", res.Checks[0])
	}
	if res.Checks[1].Holds || res.Checks[1].LoopWord == "" {
		t.Errorf("livelock check should fail with a loop: %+v", res.Checks[1])
	}
	var sb strings.Builder
	res.Render(&sb)
	out := sb.String()
	for _, want := range []string{"obstruction freedom:   HOLDS", "livelock freedom:      FAILS, loop:"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

// TestRunValidateFailsFirst refuses bad specs before constructing any
// state.
func TestRunValidateFailsFirst(t *testing.T) {
	if _, err := Run(context.Background(), Spec{Kind: KindSafety, TM: "nope"}); err == nil {
		t.Error("unknown TM should fail")
	}
	if _, err := Run(context.Background(), Spec{Kind: Kind(7)}); err == nil {
		t.Error("unknown kind should fail")
	}
}

// TestEventsForwarding subscribes through job.Events and checks an
// emitted bus event reaches the callback, then stop unsubscribes
// cleanly.
func TestEventsForwarding(t *testing.T) {
	got := make(chan obs.Event, 1)
	stop := Events(16, func(e obs.Event) {
		select {
		case got <- e:
		default:
		}
	})
	obs.Emit(obs.Event{Kind: obs.EvProgress, Name: "test", States: 42})
	select {
	case e := <-got:
		if e.Name != "test" || e.States != 42 {
			t.Errorf("forwarded event = %+v", e)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("event not forwarded")
	}
	stop()
	// The bus must be usable (and quiet) after stop.
	obs.Emit(obs.Event{Kind: obs.EvProgress, Name: "after-stop"})
}
