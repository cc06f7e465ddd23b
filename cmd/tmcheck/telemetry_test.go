package main

// Acceptance tests for the telemetry layer's non-interference
// guarantee: with the event bus enabled and every surface attached
// (progress renderer, trace writer, a live subscriber), verdicts,
// counterexamples, and the stats report are bit-identical to a run
// with telemetry off — at one worker and at several.

import (
	"io"
	"reflect"
	"regexp"
	"testing"

	"tmcheck/internal/obs"
)

// durRE matches the wall-clock durations the drivers print ("160µs",
// "25.37ms", "1.2s") — the only run-to-run nondeterminism in their
// output.
var durRE = regexp.MustCompile(`[0-9]+(\.[0-9]+)?(ns|µs|ms|s)\b`)

// padRE matches the column padding that varies with duration width.
var padRE = regexp.MustCompile(`  +`)

// normalize scrubs wall-clock durations — and the table padding sized
// to them — from driver output so two runs of a deterministic command
// compare byte-for-byte.
func normalize(out string) string {
	return padRE.ReplaceAllString(durRE.ReplaceAllString(out, "DUR"), " ")
}

// runQuiet runs a subcommand with telemetry off and returns its stdout
// plus the counters and gauges of the stats report.
func runQuiet(t *testing.T, command string, args []string) (string, map[string]int64, map[string]int64) {
	t.Helper()
	obs.Default().Reset()
	out := captureStdout(t, func() error { return dispatch(bgCtx, command, args) })
	rep := obs.Default().Snapshot(command)
	return normalize(out), rep.Counters, rep.Gauges
}

// runLoud runs the same subcommand with the bus enabled and all three
// telemetry surfaces live: a trace writer, a piped progress renderer,
// and a subscriber draining events as an SSE client would.
func runLoud(t *testing.T, command string, args []string) (string, map[string]int64, map[string]int64) {
	t.Helper()
	bus := obs.Events()
	bus.Reset()
	bus.SetEnabled(true)
	defer func() {
		bus.SetEnabled(false)
		bus.Reset()
	}()

	sub := bus.Subscribe(256)
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		for range sub.C {
		}
	}()

	tw := obs.StartTrace(io.Discard, bus)
	var progOut syncWriter
	prog := obs.StartProgress(&progOut, bus)

	obs.Default().Reset()
	obs.Emit(obs.Event{Kind: obs.EvRunStart, Name: command})
	out := captureStdout(t, func() error { return dispatch(bgCtx, command, args) })
	obs.Emit(obs.Event{Kind: obs.EvRunDone, Name: command})
	rep := obs.Default().Snapshot(command)

	prog.Stop()
	if err := tw.Close(); err != nil {
		t.Fatalf("trace writer: %v", err)
	}
	bus.Unsubscribe(sub)
	<-drained
	return normalize(out), rep.Counters, rep.Gauges
}

// syncWriter discards writes; it only exists so the progress renderer
// has a non-TTY, goroutine-safe sink.
type syncWriter struct{}

func (syncWriter) Write(p []byte) (int, error) { return len(p), nil }

// TestTelemetryEquivalence is the PR's acceptance check: for a safety
// table and a liveness check, at workers=1 and workers=4, the verdict
// output and the counter/gauge report are identical with telemetry off
// and with every telemetry surface on.
func TestTelemetryEquivalence(t *testing.T) {
	cases := []struct {
		name    string
		command string
		args    []string
	}{
		{"table2-materialized", "table2", []string{"-engine", "materialized"}},
		{"table2-onthefly", "table2", nil},
		{"liveness-dstm-aggressive", "liveness", []string{"-tm", "dstm", "-cm", "aggressive"}},
	}
	defer func(old int) { gflags.Workers = old }(gflags.Workers)
	for _, workers := range []int{1, 4} {
		gflags.Workers = workers
		for _, tc := range cases {
			quietOut, quietCounters, quietGauges := runQuiet(t, tc.command, tc.args)
			loudOut, loudCounters, loudGauges := runLoud(t, tc.command, tc.args)
			if quietOut != loudOut {
				t.Errorf("%s workers=%d: stdout differs with telemetry on\n--- off ---\n%s\n--- on ---\n%s",
					tc.name, workers, quietOut, loudOut)
			}
			if !reflect.DeepEqual(quietCounters, loudCounters) {
				t.Errorf("%s workers=%d: counters differ with telemetry on\noff: %v\non:  %v",
					tc.name, workers, quietCounters, loudCounters)
			}
			if !reflect.DeepEqual(quietGauges, loudGauges) {
				t.Errorf("%s workers=%d: gauges differ with telemetry on\noff: %v\non:  %v",
					tc.name, workers, quietGauges, loudGauges)
			}
		}
	}
	obs.Default().Reset()
}
