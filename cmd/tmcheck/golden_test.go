package main

// Stdout goldens: the exact bytes tmcheck prints for the paper's tables
// and a few single checks, at one and two workers, after normalize has
// replaced wall-clock durations (and the column padding sized to them).
// They pin verdicts, sizes, counterexamples, loop words and layout, so
// a refactor that must not move stdout can prove it did not.
//
// Regenerate with: go test ./cmd/tmcheck -run TestStdoutGoldens -update

import (
	"flag"
	"os"
	"path/filepath"
	"testing"

	"tmcheck/internal/job"
)

var updateGoldens = flag.Bool("update", false, "rewrite the stdout goldens under testdata/")

// goldenCases are the command lines, without -workers, whose stdout is
// pinned. The -maxstates table2 runs show LIMIT cells.
var goldenCases = []struct {
	name string
	args []string
}{
	{"table2", []string{"table2"}},
	{"table2-ext", []string{"table2", "-ext"}},
	{"table3-onthefly", []string{"table3", "-engine", "onthefly"}},
	{"table3-materialized", []string{"table3", "-engine", "materialized"}},
	{"safety-dstm-op-onthefly", []string{"safety", "-tm", "dstm", "-prop", "op", "-engine", "onthefly"}},
	{"safety-dstm-op-materialized", []string{"safety", "-tm", "dstm", "-prop", "op", "-engine", "materialized"}},
	{"safety-modtl2-polite-ss-onthefly", []string{"safety", "-tm", "modtl2", "-cm", "polite", "-prop", "ss", "-engine", "onthefly"}},
	{"safety-modtl2-polite-ss-materialized", []string{"safety", "-tm", "modtl2", "-cm", "polite", "-prop", "ss", "-engine", "materialized"}},
	{"safety-modtl2-polite-ss-k3-onthefly", []string{"safety", "-tm", "modtl2", "-cm", "polite", "-prop", "ss", "-k", "3", "-engine", "onthefly"}},
	{"liveness-dstm-aggressive-onthefly", []string{"liveness", "-tm", "dstm", "-cm", "aggressive", "-engine", "onthefly"}},
	{"liveness-dstm-aggressive-materialized", []string{"liveness", "-tm", "dstm", "-cm", "aggressive", "-engine", "materialized"}},
	{"maxstates200-table2-onthefly", []string{"-maxstates", "200", "table2", "-engine", "onthefly"}},
	{"maxstates200-table2-materialized", []string{"-maxstates", "200", "table2", "-engine", "materialized"}},
}

func TestStdoutGoldens(t *testing.T) {
	defer func(old job.Flags) { gflags = old }(gflags)
	for _, workers := range []string{"1", "2"} {
		for _, tc := range goldenCases {
			g, rest, err := job.Extract(append([]string{"-workers", workers}, tc.args...))
			if err != nil {
				t.Fatal(err)
			}
			gflags = g
			got := normalize(captureStdout(t, func() error { return dispatch(bgCtx, rest[0], rest[1:]) }))
			path := filepath.Join("testdata", tc.name+".w"+workers+".golden")
			if *updateGoldens {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				continue
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if got != string(want) {
				t.Errorf("%s -workers %s: stdout differs from %s\n--- got ---\n%s\n--- want ---\n%s",
					tc.name, workers, path, got, want)
			}
		}
	}
}
