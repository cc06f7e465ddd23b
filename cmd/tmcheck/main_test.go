package main

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"tmcheck/internal/job"
	"tmcheck/internal/obs"
	"tmcheck/internal/space"
)

// bgCtx is the no-deadline context the direct run* call sites use.
var bgCtx = context.Background()

// captureStdoutErr runs f with os.Stdout redirected to a pipe and
// returns what it printed along with f's error.
func captureStdoutErr(t *testing.T, f func() error) (string, error) {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	errCh := make(chan error, 1)
	go func() { errCh <- f() }()
	runErr := <-errCh
	w.Close()
	os.Stdout = old
	buf := make([]byte, 1<<20)
	n, _ := r.Read(buf)
	// Drain any remainder.
	for {
		m, err := r.Read(buf[n:])
		n += m
		if err != nil || n == len(buf) {
			break
		}
	}
	return string(buf[:n]), runErr
}

// captureStdout is captureStdoutErr for commands that must succeed.
func captureStdout(t *testing.T, f func() error) string {
	t.Helper()
	out, err := captureStdoutErr(t, f)
	if err != nil {
		t.Fatalf("command failed: %v", err)
	}
	return out
}

func TestRunTable1(t *testing.T) {
	out := captureStdout(t, func() error { return runTable1(bgCtx, nil) })
	for _, want := range []string{
		"Table 1",
		"(rl,1)1, (r,1)1, (wl,2)1, (w,2)1, c1, (wl,2)2",
		"(r,1)1, (o,1)2, (w,1)2, v2, c2, (o,2)1, (w,2)1, a1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("table1 output missing %q", want)
		}
	}
}

func TestRunTable2(t *testing.T) {
	out := captureStdout(t, func() error { return runTable2(bgCtx, nil) })
	for _, want := range []string{"seq", "modtl2+polite", "counterexample", "Y,", "N,"} {
		if !strings.Contains(out, want) {
			t.Errorf("table2 output missing %q", want)
		}
	}
}

func TestRunTable3(t *testing.T) {
	out := captureStdout(t, func() error { return runTable3(bgCtx, nil) })
	for _, want := range []string{"dstm+aggressive", "loop a1", "Y,"} {
		if !strings.Contains(out, want) {
			t.Errorf("table3 output missing %q", want)
		}
	}
	mat := captureStdout(t, func() error { return runTable3(bgCtx, []string{"-engine", "materialized"}) })
	for _, want := range []string{"dstm+aggressive", "loop a1", "Y,"} {
		if !strings.Contains(mat, want) {
			t.Errorf("table3 -engine materialized output missing %q", want)
		}
	}
	if err := runTable3(bgCtx, []string{"-engine", "nope"}); err == nil {
		t.Error("unknown engine should error")
	}
}

func TestRunSpecs(t *testing.T) {
	out := captureStdout(t, func() error { return runSpecs(nil) })
	for _, want := range []string{"Theorem 3", "opacity", "minimal"} {
		if !strings.Contains(out, want) {
			t.Errorf("specs output missing %q", want)
		}
	}
	if strings.Contains(out, "EQUIVALENCE FAILS") {
		t.Error("spec equivalence failed")
	}
}

func TestRunFigures(t *testing.T) {
	out := captureStdout(t, func() error { return runFigures(nil) })
	if !strings.Contains(out, "Figure 2(b)") {
		t.Error("figures output missing Figure 2(b)")
	}
}

func TestRunSafetyVerdicts(t *testing.T) {
	out := captureStdout(t, func() error {
		return runSafety(bgCtx, []string{"-tm", "modtl2", "-cm", "polite", "-prop", "ss"})
	})
	for _, want := range []string{"UNSAFE", "counterexample", "must precede"} {
		if !strings.Contains(out, want) {
			t.Errorf("safety output missing %q:\n%s", want, out)
		}
	}
	out = captureStdout(t, func() error {
		return runSafety(bgCtx, []string{"-tm", "dstm", "-prop", "op"})
	})
	if !strings.Contains(out, "SAFE") {
		t.Errorf("safety output missing SAFE verdict:\n%s", out)
	}
}

func TestRunLiveness(t *testing.T) {
	out := captureStdout(t, func() error {
		return runLiveness(bgCtx, []string{"-tm", "dstm", "-cm", "aggressive"})
	})
	for _, want := range []string{"obstruction freedom", "HOLDS", "livelock freedom", "FAILS", "onthefly engine", "states expanded"} {
		if !strings.Contains(out, want) {
			t.Errorf("liveness output missing %q:\n%s", want, out)
		}
	}
	if err := runLiveness(bgCtx, []string{"-engine", "nope"}); err == nil {
		t.Error("unknown engine should error")
	}
}

// TestRunLivenessEnginesAgree runs both engines through the CLI and
// checks the per-property verdict lines match verbatim.
func TestRunLivenessEnginesAgree(t *testing.T) {
	verdicts := func(out string) []string {
		var lines []string
		for _, line := range strings.Split(out, "\n") {
			if strings.Contains(line, "HOLDS") || strings.Contains(line, "FAILS") {
				lines = append(lines, line[:strings.Index(line, ":")+1]+" "+verdictTail(line))
			}
		}
		return lines
	}
	otf := captureStdout(t, func() error {
		return runLiveness(bgCtx, []string{"-tm", "tl2", "-cm", "polite"})
	})
	mat := captureStdout(t, func() error {
		return runLiveness(bgCtx, []string{"-tm", "tl2", "-cm", "polite", "-engine", "materialized"})
	})
	got, want := verdicts(otf), verdicts(mat)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("engine verdicts differ:\nonthefly:     %v\nmaterialized: %v", got, want)
	}
}

// verdictTail strips the timing so HOLDS lines compare across engines;
// FAILS lines keep the full loop word.
func verdictTail(line string) string {
	if i := strings.Index(line, "FAILS"); i >= 0 {
		return line[i:]
	}
	return "HOLDS"
}

func TestRunWord(t *testing.T) {
	out := captureStdout(t, func() error {
		return runWord([]string{"-w", "(w,2)1, (w,1)2, (r,2)2, (r,1)1, c2, c1"})
	})
	for _, want := range []string{"strictly serializable:  false", "conflict cycle"} {
		if !strings.Contains(out, want) {
			t.Errorf("word output missing %q:\n%s", want, out)
		}
	}
}

func TestRunWordErrors(t *testing.T) {
	if err := runWord([]string{"-w", "(x,1)1"}); err == nil {
		t.Error("bad word should error")
	}
	if err := runWord(nil); err == nil {
		t.Error("missing -w should error")
	}
}

func TestRunCount(t *testing.T) {
	out := captureStdout(t, func() error { return runCount(bgCtx, []string{"-len", "4"}) })
	for _, want := range []string{"πss", "L(dstm)", "permissiveness"} {
		if !strings.Contains(out, want) {
			t.Errorf("count output missing %q", want)
		}
	}
}

func TestRunTrace(t *testing.T) {
	out := captureStdout(t, func() error {
		return runTrace([]string{"-stm", "tl2", "-threads", "2", "-count", "5"})
	})
	for _, want := range []string{"invariant", "opaque = true"} {
		if !strings.Contains(out, want) {
			t.Errorf("trace output missing %q:\n%s", want, out)
		}
	}
	if err := runTrace([]string{"-stm", "nope"}); err == nil {
		t.Error("unknown STM should error")
	}
}

func TestRunMethodology(t *testing.T) {
	out := captureStdout(t, func() error {
		return runMethodology([]string{"-tm", "2pl"})
	})
	if !strings.Contains(out, "ALL programs") {
		t.Errorf("methodology output missing conclusion:\n%s", out)
	}
	if err := runMethodology([]string{"-tm", "nope"}); err == nil {
		t.Error("unknown TM should error")
	}
}

func TestRunDot(t *testing.T) {
	out := captureStdout(t, func() error {
		return runDot(bgCtx, []string{"-tm", "seq", "-k", "1"})
	})
	if !strings.Contains(out, "digraph") {
		t.Errorf("dot output missing digraph:\n%s", out)
	}
}

func TestExtractGlobalFlags(t *testing.T) {
	g, rest, err := job.Extract([]string{
		"table2", "-n", "3", "-stats", "-stats-json", "out.json", "-cpuprofile=cpu.prof",
	})
	if err != nil {
		t.Fatal(err)
	}
	if !g.Stats || g.StatsJSON != "out.json" || g.CPUProfile != "cpu.prof" {
		t.Errorf("flags not extracted: %+v", g)
	}
	if want := []string{"table2", "-n", "3"}; !reflect.DeepEqual(rest, want) {
		t.Errorf("rest = %v, want %v", rest, want)
	}

	// Global flags are position-independent: before the subcommand too.
	g2, rest2, err := job.Extract([]string{"-memprofile", "mem.prof", "table1"})
	if err != nil {
		t.Fatal(err)
	}
	if g2.MemProfile != "mem.prof" || !reflect.DeepEqual(rest2, []string{"table1"}) {
		t.Errorf("prefix extraction failed: %+v rest %v", g2, rest2)
	}

	if _, _, err := job.Extract([]string{"table1", "-stats-json"}); err == nil {
		t.Error("dangling -stats-json should error")
	}

	g3, rest3, err := job.Extract([]string{"-workers", "4", "table2", "-n", "2"})
	if err != nil {
		t.Fatal(err)
	}
	if g3.Workers != 4 || !reflect.DeepEqual(rest3, []string{"table2", "-n", "2"}) {
		t.Errorf("-workers extraction failed: %+v rest %v", g3, rest3)
	}
	for _, bad := range []string{"0", "-2", "x"} {
		if _, _, err := job.Extract([]string{"-workers", bad, "table1"}); err == nil {
			t.Errorf("-workers %s should error", bad)
		}
	}

	g4, rest4, err := job.Extract([]string{"-maxstates", "5000", "safety", "-tm", "tl2"})
	if err != nil {
		t.Fatal(err)
	}
	if g4.MaxStates != 5000 || !reflect.DeepEqual(rest4, []string{"safety", "-tm", "tl2"}) {
		t.Errorf("-maxstates extraction failed: %+v rest %v", g4, rest4)
	}
	for _, bad := range []string{"0", "-5", "many"} {
		if _, _, err := job.Extract([]string{"-maxstates", bad, "table1"}); err == nil {
			t.Errorf("-maxstates %s should error", bad)
		}
	}

	g5, rest5, err := job.Extract([]string{"-timeout", "30s", "-maxmem", "2g", "-strict-limits", "table3"})
	if err != nil {
		t.Fatal(err)
	}
	if g5.Timeout != 30*time.Second || g5.MaxMem != 2<<30 || !g5.StrictLimits {
		t.Errorf("resource flags not extracted: %+v", g5)
	}
	if !reflect.DeepEqual(rest5, []string{"table3"}) {
		t.Errorf("rest = %v, want [table3]", rest5)
	}
	for _, bad := range [][]string{
		{"-timeout", "0s", "table1"},
		{"-timeout", "soon", "table1"},
		{"-maxmem", "lots", "table1"},
	} {
		if _, _, err := job.Extract(bad); err == nil {
			t.Errorf("%v should error", bad)
		}
	}

	g6, rest6, err := job.Extract([]string{"-remote", "127.0.0.1:7078", "table2"})
	if err != nil {
		t.Fatal(err)
	}
	if g6.Remote != "127.0.0.1:7078" || !reflect.DeepEqual(rest6, []string{"table2"}) {
		t.Errorf("-remote extraction failed: %+v rest %v", g6, rest6)
	}
}

// TestMaxStatesBudgetCLI drives the budget end to end: under a tiny
// -maxstates both engines abort the safety command with a budget error
// naming the budget.
func TestMaxStatesBudgetCLI(t *testing.T) {
	defer func(old job.Flags) { gflags = old }(gflags)
	gflags.MaxStates = 100
	for _, engine := range []string{"onthefly", "materialized"} {
		err := runSafety(bgCtx, []string{"-tm", "dstm", "-prop", "op", "-engine", engine})
		if !errors.Is(err, space.ErrBudgetExceeded) {
			t.Errorf("engine %s: want budget error, got %v", engine, err)
		}
	}
}

// TestMaxStatesBudgetLivenessCLI drives -maxstates through the liveness
// paths: the single-system liveness command still fails fast with the
// typed budget error (whose message names the flag to raise), while the
// table3 driver keeps going — limited rows render as LIMIT(states), the
// command exits clean by default and fails only under -strict-limits.
func TestMaxStatesBudgetLivenessCLI(t *testing.T) {
	defer func(old job.Flags) { gflags = old }(gflags)
	gflags.MaxStates = 50
	for _, engine := range []string{"onthefly", "materialized"} {
		err := runLiveness(bgCtx, []string{"-tm", "dstm", "-cm", "aggressive", "-engine", engine})
		if !errors.Is(err, space.ErrBudgetExceeded) {
			t.Errorf("liveness engine %s: want budget error, got %v", engine, err)
		}
		if err == nil || !strings.Contains(err.Error(), "-maxstates") {
			t.Errorf("liveness engine %s: error %q does not name -maxstates", engine, err)
		}
		out, err := captureStdoutErr(t, func() error {
			return runTable3(bgCtx, []string{"-engine", engine})
		})
		if err != nil {
			t.Errorf("table3 engine %s: keep-going run failed: %v", engine, err)
		}
		if !strings.Contains(out, "LIMIT(states)") {
			t.Errorf("table3 engine %s: output missing LIMIT(states):\n%s", engine, out)
		}
		// seq fits in 50 states even materialized, so at least one row
		// must still complete with a real verdict (every (2,1) verdict
		// that resolves is a violation with its loop word).
		if !strings.Contains(out, "N, loop") {
			t.Errorf("table3 engine %s: no completed row alongside the limited ones:\n%s", engine, out)
		}
		strictLimits = true
		_, err = captureStdoutErr(t, func() error {
			return runTable3(bgCtx, []string{"-engine", engine})
		})
		strictLimits = false
		if !errors.Is(err, space.ErrBudgetExceeded) {
			t.Errorf("table3 engine %s -strict-limits: want budget error, got %v", engine, err)
		}
	}
}

// TestTable2KeepGoingCLI runs table2 under a budget that stops the
// larger systems: limited cells render as LIMIT(states), the small
// systems still get verdicts, and -strict-limits flips the exit.
func TestTable2KeepGoingCLI(t *testing.T) {
	defer func(old job.Flags) { gflags = old }(gflags)
	gflags.MaxStates = 200
	for _, engine := range []string{"onthefly", "materialized"} {
		out, err := captureStdoutErr(t, func() error {
			return runTable2(bgCtx, []string{"-engine", engine})
		})
		if err != nil {
			t.Errorf("table2 engine %s: keep-going run failed: %v", engine, err)
		}
		if !strings.Contains(out, "LIMIT(states)") {
			t.Errorf("table2 engine %s: output missing LIMIT(states):\n%s", engine, out)
		}
		strictLimits = true
		_, err = captureStdoutErr(t, func() error {
			return runTable2(bgCtx, []string{"-engine", engine})
		})
		strictLimits = false
		if !errors.Is(err, space.ErrBudgetExceeded) {
			t.Errorf("table2 engine %s -strict-limits: want budget error, got %v", engine, err)
		}
	}
}

// TestTimeoutTable3CLI cancels table3 with an already-expired deadline:
// every row reports LIMIT(time), the command still exits clean, and the
// stats report records the limited rows.
func TestTimeoutTable3CLI(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel()
	<-ctx.Done()
	obs.Default().Reset()
	defer obs.Default().Reset()
	out, err := captureStdoutErr(t, func() error {
		return dispatch(ctx, "table3", nil)
	})
	if err != nil {
		t.Fatalf("expired table3 run failed: %v", err)
	}
	if !strings.Contains(out, "LIMIT(time)") {
		t.Errorf("output missing LIMIT(time):\n%s", out)
	}
	rep := obs.Default().Snapshot("table3")
	limited := int64(0)
	for key, v := range rep.Counters {
		if strings.Contains(key, ".limit_time") {
			limited += v
		}
	}
	if limited == 0 {
		t.Errorf("stats report has no driver.*.limit_time counters: %v", rep.Counters)
	}
}

// TestStatsReportTable2 is the acceptance check of the observability
// layer: running table2 twice produces reports with identical counter
// and gauge values (times may differ), containing per-TM exploration
// counts, spec enumeration size and time, inclusion pairs visited, and
// the phase wall-clock breakdown. It pins the materialized pipeline,
// whose counters come from the build-then-check stages; the default
// on-the-fly engine is covered by TestStatsReportTable2OnTheFly.
func TestStatsReportTable2(t *testing.T) {
	run := func() obs.Report {
		obs.Default().Reset()
		captureStdout(t, func() error { return dispatch(bgCtx, "table2", []string{"-engine", "materialized"}) })
		return obs.Default().Snapshot("table2")
	}
	rep := run()
	rep2 := run()
	defer obs.Default().Reset()

	if !reflect.DeepEqual(rep.Counters, rep2.Counters) {
		t.Errorf("counters differ between identical runs:\n%v\n%v", rep.Counters, rep2.Counters)
	}
	if !reflect.DeepEqual(rep.Gauges, rep2.Gauges) {
		t.Errorf("gauges differ between identical runs:\n%v\n%v", rep.Gauges, rep2.Gauges)
	}
	for _, key := range []string{
		"explore.seq.states", "explore.2pl.states", "explore.dstm.states",
		"explore.tl2.states", "explore.modtl2+polite.states",
		"explore.dstm.edges", "explore.dstm.eps_steps", "explore.dstm.abort_edges",
		"spec.det.ss.n2k2.states", "spec.det.op.n2k2.states",
		"safety.dstm.ss.pairs", "safety.modtl2+polite.op.pairs",
		"automata.dfa_inclusion.pairs",
	} {
		if rep.Counters[key] <= 0 {
			t.Errorf("counter %q missing or zero in report", key)
		}
	}
	// Table 2's "size" column: dstm explores 2864 states at (2,2).
	if got := rep.Counters["explore.dstm.states"]; got != 2864 {
		t.Errorf("explore.dstm.states = %d, want 2864", got)
	}
	for _, key := range []string{"spec.det.ss.n2k2.enumerate", "spec.det.op.n2k2.enumerate"} {
		if rep.Timers[key].Count != 1 {
			t.Errorf("timer %q = %+v, want one enumeration", key, rep.Timers[key])
		}
	}
	// Phase tree: table2 → safety:<system> → build-tm/build-spec/inclusion.
	if len(rep.Phases) != 1 || rep.Phases[0].Name != "table2" {
		t.Fatalf("phase roots = %+v, want single table2", rep.Phases)
	}
	var names []string
	for _, p := range rep.Phases[0].Children {
		names = append(names, p.Name)
		for _, c := range p.Children {
			names = append(names, c.Name)
		}
	}
	joined := strings.Join(names, " ")
	for _, want := range []string{"safety:seq", "safety:modtl2+polite", "build-tm", "build-spec:ss", "inclusion:dstm:op"} {
		if !strings.Contains(joined, want) {
			t.Errorf("phase tree missing %q: %v", want, names)
		}
	}
}

// TestStatsReportTable2OnTheFly checks the vitals of the default
// engine: table2 records per-system on-the-fly counters, and the spec
// states the lazy product constructs never exceed the full enumeration
// (strictly fewer for the restrictive TMs).
func TestStatsReportTable2OnTheFly(t *testing.T) {
	obs.Default().Reset()
	defer obs.Default().Reset()
	captureStdout(t, func() error { return dispatch(bgCtx, "table2", nil) })
	rep := obs.Default().Snapshot("table2")

	for _, key := range []string{
		"safety.seq.ss.otf.product_pairs", "safety.dstm.op.otf.product_pairs",
		"safety.modtl2+polite.ss.otf.product_pairs",
	} {
		if rep.Counters[key] <= 0 {
			t.Errorf("counter %q missing or zero in report", key)
		}
	}
	// The lazy spec never grows past the full enumeration (5614 ss /
	// 2208 op states at (2,2)), and the restrictive seq TM constructs
	// far fewer.
	full := map[string]int64{"ss": 5614, "op": 2208}
	for _, sys := range []string{"seq", "2pl", "dstm", "tl2", "modtl2+polite"} {
		for prop, limit := range full {
			key := "safety." + sys + "." + prop + ".otf.spec_states"
			got, ok := rep.Gauges[key]
			if !ok {
				t.Errorf("gauge %q missing in report", key)
				continue
			}
			if got > limit {
				t.Errorf("%s exceeds the full spec: %d > %d", key, got, limit)
			}
		}
	}
	if got := rep.Gauges["safety.seq.ss.otf.spec_states"]; got >= 100 {
		t.Errorf("seq constructed %d ss spec states, expected a small fraction of 5614", got)
	}
	// The failing modtl2+polite checks record their early-exit depth.
	if got := rep.Gauges["safety.modtl2+polite.ss.otf.early_exit_depth"]; got <= 0 {
		t.Errorf("early_exit_depth missing for modtl2+polite ss, gauges: %v", rep.Gauges)
	}
}

// TestStatsReportLiveness threads the -stats machinery through the
// liveness path, matching the safety pipeline: the materialized engine
// records build-tm and per-check phases plus per-property vitals; the
// on-the-fly engine records its probe counters under the .otf keys.
func TestStatsReportLiveness(t *testing.T) {
	obs.Default().Reset()
	defer obs.Default().Reset()
	captureStdout(t, func() error {
		return dispatch(bgCtx, "liveness", []string{"-tm", "dstm", "-cm", "aggressive", "-engine", "materialized"})
	})
	rep := obs.Default().Snapshot("liveness")
	for _, key := range []string{
		"liveness.dstm+aggressive.obstruction.checks",
		"liveness.dstm+aggressive.livelock.checks",
		"liveness.dstm+aggressive.wait.checks",
		"liveness.dstm+aggressive.obstruction.probes",
	} {
		if rep.Counters[key] <= 0 {
			t.Errorf("counter %q missing or zero in materialized report", key)
		}
	}
	if rep.Gauges["liveness.dstm+aggressive.obstruction.tm_states"] != 192 {
		t.Errorf("tm_states gauge = %d, want 192", rep.Gauges["liveness.dstm+aggressive.obstruction.tm_states"])
	}
	if len(rep.Phases) != 1 || rep.Phases[0].Name != "liveness" {
		t.Fatalf("phase roots = %+v, want single liveness", rep.Phases)
	}
	var names []string
	for _, p := range rep.Phases[0].Children {
		names = append(names, p.Name)
	}
	joined := strings.Join(names, " ")
	for _, want := range []string{"build-tm", "check:obstruction", "check:livelock", "check:wait"} {
		if !strings.Contains(joined, want) {
			t.Errorf("materialized phase tree missing %q: %v", want, names)
		}
	}

	obs.Default().Reset()
	captureStdout(t, func() error {
		return dispatch(bgCtx, "liveness", []string{"-tm", "dstm", "-cm", "aggressive"})
	})
	rep = obs.Default().Snapshot("liveness")
	for _, key := range []string{
		"liveness.dstm+aggressive.obstruction.otf.checks",
		"liveness.dstm+aggressive.obstruction.otf.probes",
		"liveness.dstm+aggressive.livelock.otf.probes",
	} {
		if rep.Counters[key] <= 0 {
			t.Errorf("counter %q missing or zero in on-the-fly report", key)
		}
	}
	// Livelock freedom fails early: strictly fewer states expanded than
	// the 192-state fixpoint the HOLDS verdict needs.
	lk := rep.Gauges["liveness.dstm+aggressive.livelock.otf.expanded"]
	ob := rep.Gauges["liveness.dstm+aggressive.obstruction.otf.expanded"]
	if lk <= 0 || ob != 192 || lk >= ob {
		t.Errorf("otf expanded gauges: livelock %d, obstruction %d (want 0 < livelock < 192 = obstruction)", lk, ob)
	}
}

func TestStatsOutputsWritten(t *testing.T) {
	dir := t.TempDir()
	jsonPath := filepath.Join(dir, "report.json")
	memPath := filepath.Join(dir, "mem.prof")
	cpuPath := filepath.Join(dir, "cpu.prof")
	g := job.Flags{StatsJSON: jsonPath, MemProfile: memPath, CPUProfile: cpuPath}
	if err := g.Begin("table1"); err != nil {
		t.Fatal(err)
	}
	obs.Default().Reset()
	captureStdout(t, func() error { return dispatch(bgCtx, "table1", nil) })
	if err := g.Finish("table1"); err != nil {
		t.Fatal(err)
	}
	defer obs.Default().Reset()

	raw, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	var rep obs.Report
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatalf("stats JSON does not parse: %v", err)
	}
	if rep.Schema != obs.Schema || rep.Command != "table1" {
		t.Errorf("report header = %q/%q, want %q/table1", rep.Schema, rep.Command, obs.Schema)
	}
	for _, p := range []string{memPath, cpuPath} {
		if fi, err := os.Stat(p); err != nil || fi.Size() == 0 {
			t.Errorf("profile %s missing or empty (err %v)", p, err)
		}
	}
}

func TestUnknownAlgorithmErrors(t *testing.T) {
	if err := runSafety(bgCtx, []string{"-tm", "nope"}); err == nil {
		t.Error("unknown TM should error")
	}
	if err := runLiveness(bgCtx, []string{"-cm", "nope"}); err == nil {
		t.Error("unknown manager should error")
	}
}
