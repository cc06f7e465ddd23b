// Command tmbench is the benchmark of record of the tmcheck model
// checker. It runs the checker the way users run it — a fresh tmcheck
// process per local job, a tmcheckd daemon over loopback for the
// service — gates every verdict against a hand-written answer file and
// the brute-force oracles, and prints end-to-end metrics per workload.
// A traced run (-trace 1) additionally times each layer's public entry
// points from this package and prints the per-layer metrics, a
// per-layer self-time table, and a Chrome trace-event file.
//
// Build and run it through run.sh from the repository root:
//
//	bash tmbench/run.sh --workload deep-bug --seed 1 --seconds 10 --trace 0
//	bash tmbench/run.sh --workload service-mix --seed 1 --seconds 10 --trace 1
//	bash tmbench/run.sh --steadiness 5      # two sets of 5 seeds per workload
//	bash tmbench/run.sh --steadiness 10 --record   # ... and rewrite baseline.json
//
// Workloads (closed loop; see workloads() for the rationale of each):
// service-mix and deep-bug. The last line of
// standard output is one JSON object with the keys correct, attempted,
// failed and metrics. The process exits 1 when any verdict disagrees
// with the answer file or the oracle, and 2 on a usage or set-up error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the last line of standard output.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// Set-up repetitions: the reported set-up time is their median.
const (
	localSetupReps   = 21
	serviceSetupReps = 7
)

// serviceWarmup is how long service-mix runs its job sequence before
// the measured interval, so that the daemon's heap has grown to its
// working size; its jobs are gated and counted but not timed.
const serviceWarmup = time.Second

func main() {
	root := flag.String("root", ".", "repository root (the directory holding BENCHMARK.json)")
	bin := flag.String("bin", "", "directory holding the tmcheck and tmcheckd binaries")
	name := flag.String("workload", "", "workload to run: service-mix or deep-bug")
	seed := flag.Int64("seed", 1, "workload seed (draws the service-mix job sequence)")
	seconds := flag.Int("seconds", 10, "length of the measured interval")
	trace := flag.Int("trace", 0, "1 runs the traced run and reports the per-layer metrics")
	steadiness := flag.Int("steadiness", 0, "run two sets of this many seeds per workload and compare their medians")
	record := flag.Bool("record", false, "with -steadiness: also run each workload traced and write tmbench/baseline.json")
	flag.Parse()

	if *bin == "" {
		fatal(2, "tmbench: -bin is required (run through tmbench/run.sh)")
	}
	if *steadiness > 0 {
		os.Exit(steady(*root, *bin, *steadiness, *record))
	}
	w, ok := workloadByName(*name)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fatal(2, "tmbench: need -workload (service-mix|deep-bug), -seconds >= 1 and -trace 0|1")
	}
	scratch := filepath.Join(*root, ".bench_build", "run", fmt.Sprintf("%s-%d-%d", w.Name, *seed, os.Getpid()))
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		fatal(2, "tmbench: %v", err)
	}
	defer os.RemoveAll(scratch)
	e := &env{root: *root, bin: *bin, scratch: scratch, answers: mustAnswers()}
	dur := time.Duration(*seconds) * time.Second

	var rep report
	var err error
	if *trace == 1 {
		rep, err = e.tracedRun(w, *seed, dur)
	} else {
		var st loopStats
		var setup time.Duration
		st, setup, err = e.measure(w, *seed, dur, 0)
		if err == nil {
			printLoop(w, *seed, st, setup)
			rep = report{Attempted: st.attempted, Failed: st.failed, Correct: st.failed == 0,
				Metrics: endToEnd(st, setup)}
		}
	}
	if err != nil {
		os.RemoveAll(scratch)
		fatal(2, "tmbench: %s: %v", w.Name, err)
	}
	for name, m := range rep.Metrics {
		// A run whose jobs all failed has no latencies to divide by; the
		// report must still print, with correct=false.
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			rep.Metrics[name] = metric{0, m.Unit}
		}
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fatal(2, "tmbench: %v", err)
	}
	fmt.Println(string(line))
	if !rep.Correct {
		os.RemoveAll(scratch)
		os.Exit(1)
	}
}

func fatal(code int, format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(code)
}

// measure sets the workload up and runs its closed loop for dur.
func (e *env) measure(w Workload, seed int64, dur time.Duration, parent int) (loopStats, time.Duration, error) {
	if w.Args != nil {
		setup, err := e.localSetup(w, localSetupReps)
		if err != nil {
			return loopStats{}, 0, err
		}
		return e.runLocal(w, dur, parent), setup, nil
	}
	d, setup, err := e.serviceSetups(serviceSetupReps)
	if err != nil {
		return loopStats{}, 0, err
	}
	seq, next := newJobSeq(seed), 0
	warm := e.runService(d, seq, &next, serviceWarmup, parent)
	st := e.runService(d, seq, &next, dur, parent)
	st.attempted += warm.attempted
	st.failed += warm.failed
	st.errs = append(warm.errs, st.errs...)
	rss, err := d.stop()
	st.peakRSSKB = rss
	return st, setup, err
}

// endToEnd derives the end-to-end metrics of one measured loop.
func endToEnd(st loopStats, setup time.Duration) map[string]metric {
	return map[string]metric{
		"jobs_per_s":  {st.jobsPerS(), "1/s"},
		"job_p50_ms":  {median(st.latMS), "ms"},
		"peak_rss_mb": {float64(st.peakRSSKB) / 1024, "MB"},
		"setup_s":     {setup.Seconds(), "s"},
	}
}

// printLoop prints the human-readable end-to-end report of one run,
// including the metrics that are not gated: job_p90_ms (only with at
// least minTailSamples jobs) and failed_frac.
func printLoop(w Workload, seed int64, st loopStats, setup time.Duration) {
	fmt.Printf("workload %s seed %d: %d jobs attempted, %d failed, %.3f s measured, nproc %d, GOMAXPROCS %d\n",
		w.Name, seed, st.attempted, st.failed, st.interval.Seconds(), runtime.NumCPU(), runtime.GOMAXPROCS(0))
	for _, e := range st.errs {
		fmt.Printf("  FAILED %s\n", e)
	}
	fmt.Printf("  %-12s %12.4f 1/s\n", "jobs_per_s", st.jobsPerS())
	fmt.Printf("  %-12s %12.4f ms\n", "job_p50_ms", median(st.latMS))
	if v, ok := p90(st.latMS); ok {
		fmt.Printf("  %-12s %12.4f ms (n=%d)\n", "job_p90_ms", v, len(st.latMS))
	} else {
		fmt.Printf("  %-12s %12s    (n=%d < %d, not reported)\n", "job_p90_ms", "-", len(st.latMS), minTailSamples)
	}
	fmt.Printf("  %-12s %12.4f MB\n", "peak_rss_mb", float64(st.peakRSSKB)/1024)
	fmt.Printf("  %-12s %12.4f s\n", "setup_s", setup.Seconds())
	frac := 0.0
	if st.attempted > 0 {
		frac = float64(st.failed) / float64(st.attempted)
	}
	fmt.Printf("  %-12s %12.4f\n", "failed_frac", frac)
	if len(st.byEntry) > 0 {
		fmt.Println("  per catalogue entry: jobs, p50 ms, max ms")
		for _, en := range catalogue() {
			l := st.byEntry[en.Name]
			fmt.Printf("    %-28s %5d %10.3f %10.3f\n", en.Name, len(l), median(l), quantile(l, 1))
		}
	}
}
