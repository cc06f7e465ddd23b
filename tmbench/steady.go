package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// benchSpec is the part of BENCHMARK.json the steadiness mode reads.
type benchSpec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// steady runs two sets of n untraced runs per workload, each run with a
// seed of its own, and prints per end-to-end metric both medians, each
// set's quartile spread (as a share of its median) and whether the
// second median is within the metric's bound of the first. With record
// it then runs each workload traced once and writes the lot, with the
// machine it ran on, to tmbench/baseline.json. It returns the process
// exit code: 0 when every metric agrees and every spread other than
// setup_s's is within its bound.
func steady(root, bin string, n int, record bool) int {
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		fmt.Fprintln(os.Stderr, "tmbench:", err)
		return 2
	}
	var spec benchSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		fmt.Fprintln(os.Stderr, "tmbench: BENCHMARK.json:", err)
		return 2
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "tmbench:", err)
		return 2
	}
	ok := true
	base := baseline{Workloads: make(map[string]*workloadRecord),
		Comment: "Baseline of tmbench, written by `bash tmbench/run.sh --steadiness N --record` on the machine below. " +
			"end_to_end: medians and quartile spreads (as a share of the median) of two sets of N untraced runs, one seed each; " +
			"job_p90_ms is kept here but not gated. per_layer and counts: one traced run, seed 1. " +
			"Traced runs flag any change of the counts against this file. A record of the code as it is; it claims no gain."}
	for _, w := range spec.Workloads {
		rec := &workloadRecord{Why: w.Why, EndToEnd: make(map[string]e2eRecord)}
		base.Workloads[w.Name] = rec
		var sets [2]map[string][]float64
		var p90s []float64
		for s := range sets {
			sets[s] = make(map[string][]float64)
			for i := 1; i <= n; i++ {
				seed := int64(1000*(s+1) + i)
				rep, out, err := runChild(self, root, bin, w.Name, seed, spec.RunSeconds, 0)
				if err != nil {
					fmt.Fprintf(os.Stderr, "tmbench: %s seed %d: %v\n", w.Name, seed, err)
					return 1
				}
				for name, m := range rep.Metrics {
					sets[s][name] = append(sets[s][name], m.Value)
				}
				if m := p90RE.FindStringSubmatch(out); m != nil {
					v, _ := strconv.ParseFloat(m[1], 64)
					p90s = append(p90s, v)
				}
			}
		}
		if len(p90s) == 2*n {
			rec.JobP90MS = &e2eRecord{Unit: "ms", Median1: median(p90s[:n]), Median2: median(p90s[n:]),
				Spread1: spread(p90s[:n]), Spread2: spread(p90s[n:])}
		}
		fmt.Printf("workload %s: two sets of %d runs, %d s each\n", w.Name, n, spec.RunSeconds)
		fmt.Printf("  %-12s %14s %14s %9s %9s %7s  %s\n", "metric", "median_1", "median_2", "spread_1", "spread_2", "bound", "verdict")
		for _, m := range spec.EndToEnd {
			a, b := sets[0][m.Name], sets[1][m.Name]
			if len(a) != n || len(b) != n {
				fmt.Printf("  %-12s missing from some runs\n", m.Name)
				ok = false
				continue
			}
			ma, mb := median(a), median(b)
			sa, sb := spread(a), spread(b)
			worse := (mb - ma) / ma
			if m.Better == "higher" {
				worse = (ma - mb) / ma
			}
			verdict := "agree"
			if worse > m.Bound {
				verdict = "DISAGREE"
				ok = false
			}
			if m.Name != "setup_s" && (sa > m.Bound || sb > m.Bound) {
				verdict += ", SPREAD OVER BOUND"
				ok = false
			} else if m.Name != "setup_s" && (sa > m.Bound/3 || sb > m.Bound/3) {
				verdict += ", spread over a third of the bound"
			}
			fmt.Printf("  %-12s %14.4f %14.4f %9.4f %9.4f %7.3f  %s (%s)\n", m.Name, ma, mb, sa, sb, m.Bound, verdict, m.Unit)
			rec.EndToEnd[m.Name] = e2eRecord{Unit: m.Unit, Median1: ma, Median2: mb, Spread1: sa, Spread2: sb}
		}
		if rec.JobP90MS != nil {
			fmt.Printf("  %-12s %14.4f %14.4f %9.4f %9.4f %7s  not gated (ms)\n", "job_p90_ms",
				rec.JobP90MS.Median1, rec.JobP90MS.Median2, rec.JobP90MS.Spread1, rec.JobP90MS.Spread2, "-")
		}
	}
	if record {
		for _, w := range spec.Workloads {
			rep, _, err := runChild(self, root, bin, w.Name, 1, spec.RunSeconds, 1)
			if err != nil {
				fmt.Fprintf(os.Stderr, "tmbench: traced %s: %v\n", w.Name, err)
				return 1
			}
			rec := base.Workloads[w.Name]
			rec.PerLayer = make(map[string]float64)
			rec.Counts = make(map[string]float64)
			for name, m := range rep.Metrics {
				rec.PerLayer[name] = m.Value
			}
			for _, name := range exactCounts {
				rec.Counts[name] = rep.Metrics[name].Value
			}
		}
		base.Machine = machineRecord{NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
			CLIWorkers: runtime.GOMAXPROCS(0), DaemonWorkers: 1, GoVersion: runtime.Version(),
			OSArch: runtime.GOOS + "/" + runtime.GOARCH, RunSeconds: spec.RunSeconds, RunsPerSet: n}
		data, err := json.MarshalIndent(base, "", "  ")
		if err == nil {
			err = os.WriteFile(filepath.Join(root, "tmbench", "baseline.json"), append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "tmbench: writing baseline:", err)
			return 1
		}
		fmt.Println("wrote tmbench/baseline.json")
	}
	if !ok {
		return 1
	}
	return 0
}

// baseline is the record written by -steadiness N -record.
type baseline struct {
	Comment   string                     `json:"comment"`
	Machine   machineRecord              `json:"machine"`
	Workloads map[string]*workloadRecord `json:"workloads"`
}

type machineRecord struct {
	NumCPU        int    `json:"nproc"`
	GOMAXPROCS    int    `json:"gomaxprocs"`
	CLIWorkers    int    `json:"cli_workers"`
	DaemonWorkers int    `json:"daemon_workers"`
	GoVersion     string `json:"go_version"`
	OSArch        string `json:"os_arch"`
	RunSeconds    int    `json:"run_seconds"`
	RunsPerSet    int    `json:"runs_per_set"`
}

type workloadRecord struct {
	Why      string               `json:"why"`
	EndToEnd map[string]e2eRecord `json:"end_to_end"`
	JobP90MS *e2eRecord           `json:"job_p90_ms,omitempty"`
	PerLayer map[string]float64   `json:"per_layer"`
	Counts   map[string]float64   `json:"counts"`
}

// e2eRecord is one end-to-end metric over the two sets of runs.
type e2eRecord struct {
	Unit    string  `json:"unit"`
	Median1 float64 `json:"median_1"`
	Median2 float64 `json:"median_2"`
	Spread1 float64 `json:"spread_1"`
	Spread2 float64 `json:"spread_2"`
}

var p90RE = regexp.MustCompile(`(?m)^\s*job_p90_ms\s+([0-9.]+) ms`)

// runChild runs one benchmark run in a child process and returns its
// report line and its whole standard output.
func runChild(self, root, bin, workload string, seed int64, seconds, trace int) (report, string, error) {
	var out, errb bytes.Buffer
	cmd := exec.Command(self, "-root", root, "-bin", bin, "-workload", workload,
		"-seed", strconv.FormatInt(seed, 10), "-seconds", strconv.Itoa(seconds), "-trace", strconv.Itoa(trace))
	cmd.Stdout, cmd.Stderr = &out, &errb
	err := cmd.Run()
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var rep report
	if jerr := json.Unmarshal([]byte(lines[len(lines)-1]), &rep); jerr != nil {
		return rep, "", fmt.Errorf("no report (%v): %s", err, strings.TrimSpace(errb.String()))
	}
	if err != nil || !rep.Correct {
		return rep, "", fmt.Errorf("run failed (%v):\n%s", err, out.String())
	}
	return rep, out.String(), nil
}

// spread is the distance between the first and third quartiles as a
// share of the median.
func spread(xs []float64) float64 {
	q := pyQuartiles(xs)
	return (q[2] - q[0]) / q[1]
}

// pyQuartiles returns the quartiles exactly as Python's
// statistics.quantiles(xs, n=4) computes them (the default
// "exclusive" method), so the spreads printed here are the ones the
// acceptance check computes.
func pyQuartiles(xs []float64) [3]float64 {
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	ld := len(d)
	var out [3]float64
	if ld == 1 {
		return [3]float64{d[0], d[0], d[0]}
	}
	m := ld + 1
	for i := 1; i < 4; i++ {
		j := i * m / 4
		j = max(1, min(j, ld-1))
		delta := float64(i*m - j*4)
		out[i-1] = (d[j-1]*(4-delta) + d[j]*delta) / 4
	}
	return out
}
