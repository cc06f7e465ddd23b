package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"tmcheck/internal/wire"
)

// Workload is one input set of the benchmark; BENCHMARK.json records
// why each was chosen.
type Workload struct {
	Name string
	// Args is the tmcheck command line of each local job; nil for the
	// service workload.
	Args []string
	// SetupArgs is the same command at the smallest instance: the fixed
	// cost a cold tmcheck process pays before any instance-dependent
	// work, timed as the local workloads' set-up.
	SetupArgs []string
	// Verdicts is the number of verdicts a local job reports.
	Verdicts int
	parse    func(string) ([]Verdict, error)
}

// workloads lists the benchmark's workloads in BENCHMARK.json order.
func workloads() []Workload {
	return []Workload{
		{Name: "service-mix"},
		{Name: "deep-bug",
			Args:      []string{"safety", "-tm", "modtl2", "-cm", "polite", "-prop", "ss", "-n", "2", "-k", "3"},
			SetupArgs: []string{"safety", "-tm", "modtl2", "-cm", "polite", "-prop", "ss", "-n", "1", "-k", "1"},
			Verdicts:  1, parse: parseSafety},
	}
}

func workloadByName(name string) (Workload, bool) {
	for _, w := range workloads() {
		if w.Name == name {
			return w, true
		}
	}
	return Workload{}, false
}

// loopStats is what one closed-loop measurement saw.
type loopStats struct {
	latMS             []float64 // latencies of the jobs that passed the gate
	attempted, failed int
	interval          time.Duration // first submission to last completion
	peakRSSKB         int64         // max resident set of the checking process
	cpu               time.Duration // CPU time of the checking processes
	errs              []string
	byEntry           map[string][]float64 // service-mix latencies per catalogue entry
}

func (s *loopStats) fail(format string, args ...any) {
	s.failed++
	if len(s.errs) < 5 {
		s.errs = append(s.errs, fmt.Sprintf(format, args...))
	}
}

func (s *loopStats) jobsPerS() float64 {
	return float64(len(s.latMS)) / s.interval.Seconds()
}

// env carries the paths and shared state of one benchmark process.
type env struct {
	root, bin, scratch string
	answers            Answers
	tr                 *Tracer // nil on untraced runs
}

func (e *env) tool(name string) string { return filepath.Join(e.bin, name) }

// localResult is one finished tmcheck process.
type localResult struct {
	lat     time.Duration
	maxRSS  int64 // KB
	cpu     time.Duration
	verdict []Verdict
	err     error
}

// runTmcheck runs one cold tmcheck process and parses its verdicts;
// the latency ends when the verdicts are parsed.
func (e *env) runTmcheck(args []string, parse func(string) ([]Verdict, error)) localResult {
	var stdout, stderr bytes.Buffer
	cmd := exec.Command(e.tool("tmcheck"), args...)
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	start := time.Now()
	err := cmd.Run()
	var r localResult
	if err == nil && parse != nil {
		r.verdict, err = parse(stdout.String())
	}
	r.lat = time.Since(start)
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok && ru != nil {
		r.maxRSS = ru.Maxrss
		r.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	if err != nil {
		r.err = fmt.Errorf("tmcheck %s: %v: %s", strings.Join(args, " "), err, strings.TrimSpace(stderr.String()))
	}
	return r
}

// runLocal is the closed loop of a local workload: one tmcheck process
// at a time (each already uses every CPU through its default worker
// count). It starts another job while that job, if it takes as long as
// the last one, would end nearer the interval's end than stopping now
// does, so a run of jobs lasting seconds ends near dur, not up to a
// whole job past it.
func (e *env) runLocal(w Workload, dur time.Duration, parent int) loopStats {
	var st loopStats
	t0 := time.Now()
	var last time.Duration
	for i := 0; i == 0 || time.Since(t0)+last/2 < dur; i++ {
		sp := e.tr.Begin("tmcheck."+w.Args[0], parent, i, 0)
		r := e.runTmcheck(w.Args, w.parse)
		sp.End()
		last = r.lat
		st.attempted++
		st.peakRSSKB = max(st.peakRSSKB, r.maxRSS)
		st.cpu += r.cpu
		if r.err == nil {
			r.err = e.answers.CheckAll(r.verdict, w.Verdicts)
		}
		if r.err != nil {
			st.fail("job %d: %v", i, r.err)
			continue
		}
		st.latMS = append(st.latMS, ms(r.lat))
	}
	st.interval = time.Since(t0)
	return st
}

// setupGap spaces the set-up repetitions out, so that their median
// spans a couple of seconds of a shared host's varying speed rather
// than one moment of it.
const setupGap = 100 * time.Millisecond

// localSetup times the workload's command at the smallest instance in
// fresh processes and returns the median.
func (e *env) localSetup(w Workload, reps int) (time.Duration, error) {
	var ds []float64
	for i := 0; i < reps; i++ {
		if i > 0 {
			time.Sleep(setupGap)
		}
		r := e.runTmcheck(w.SetupArgs, nil)
		if r.err != nil {
			return 0, r.err
		}
		ds = append(ds, r.lat.Seconds())
	}
	return time.Duration(median(ds) * 1e9), nil
}

// daemon is a running tmcheckd.
type daemon struct {
	cmd    *exec.Cmd
	addr   string
	logMu  sync.Mutex
	log    bytes.Buffer
	logged chan struct{}
}

// startDaemon launches `tmcheckd -jobs 2 -workers 1 -snap-dir dir` on
// a free loopback port and waits until it is listening.
func (e *env) startDaemon(dir string) (*daemon, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	d := &daemon{logged: make(chan struct{})}
	d.cmd = exec.Command(e.tool("tmcheckd"), "-addr", "127.0.0.1:0", "-jobs", "2", "-workers", "1", "-snap-dir", dir, "-quiet")
	// The daemon must not outlive the benchmark, even when it dies.
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	pipe, err := d.cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := d.cmd.Start(); err != nil {
		return nil, err
	}
	addrc := make(chan string, 1)
	go func() {
		defer close(d.logged)
		sc := bufio.NewScanner(pipe)
		for sc.Scan() {
			line := sc.Text()
			if _, a, ok := strings.Cut(line, "serving on "); ok {
				select {
				case addrc <- strings.TrimSpace(a):
				default:
				}
			}
			d.logMu.Lock()
			d.log.WriteString(line + "\n")
			d.logMu.Unlock()
		}
		_, _ = io.Copy(io.Discard, pipe)
	}()
	select {
	case d.addr = <-addrc:
		return d, nil
	case <-d.logged:
	case <-time.After(20 * time.Second):
	}
	_ = d.cmd.Process.Kill()
	_ = d.cmd.Wait()
	return nil, fmt.Errorf("tmcheckd did not start listening: %s", d.logText())
}

func (d *daemon) logText() string {
	d.logMu.Lock()
	defer d.logMu.Unlock()
	return strings.TrimSpace(d.log.String())
}

// cpu reads the daemon's CPU time so far from /proc.
func (d *daemon) cpu() time.Duration {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return 0
	}
	// Fields after the parenthesized command name; utime and stime are
	// fields 14 and 15 of the whole line, in clock ticks (USER_HZ=100).
	s := string(data)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0
	}
	u, _ := strconv.ParseInt(f[11], 10, 64)
	k, _ := strconv.ParseInt(f[12], 10, 64)
	return time.Duration(u+k) * 10 * time.Millisecond
}

// stop drains the daemon with SIGTERM, waits for it, and returns its
// peak resident set in KB.
func (d *daemon) stop() (int64, error) {
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan error, 1)
	go func() { done <- d.cmd.Wait() }()
	var err error
	select {
	case err = <-done:
	case <-time.After(30 * time.Second):
		_ = d.cmd.Process.Kill()
		<-done
		err = errors.New("tmcheckd did not drain within 30s; killed")
	}
	<-d.logged
	var rss int64
	if ru, ok := d.cmd.ProcessState.SysUsage().(*syscall.Rusage); ok && ru != nil {
		rss = ru.Maxrss
	}
	if err != nil {
		return rss, fmt.Errorf("tmcheckd: %v: %s", err, d.logText())
	}
	return rss, nil
}

// runEntry submits one catalogue job and gates its verdicts. The
// returned latency runs from submission until the verdicts are parsed.
func (e *env) runEntry(ctx context.Context, c *wire.Client, en Entry) (time.Duration, error) {
	start := time.Now()
	res, err := c.Run(ctx, en.Spec, nil)
	var vs []Verdict
	if err == nil {
		vs, err = resultVerdicts(res)
	}
	lat := time.Since(start)
	if err == nil {
		err = e.answers.CheckAll(vs, en.Verdicts)
	}
	if err != nil {
		return lat, fmt.Errorf("%s: %w", en.Name, err)
	}
	return lat, nil
}

// serviceSetup launches a daemon and writes the resume fixture through
// it; the set-up time runs from launch until the fixture job returned.
func (e *env) serviceSetup(dir string) (*daemon, time.Duration, error) {
	start := time.Now()
	d, err := e.startDaemon(dir)
	if err != nil {
		return nil, 0, err
	}
	c, err := wire.Dial(d.addr)
	if err == nil {
		_, err = e.runEntry(context.Background(), c, fixtureEntry())
		c.Close()
	}
	took := time.Since(start)
	if err != nil {
		_, _ = d.stop()
		return nil, 0, fmt.Errorf("service set-up: %w", err)
	}
	return d, took, nil
}

// serviceSetups runs the service set-up reps times, keeping the last
// daemon, and returns the median set-up time.
func (e *env) serviceSetups(reps int) (*daemon, time.Duration, error) {
	var ds []float64
	var d *daemon
	for i := 0; i < reps; i++ {
		if d != nil {
			if _, err := d.stop(); err != nil {
				return nil, 0, err
			}
			time.Sleep(setupGap)
		}
		var took time.Duration
		var err error
		d, took, err = e.serviceSetup(filepath.Join(e.scratch, fmt.Sprintf("snap-%d", i)))
		if err != nil {
			return nil, 0, err
		}
		ds = append(ds, took.Seconds())
	}
	return d, time.Duration(median(ds) * 1e9), nil
}

// runService is the closed loop of service-mix: two client
// connections, each keeping one job outstanding, drawing jobs from the
// seeded catalogue sequence until the measured interval has elapsed.
func (e *env) runService(d *daemon, seq *jobSeq, next *int, dur time.Duration, parent int) loopStats {
	st := loopStats{byEntry: make(map[string][]float64)}
	var mu sync.Mutex
	const conns = 2
	ctx := context.Background()
	cpu0 := d.cpu()
	t0 := time.Now()
	var wg sync.WaitGroup
	for lane := 0; lane < conns; lane++ {
		c, err := wire.Dial(d.addr)
		if err != nil {
			st.fail("dial: %v", err)
			continue
		}
		wg.Add(1)
		go func(lane int, c *wire.Client) {
			defer wg.Done()
			defer c.Close()
			for {
				mu.Lock()
				if st.attempted > 0 && time.Since(t0) >= dur {
					mu.Unlock()
					return
				}
				i := *next
				*next++
				en := seq.at(i)
				st.attempted++
				mu.Unlock()
				sp := e.tr.Begin("wire.Client.Run", parent, i, lane)
				lat, err := e.runEntry(ctx, c, en)
				sp.End()
				mu.Lock()
				if err != nil {
					st.fail("job %d: %v", i, err)
				} else {
					st.latMS = append(st.latMS, ms(lat))
					st.byEntry[en.Name] = append(st.byEntry[en.Name], ms(lat))
				}
				mu.Unlock()
			}
		}(lane, c)
	}
	wg.Wait()
	st.interval = time.Since(t0)
	st.cpu = d.cpu() - cpu0
	return st
}

// Order statistics.

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile is the linearly interpolated q-quantile of xs (0 for none).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// minTailSamples is the number of jobs a run needs before it reports
// job_p90_ms: at least ten samples must lie beyond the 90th percentile.
const minTailSamples = 100

// p90 returns the 90th-percentile latency, or ok = false when the run
// has too few samples for it.
func p90(lat []float64) (float64, bool) {
	if len(lat) < minTailSamples {
		return 0, false
	}
	return quantile(lat, 0.9), true
}
