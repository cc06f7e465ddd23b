// Package soak is the chaos-soak harness behind the hidden `tmcheck
// chaos-soak` subcommand: for each seed it derives a deterministic
// fault plan (internal/chaos), runs real verification jobs — local
// checkpointed+spilled runs and a remote run through an in-process
// tmcheckd with the retrying client — and asserts the robustness
// invariant the chaos layer promises:
//
//	a fault-injected run either produces a verdict byte-identical to
//	the fault-free run, or fails with a typed error (guard limit /
//	wire connection loss). Never a hang, never corrupt output, never
//	a silently wrong verdict.
//
// Limited local runs are additionally resumed fault-free from their
// snapshot and must then reproduce the baseline exactly — the
// crash-recover-resume path under test end to end.
package soak

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"tmcheck/internal/chaos"
	"tmcheck/internal/guard"
	"tmcheck/internal/job"
	"tmcheck/internal/jobd"
	"tmcheck/internal/wire"
)

// Config shapes one soak campaign.
type Config struct {
	// Seeds is how many consecutive seeds to run; <= 0 takes 64.
	Seeds int
	// First is the first seed; 0 takes 1 (seed 0 has no plan).
	First uint64
	// Dir is the scratch directory for snapshots and spill files; ""
	// creates (and removes) a temp directory.
	Dir string
	// NoRemote skips the in-process daemon + retrying-client case.
	NoRemote bool
	// Verbose prints one line per seed to Out instead of a summary only.
	Verbose bool
	// Out receives the report; nil takes os.Stderr.
	Out io.Writer
}

// soakBudget caps every soak job's states; far above the (2,2)
// instances' real sizes, so the guard is armed but only an injected
// fault can trip it.
const soakBudget = 5_000_000

// localCase is one fault-injected local job shape.
type localCase struct {
	name string
	tm   string
}

var localCases = []localCase{{"tl2", "tl2"}, {"dstm", "dstm"}}

// Run executes the campaign and returns an error describing the first
// invariant violation (nil when every seed holds).
func Run(ctx context.Context, cfg Config) error {
	if cfg.Seeds <= 0 {
		cfg.Seeds = 64
	}
	if cfg.First == 0 {
		cfg.First = 1
	}
	if cfg.Out == nil {
		cfg.Out = os.Stderr
	}
	dir := cfg.Dir
	if dir == "" {
		var err error
		if dir, err = os.MkdirTemp("", "tmsoak-*"); err != nil {
			return err
		}
		defer os.RemoveAll(dir)
	}
	chaos.Uninstall() // baselines must be fault-free
	defer chaos.Uninstall()

	// Fault-free baselines, one per TM. The soak job is a materialized
	// check, whose worker count selects no code, so the 1-worker
	// baseline serves the chaos runs at every count.
	baselines := map[string][]byte{}
	for _, lc := range localCases {
		res, err := job.Run(ctx, soakSpec(lc.tm, 1))
		if err != nil {
			return fmt.Errorf("soak: fault-free baseline %s failed: %w", lc.name, err)
		}
		baselines[lc.tm] = normalize(res)
	}

	// One in-process daemon serves every seed's remote case; its jobs
	// run in this process, so the installed fault plan reaches the
	// server-side engines too.
	var addr string
	var srv *jobd.Server
	if !cfg.NoRemote {
		srv = jobd.New(jobd.Config{Jobs: 2, SnapDir: dir, Heartbeat: 200 * time.Millisecond,
			Logf: func(string, ...any) {}})
		bound, err := srv.Start("127.0.0.1:0")
		if err != nil {
			return fmt.Errorf("soak: daemon: %w", err)
		}
		defer srv.Close()
		addr = bound.String()
	}

	counts := map[string]int{}
	for i := 0; i < cfg.Seeds; i++ {
		seed := cfg.First + uint64(i)
		if err := ctx.Err(); err != nil {
			return err
		}
		outcomes, err := runSeed(ctx, seed, dir, addr, baselines)
		if err != nil {
			return fmt.Errorf("soak: seed %d: %w", seed, err)
		}
		for _, o := range outcomes {
			counts[strings.TrimPrefix(o, "remote:")]++
		}
		if cfg.Verbose {
			fmt.Fprintf(cfg.Out, "chaos-soak: seed %d: %v — %v\n", seed, chaos.NewPlan(seed).Armed(), outcomes)
		}
	}
	fmt.Fprintf(cfg.Out,
		"chaos-soak: %d seed(s) ok: %d matched baseline, %d typed limit (%d of those resumed to baseline), %d typed transport error, 0 violations\n",
		cfg.Seeds, counts["match"], counts["limit"]+counts["resumed"], counts["resumed"], counts["lost"])
	return nil
}

// runSeed installs seed's plan, runs the local and remote cases, and
// classifies every outcome against the invariant. The local cases
// alternate between one and two workers by seed parity, so a
// two-worker run is compared against the one-worker baseline.
func runSeed(ctx context.Context, seed uint64, dir, addr string, baselines map[string][]byte) ([]string, error) {
	chaos.Install(chaos.NewPlan(seed))
	defer chaos.Uninstall()
	var outcomes []string

	workers := 1 + int(seed%2)
	for _, lc := range localCases {
		sp := soakSpec(lc.tm, workers)
		sp.Checkpoint = filepath.Join(dir, fmt.Sprintf("s%d-%s.snap", seed, lc.name))
		sp.Spill = dir
		res, err := job.Run(ctx, sp)
		outcome, cerr := classify(baselines[lc.tm], res, err)
		if cerr != nil {
			return nil, fmt.Errorf("local %s/w%d: %w", lc.name, workers, cerr)
		}
		if outcome == "limit" {
			// The crash-recovery promise: a limited run's snapshot prefix
			// must resume — fault-free — to the exact baseline verdict.
			if ok, rerr := resumesToBaseline(ctx, sp, baselines[lc.tm]); rerr != nil {
				return nil, fmt.Errorf("local %s/w%d: resume after limit: %w", lc.name, workers, rerr)
			} else if ok {
				outcome = "resumed"
			}
		}
		outcomes = append(outcomes, outcome)
		_ = os.Remove(sp.Checkpoint)
	}

	if addr != "" {
		sp := soakSpec("dstm", 1)
		sp.Checkpoint = fmt.Sprintf("r%d.snap", seed) // server resolves into its -snap-dir
		res, err := wire.RunRetry(ctx, addr, sp, wire.RetryConfig{
			Attempts: 4, BaseDelay: 10 * time.Millisecond, MaxDelay: 100 * time.Millisecond,
			HeartbeatTimeout: 2 * time.Second,
		}, nil)
		outcome, cerr := classify(baselines["dstm"], res, err)
		if cerr != nil {
			return nil, fmt.Errorf("remote dstm: %w", cerr)
		}
		outcomes = append(outcomes, "remote:"+outcome)
		_ = os.Remove(filepath.Join(dir, sp.Checkpoint))
	}
	return outcomes, nil
}

// resumesToBaseline reruns sp fault-free from its checkpoint and
// reports whether the verdict matches baseline; a missing snapshot
// (the fault hit before anything persisted) is a clean false.
func resumesToBaseline(ctx context.Context, sp job.Spec, baseline []byte) (bool, error) {
	if _, err := os.Stat(sp.Checkpoint); err != nil {
		return false, nil
	}
	// Suspend injection for the resume run, then restore the seed's
	// plan with its counters as they were (consumed sites stay spent).
	prev := chaos.Current()
	chaos.Uninstall()
	defer chaos.Install(prev)
	sp.Resume = sp.Checkpoint
	sp.Spill = ""
	res, err := job.Run(ctx, sp)
	if err != nil {
		return false, err
	}
	if got := normalize(res); !bytes.Equal(got, baseline) {
		return false, fmt.Errorf("resumed verdict differs from baseline:\n--- baseline ---\n%s--- resumed ---\n%s", baseline, got)
	}
	return true, nil
}

// classify applies the invariant to one run's outcome.
func classify(baseline []byte, res *job.Result, err error) (string, error) {
	switch {
	case err == nil:
		got := normalize(res)
		if !bytes.Equal(got, baseline) {
			return "", fmt.Errorf("INVARIANT VIOLATION: fault-injected verdict differs from fault-free baseline:\n--- baseline ---\n%s--- injected ---\n%s", baseline, got)
		}
		return "match", nil
	case errors.Is(err, guard.ErrLimit):
		return "limit", nil
	case errors.Is(err, wire.ErrLost):
		return "lost", nil
	default:
		return "", fmt.Errorf("INVARIANT VIOLATION: untyped error (want a verdict, a guard limit, or a wire loss): %v", err)
	}
}

// soakSpec is the job shape every soak case runs: a materialized
// safety check small enough to finish in milliseconds but real enough
// to cross every injection seam (snapshot appends, spill grows, packed
// scans, the guard).
func soakSpec(tmName string, workers int) job.Spec {
	return job.Spec{
		Kind: job.KindSafety, TM: tmName, Prop: "op", Engine: "materialized",
		Threads: 2, Vars: 2, Workers: workers, MaxStates: soakBudget,
	}
}

// normalize renders res with the legitimately run-dependent fields
// (wall clocks, frontier peaks, resume seeds, limit payloads) zeroed,
// yielding the byte string two equivalent runs must share.
func normalize(res *job.Result) []byte {
	r := *res
	r.Checks = append([]job.Check(nil), res.Checks...)
	for i := range r.Checks {
		c := &r.Checks[i]
		c.ElapsedNS, c.BuildTMNS, c.BuildSpecNS = 0, 0, 0
		c.FrontierPeak = 0
		c.Resumed = 0
		c.Limit = nil
	}
	var buf bytes.Buffer
	r.Render(&buf)
	return buf.Bytes()
}
