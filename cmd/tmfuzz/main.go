// Command tmfuzz continuously cross-validates the TM specifications
// against the semantic oracles on randomized and directed words, printing
// throughput and stopping on the first disagreement (or after -n words).
// It is the standalone version of the fuzz used throughout the test suite
// — run it longer when touching the specification code:
//
//	go run ./cmd/tmfuzz -threads 3 -vars 3 -n 1000000
//	go run ./cmd/tmfuzz -directed -seed 7
//	go run ./cmd/tmfuzz -timeout 30s -maxstates 50000000
//	go run ./cmd/tmfuzz -progress -n 0
//
// The budget and telemetry flags are the shared set from
// internal/job/flags.go — -progress, -stats, -stats-json, -cpuprofile,
// -memprofile, -trace and -debug-addr behave exactly as under tmcheck
// and feed the same bus and registry.
//
// -timeout bounds the campaign's wall-clock and -maxstates the total
// number of automaton states the specification runs visit across all
// words (a cumulative campaign budget, not tmcheck's per-check one);
// -maxmem caps the heap the same way as tmcheck. Ctrl-C, an expired
// timeout, or an exhausted budget stop the campaign gracefully after
// the current word, printing the progress report and a "campaign
// stopped" line (exit 0 — a stopped campaign found no disagreement).
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"time"

	"tmcheck/internal/core"
	"tmcheck/internal/guard"
	"tmcheck/internal/job"
	"tmcheck/internal/obs"
	"tmcheck/internal/spec"
	"tmcheck/internal/wordgen"
)

// fuzzProgressEvery is the telemetry-bus heartbeat: one EvProgress per
// this many checked words (the stderr line itself is time-throttled by
// the renderer).
const fuzzProgressEvery = 512

// config bounds one fuzzing session.
type config struct {
	threads   int
	vars      int
	maxLen    int
	count     int // 0 = run forever
	seed      int64
	directed  bool
	every     int           // progress-report interval in words
	maxStates int           // 0 = unbounded: total spec states visited
	maxMem    uint64        // 0 = uncapped heap
	timeout   time.Duration // 0 = no deadline
	progress  bool          // live status line on stderr
}

func main() {
	var cfg config
	gf := job.Flags{Prog: "tmfuzz"}
	flag.IntVar(&cfg.threads, "threads", 3, "threads")
	flag.IntVar(&cfg.vars, "vars", 2, "variables")
	flag.IntVar(&cfg.maxLen, "len", 12, "maximum word length")
	flag.IntVar(&cfg.count, "n", 200000, "words to check (0 = run forever)")
	flag.Int64Var(&cfg.seed, "seed", time.Now().UnixNano(), "random seed")
	flag.BoolVar(&cfg.directed, "directed", false, "use directed generators only")
	gf.Register(flag.CommandLine)
	flag.Parse()
	cfg.every = 50000
	gf.InstallChaos()
	// The budgets go into the campaign's own guard: -maxstates here is
	// cumulative across words.
	cfg.maxStates = gf.MaxStates
	cfg.maxMem = gf.MaxMem
	cfg.timeout = gf.Timeout
	cfg.progress = gf.Progress
	if err := gf.Begin("tmfuzz"); err != nil {
		fmt.Fprintln(os.Stderr, "tmfuzz:", err)
		os.Exit(1)
	}
	ctx, stop := gf.SignalContext(context.Background())
	defer stop()
	err := fuzz(ctx, cfg, os.Stdout)
	if ferr := gf.Finish("tmfuzz"); ferr != nil && err == nil {
		err = ferr
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// fuzz runs the cross-validation loop, writing progress to out. It
// returns an error describing the first disagreement between a
// specification and the oracles, or nil after cfg.count clean words —
// or earlier when the guard (deadline, cancellation, or the cumulative
// spec-state budget) stops the campaign, which is reported on out and
// is not an error.
func fuzz(ctx context.Context, cfg config, out io.Writer) error {
	rng := rand.New(rand.NewSource(cfg.seed))
	gen := wordgen.Config{Threads: cfg.threads, Vars: cfg.vars, Len: cfg.maxLen}
	ndSS := spec.NewNondet(spec.StrictSerializability, cfg.threads, cfg.vars)
	ndOP := spec.NewNondet(spec.Opacity, cfg.threads, cfg.vars)
	dtSS := spec.NewDet(spec.StrictSerializability, cfg.threads, cfg.vars)
	dtOP := spec.NewDet(spec.Opacity, cfg.threads, cfg.vars)
	g := guard.New(ctx, cfg.maxStates, cfg.maxMem)

	fmt.Fprintf(out, "fuzzing specs vs oracles at (%d threads, %d vars), seed %d\n",
		cfg.threads, cfg.vars, cfg.seed)
	start := time.Now()
	checked := 0
	statesVisited := 0
	events := obs.EventsEnabled()
	report := func() {
		rate := float64(checked) / time.Since(start).Seconds()
		fmt.Fprintf(out, "  %d words checked (%.0f/s)\n", checked, rate)
	}
	for cfg.count == 0 || checked < cfg.count {
		if err := g.Check(statesVisited); err != nil {
			report()
			fmt.Fprintf(out, "campaign stopped: %v\n", err)
			return nil
		}
		var w core.Word
		switch {
		case cfg.directed, rng.Intn(3) == 0:
			w = wordgen.Directed(rng, gen)
		default:
			gen.Len = 4 + rng.Intn(cfg.maxLen-3)
			w = wordgen.WellFormed(rng, gen)
			gen.Len = cfg.maxLen
		}
		if len(w.Threads()) > cfg.threads {
			continue
		}
		wantSS := core.IsStrictlySerializable(w)
		wantOP := core.IsOpaque(w)
		fail := func(which string, got, want bool) error {
			return fmt.Errorf("DISAGREEMENT (%s): got %v want %v\n  word: %s\n  seed: %d",
				which, got, want, w, cfg.seed)
		}
		got, n := ndSS.AcceptsStates(w)
		statesVisited += n
		if got != wantSS {
			return fail("nondet πss", got, wantSS)
		}
		got, n = dtSS.AcceptsStates(w)
		statesVisited += n
		if got != wantSS {
			return fail("det πss", got, wantSS)
		}
		got, n = ndOP.AcceptsStates(w)
		statesVisited += n
		if got != wantOP {
			return fail("nondet πop", got, wantOP)
		}
		got, n = dtOP.AcceptsStates(w)
		statesVisited += n
		if got != wantOP {
			return fail("det πop", got, wantOP)
		}
		if wantOP && !wantSS {
			return fail("oracle internal (πop ⊆ πss)", true, false)
		}
		checked++
		if events && checked%fuzzProgressEvery == 0 {
			obs.Emit(obs.Event{
				Kind: obs.EvProgress, Name: "fuzz",
				States: int64(checked), HeapBytes: obs.SampledHeap(),
			})
		}
		if cfg.every > 0 && checked%cfg.every == 0 {
			report()
		}
	}
	report()
	fmt.Fprintln(out, "no disagreements")
	return nil
}
