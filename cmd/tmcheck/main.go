// Command tmcheck is the model checker for transactional memories: it
// regenerates every table and figure of Guerraoui, Henzinger and Singh,
// "Model Checking Transactional Memories", and checks user-selected TMs
// and words against the safety and liveness specifications.
//
// Usage:
//
//	tmcheck table1                 reproduce Table 1 (runs and words)
//	tmcheck table2 [-n 2 -k 2] [-engine onthefly|materialized]
//	                               reproduce Table 2 (safety verdicts)
//	tmcheck table3 [-n 2 -k 1] [-engine onthefly|materialized]
//	                               reproduce Table 3 (liveness verdicts)
//	tmcheck specs  [-n 2 -k 2]     specification sizes and Theorem 3
//	tmcheck figures                analyze the Figure 1 and 2 words
//	tmcheck safety -tm NAME [-cm NAME] [-prop ss|op] [-n 2 -k 2]
//	               [-engine onthefly|materialized]
//	tmcheck liveness -tm NAME [-cm NAME] [-n 2 -k 1]
//	               [-engine onthefly|materialized]
//	tmcheck word -w "(r,1)1, c1" [-n N -k K]
//	tmcheck all                    everything above with defaults
//
// Every command additionally accepts the global flags -workers N,
// -maxstates N, -timeout D, -maxmem BYTES, -strict-limits, -stats,
// -stats-json FILE, -cpuprofile FILE, -memprofile FILE, -progress,
// -trace FILE, -debug-addr ADDR, -remote ADDR, -checkpoint FILE,
// -resume FILE and -spill DIR (see internal/job/flags.go), e.g.:
//
//	tmcheck table2 -stats-json report.json
//	tmcheck -workers 4 table2
//	tmcheck -maxstates 100000 safety -tm tl2 -n 2 -k 3
//	tmcheck table3 -n 3 -k 2 -timeout 5s
//	tmcheck -progress -trace table2.trace.json table2
//	tmcheck -debug-addr localhost:7077 table3 -n 3 -k 2
//	tmcheck -remote 127.0.0.1:7078 table2
//
// -progress streams a throttled live status line to stderr; -trace
// writes a Chrome trace-event timeline (open in Perfetto); -debug-addr
// serves /vitals, an /events SSE stream, and /debug/pprof while the
// command runs. All three feed off the same in-process event bus,
// which stays disabled — at zero cost — when none of them is set.
//
// -workers sets the worker count of the on-the-fly safety search's TM
// expansion ahead of its product loop and of the table2/table3 row
// fan-out; it defaults to GOMAXPROCS. Every state space — TM
// exploration, specification enumeration, the products — runs one
// sequential loop, so results are bit-identical for every worker count.
//
// -maxstates bounds the total number of states any check constructs
// (TM states + spec states + product pairs); a check that would exceed
// the budget aborts with a budget error instead of exhausting memory.
// Every subcommand that explores a TM honors it: safety, liveness,
// table2, table3 and all in both engines, plus the builds of table1,
// count and dot. -maxmem bounds the heap the same way. -workers,
// -maxstates and -maxmem travel as explicit values into the job spec
// for the verification commands (locally and with -remote); -maxstates
// and -maxmem also guard every other build. -timeout bounds the whole
// command, and Ctrl-C (SIGINT/SIGTERM) cancels in-flight checks at the
// same polling points, so a stopped check reports the states it
// reached deterministically.
//
// The table drivers (table2, table3, all) keep going when a row hits a
// limit: the stopped cell renders as LIMIT(states|time|mem|cancelled|
// panic), the remaining rows still run, and the command exits 0 unless
// -strict-limits is set.
// Safety checks default to the on-the-fly engine, which interleaves TM
// exploration with specification stepping and constructs only the spec
// states the product reaches; -engine=materialized restores the classic
// build-then-check pipeline. Liveness checks likewise default to an
// on-the-fly engine that probes the growing exploration prefix for
// violating lassos and stops at the first violation; verdicts and loop
// words are bit-identical to the materialized engine at every -workers
// count.
//
// -remote ADDR submits the verification commands (table2, table3,
// safety, liveness) to a running tmcheckd (cmd/tmcheckd) instead of
// checking in-process: the job spec — including the budget flags —
// travels over the wire protocol, progress frames stream back into the
// local -progress display, and the rendered output is identical to a
// local run up to wall-clock timings. Ctrl-C cancels the remote job at
// the same deterministic barriers as -maxstates and still collects the
// partial result.
//
// -checkpoint FILE makes a materialized-engine run append the interned
// state-space prefix to FILE at every guard barrier, so the work done
// before a SIGKILL, -timeout expiry or blown -maxstates budget is not
// thrown away; -resume FILE (usually the same path) seeds the next run
// from the snapshot, and the resumed run's stdout is byte-identical to
// an uninterrupted one at any -workers count. -spill DIR keeps the
// visited set's key storage in mmap-backed files under DIR, letting
// state spaces larger than RAM stay checkable. All three travel with
// -remote (the daemon maps them into its -snap-dir).
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"tmcheck/internal/automata"
	"tmcheck/internal/core"
	"tmcheck/internal/explore"
	"tmcheck/internal/guard"
	"tmcheck/internal/job"
	"tmcheck/internal/obs"
	"tmcheck/internal/runtime"
	"tmcheck/internal/safety"
	"tmcheck/internal/spec"
	"tmcheck/internal/tm"
	"tmcheck/internal/wire"
)

// gflags holds the parsed global flags; strictLimits mirrors its
// StrictLimits field as a package var so tests can flip it directly.
var (
	gflags       job.Flags
	strictLimits bool
)

// buildBudgeted materializes one system under ctx plus the
// -maxstates/-maxmem limits, so every subcommand that builds a full
// transition system is guarded the same way.
func buildBudgeted(ctx context.Context, alg tm.Algorithm, cm tm.ContentionManager) (*explore.TS, error) {
	return explore.BuildGuarded(alg, cm, guard.New(ctx, gflags.MaxStates, gflags.MaxMem), nil)
}

// limitSummary finishes a keep-going table run: limited checks get a
// one-line stderr summary, and -strict-limits turns them into a command
// error (nonzero exit) that still wraps the first typed limit.
func limitSummary(limits []*guard.LimitError) error {
	if len(limits) == 0 {
		return nil
	}
	fmt.Fprintf(os.Stderr, "tmcheck: %d check(s) hit resource limits; first: %v\n", len(limits), limits[0])
	if strictLimits {
		return fmt.Errorf("%d check(s) hit resource limits: %w", len(limits), limits[0])
	}
	return nil
}

// runJob routes one verification job: locally through job.Run, or to
// the tmcheckd named by -remote. Both paths render the same Result the
// same way, so the output bytes match up to wall-clock timings.
func runJob(ctx context.Context, sp job.Spec) error {
	sp.Workers = gflags.Workers
	sp.MaxStates = gflags.MaxStates
	sp.MaxMem = gflags.MaxMem
	sp.Checkpoint = gflags.Checkpoint
	sp.Resume = gflags.Resume
	sp.Spill = gflags.Spill
	var res *job.Result
	var err error
	if gflags.Remote != "" {
		res, err = runRemote(ctx, sp)
	} else {
		var cfg job.Config
		if cfg, err = gflags.JobConfig(); err == nil {
			res, err = job.RunConfig(ctx, sp, cfg)
		}
	}
	if err != nil {
		return err
	}
	// The note goes to stderr: stdout stays byte-identical to an
	// uninterrupted run, which the resume-equivalence tests pin.
	if n := res.Resumed(); n > 0 {
		fmt.Fprintf(os.Stderr, "tmcheck: resumed from %d states (snapshot %s)\n", n, sp.Resume)
	}
	res.Render(os.Stdout)
	return limitSummary(res.Limits())
}

// runRemote submits sp to the daemon at -remote through the
// self-healing retry loop: a lost connection (or a silent server
// tripping -heartbeat-timeout) reconnects with capped exponential
// backoff up to -retries attempts, and with -checkpoint set the
// resubmission resumes from the snapshot the daemon already persisted.
// The budget flags ride in the spec — -timeout too, since the daemon
// cannot see this command's context — and streamed progress frames are
// re-emitted onto the local bus so -progress and -trace work unchanged.
func runRemote(ctx context.Context, sp job.Spec) (*job.Result, error) {
	sp.Timeout = gflags.Timeout
	var onProgress func(wire.Progress)
	if obs.EventsEnabled() {
		onProgress = func(p wire.Progress) {
			obs.Emit(obs.Event{
				Kind:      obs.EvProgress,
				Name:      p.Name,
				Level:     p.Level,
				States:    p.States,
				Frontier:  p.Frontier,
				HeapBytes: p.HeapBytes,
				Detail:    p.Detail,
			})
		}
	}
	res, err := wire.RunRetry(ctx, gflags.Remote, sp, wire.RetryConfig{
		Attempts:         gflags.Retries,
		HeartbeatTimeout: gflags.HeartbeatTimeout,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "tmcheck: "+format+"\n", args...)
		},
	}, onProgress)
	if err != nil {
		return nil, fmt.Errorf("remote %s: %w", gflags.Remote, err)
	}
	if res == nil {
		return nil, fmt.Errorf("remote %s: empty result", gflags.Remote)
	}
	return res, nil
}

func main() {
	g, rest, gerr := job.Extract(os.Args[1:])
	if gerr != nil {
		fmt.Fprintln(os.Stderr, "tmcheck:", gerr)
		os.Exit(2)
	}
	gflags = g
	strictLimits = g.StrictLimits
	if len(rest) < 1 {
		usage()
		os.Exit(2)
	}
	cmd, args := rest[0], rest[1:]
	gflags.InstallChaos()
	if err := gflags.Begin(cmd); err != nil {
		fmt.Fprintln(os.Stderr, "tmcheck:", err)
		os.Exit(1)
	}
	// Ctrl-C and SIGTERM cancel every in-flight check at its next guard
	// poll; -timeout turns into a deadline on the same context.
	ctx, stop := gflags.SignalContext(context.Background())
	defer stop()
	err := dispatch(ctx, cmd, args)
	if ferr := gflags.Finish(cmd); ferr != nil && err == nil {
		err = ferr
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "tmcheck:", err)
		os.Exit(1)
	}
}

// dispatch runs one subcommand inside a top-level obs phase named
// after it, so every report's phase tree is rooted at the command.
func dispatch(ctx context.Context, cmd string, args []string) error {
	if gflags.Remote != "" {
		switch cmd {
		case "table2", "table3", "safety", "liveness":
		default:
			return fmt.Errorf("-remote supports table2, table3, safety and liveness; %q only runs locally", cmd)
		}
	}
	done := obs.Phase(cmd)
	defer done()
	var err error
	switch cmd {
	case "table1":
		err = runTable1(ctx, args)
	case "table2":
		err = runTable2(ctx, args)
	case "table3":
		err = runTable3(ctx, args)
	case "specs":
		err = runSpecs(args)
	case "figures":
		err = runFigures(args)
	case "safety":
		err = runSafety(ctx, args)
	case "liveness":
		err = runLiveness(ctx, args)
	case "word":
		err = runWord(args)
	case "count":
		err = runCount(ctx, args)
	case "dot":
		err = runDot(ctx, args)
	case "trace":
		err = runTrace(args)
	case "methodology":
		err = runMethodology(args)
	case "chaos-soak":
		// Hidden: the deterministic fault-injection soak the CI chaos
		// smoke runs (see internal/soak).
		err = runChaosSoak(ctx, args)
	case "all":
		err = runAll(ctx)
	case "help", "-h", "--help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "tmcheck: unknown command %q\n", cmd)
		usage()
		os.Exit(2)
	}
	return err
}

func usage() {
	fmt.Fprint(os.Stderr, `usage: tmcheck <command> [flags]

commands:
  table1     reproduce the paper's Table 1 (example runs and words)
  table2     reproduce Table 2 (safety language inclusion)
  table3     reproduce Table 3 (liveness model checking)
  specs      specification sizes and nondet/det equivalence (Theorem 3)
  figures    analyze the Figure 1 and Figure 2 example words
  safety     check one TM against a safety property
  liveness   check one TM (with a manager) against liveness properties
  word       classify a word under both safety properties
  count      count safe words and TM words per length (permissiveness)
  dot        dump a TM transition system in Graphviz DOT format
  trace      run an executable STM workload and check its recorded trace
  methodology  run the full reduction methodology on one TM
  all        run table1, table2, table3, specs and figures

global flags (any command, before or after it):
  -workers N        on-the-fly safety helpers and table row fan-out (default GOMAXPROCS)
  -maxstates N      abort any check constructing more than N states
  -timeout D        cancel outstanding checks after D (e.g. 30s, 5m)
  -maxmem BYTES     stop checks when the Go heap exceeds BYTES (e.g. 512m, 2g)
  -strict-limits    exit nonzero when any table row hits a resource limit
  -stats            print the instrumentation report to stderr
  -stats-json FILE  write the machine-readable report to FILE ("-" = stdout)
  -cpuprofile FILE  write a pprof CPU profile
  -memprofile FILE  write a pprof heap profile
  -progress         stream live status (level, states, states/sec, heap) to stderr
  -trace FILE       write a Chrome trace-event timeline (Perfetto-loadable)
  -debug-addr ADDR  serve /vitals, /events (SSE) and /debug/pprof on ADDR
  -remote ADDR      submit table2/table3/safety/liveness to a tmcheckd at ADDR
  -checkpoint FILE  append the explored prefix to FILE at every guard barrier
                    so killed or limited runs can resume (-engine materialized)
  -resume FILE      seed the run from a snapshot (usually the -checkpoint path)
  -spill DIR        keep visited-set keys in mmap-backed files under DIR
  -snap-sync MODE   checkpoint fsync policy: always (default), batch[:N], none
  -strict-persist   fail on snapshot/spill I/O errors instead of degrading
  -retries N        with -remote: connection attempts before giving up (default 5)
  -heartbeat-timeout D  with -remote: declare a silent server dead after D
                    while a job is in flight (default 30s; 0 disables)
  -chaos-seed N     inject a deterministic fault plan (testing; 0 = off)

`)
	fmt.Fprintf(os.Stderr, "algorithms: %s\n", strings.Join(tm.AlgorithmNames(), ", "))
	fmt.Fprintf(os.Stderr, "managers:   %s\n", strings.Join(tm.ManagerNames(), ", "))
}

func runTable1(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("table1", flag.ContinueOnError)
	if err := fs.Parse(args); err != nil {
		return err
	}
	fmt.Println("Table 1: example runs and emitted words")
	fmt.Printf("%-14s %-58s %s\n", "TM/schedule", "run", "word")
	for _, sc := range explore.Table1Scenarios {
		ts, err := buildBudgeted(ctx, sc.Alg(), nil)
		if err != nil {
			return err
		}
		run := ts.RunProgram(sc.Schedule, sc.Programs)
		fmt.Printf("%-14s %-58s %s\n", sc.Name, explore.FormatRun(run), ts.WordOf(run))
	}
	return nil
}

func runTable2(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("table2", flag.ContinueOnError)
	n := fs.Int("n", 2, "threads")
	k := fs.Int("k", 2, "variables")
	ext := fs.Bool("ext", false, "include the extension TMs (norec, etl) and broken variants")
	engineName := fs.String("engine", "onthefly", "safety engine: onthefly or materialized")
	if err := fs.Parse(args); err != nil {
		return err
	}
	return runJob(ctx, job.Spec{
		Kind:    job.KindTable2,
		Engine:  *engineName,
		Threads: *n,
		Vars:    *k,
		Ext:     *ext,
	})
}

func runTable3(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("table3", flag.ContinueOnError)
	n := fs.Int("n", 2, "threads")
	k := fs.Int("k", 1, "variables")
	engineName := fs.String("engine", "onthefly", "liveness engine: onthefly or materialized")
	if err := fs.Parse(args); err != nil {
		return err
	}
	return runJob(ctx, job.Spec{
		Kind:    job.KindTable3,
		Engine:  *engineName,
		Threads: *n,
		Vars:    *k,
	})
}

func runSafety(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("safety", flag.ContinueOnError)
	tmName := fs.String("tm", "dstm", "TM algorithm")
	cmName := fs.String("cm", "", "contention manager (optional)")
	propName := fs.String("prop", "op", "property: ss or op")
	engineName := fs.String("engine", "onthefly", "safety engine: onthefly or materialized")
	n := fs.Int("n", 2, "threads")
	k := fs.Int("k", 2, "variables")
	if err := fs.Parse(args); err != nil {
		return err
	}
	return runJob(ctx, job.Spec{
		Kind:    job.KindSafety,
		TM:      *tmName,
		CM:      *cmName,
		Prop:    *propName,
		Engine:  *engineName,
		Threads: *n,
		Vars:    *k,
	})
}

func runLiveness(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("liveness", flag.ContinueOnError)
	tmName := fs.String("tm", "dstm", "TM algorithm")
	cmName := fs.String("cm", "aggressive", "contention manager (optional)")
	engineName := fs.String("engine", "onthefly", "liveness engine: onthefly or materialized")
	n := fs.Int("n", 2, "threads")
	k := fs.Int("k", 1, "variables")
	if err := fs.Parse(args); err != nil {
		return err
	}
	return runJob(ctx, job.Spec{
		Kind:    job.KindLiveness,
		TM:      *tmName,
		CM:      *cmName,
		Engine:  *engineName,
		Threads: *n,
		Vars:    *k,
	})
}

func runSpecs(args []string) error {
	fs := flag.NewFlagSet("specs", flag.ContinueOnError)
	n := fs.Int("n", 2, "threads")
	k := fs.Int("k", 2, "variables")
	if err := fs.Parse(args); err != nil {
		return err
	}
	fmt.Printf("TM specifications for %d threads and %d variables (§5.3)\n", *n, *k)
	for _, prop := range []spec.Property{spec.StrictSerializability, spec.Opacity} {
		nd := spec.NewNondet(prop, *n, *k).Enumerate()
		dt := spec.NewDet(prop, *n, *k).EnumerateWorkers(1)
		min := dt.Minimize()
		fmt.Printf("%-24s nondet %6d states, det %6d states, minimal %6d states\n",
			prop.String()+":", nd.NumStates(), dt.NumStates(), min.NumStates())
		start := time.Now()
		equal, fwd, cex := automata.EquivalentNFADFA(nd, dt)
		elapsed := time.Since(start)
		if equal {
			fmt.Printf("%-24s L(nondet) = L(det) verified by antichain in %v (Theorem 3)\n",
				"", elapsed.Round(time.Millisecond))
		} else {
			side := "nondet \\ det"
			if !fwd {
				side = "det \\ nondet"
			}
			ab := core.Alphabet{Threads: *n, Vars: *k}
			fmt.Printf("%-24s EQUIVALENCE FAILS (%s): %s\n", "", side, ab.DecodeWord(cex))
		}
	}
	return nil
}

func runFigures(args []string) error {
	fs := flag.NewFlagSet("figures", flag.ContinueOnError)
	if err := fs.Parse(args); err != nil {
		return err
	}
	cases := []struct {
		name string
		word string
	}{
		{"Figure 1(a)", "(w,1)2, (r,1)1, (r,2)3, c2, (w,2)1, (r,1)3, c1, c3"},
		{"Figure 1(b)", "(w,1)2, (r,2)2, (r,3)3, (r,1)1, c2, (w,2)3, (w,3)1, c1, c3"},
		{"Figure 2(a)", "(w,1)2, (r,1)1, (r,2)3, c2, (w,2)1, (r,1)3, c1"},
		{"Figure 2(b)", "(w,1)2, (r,1)1, c2, (r,2)3, a3, (w,2)1, c1"},
		{"Table 2 w1", "(w,2)1, (w,1)2, (r,2)2, (r,1)1, c2, c1"},
	}
	fmt.Println("Safety classification of the paper's example words")
	fmt.Printf("%-12s %-62s %-8s %s\n", "figure", "word", "strict", "opaque")
	for _, c := range cases {
		w := core.MustParseWord(c.word)
		fmt.Printf("%-12s %-62s %-8v %v\n", c.name, c.word,
			core.IsStrictlySerializable(w), core.IsOpaque(w))
	}
	return nil
}

func runWord(args []string) error {
	fs := flag.NewFlagSet("word", flag.ContinueOnError)
	in := fs.String("w", "", "word in the paper's notation, e.g. \"(r,1)1, c1\"")
	semName := fs.String("sem", "deferred", "conflict semantics: deferred, direct, or mixed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *in == "" {
		return fmt.Errorf("word: missing -w")
	}
	w, err := core.ParseWord(*in)
	if err != nil {
		return fmt.Errorf("word: %w", err)
	}
	var sem core.Semantics
	switch *semName {
	case "deferred":
		sem = core.DeferredUpdate
	case "direct":
		sem = core.DirectUpdate
	case "mixed":
		sem = core.MixedInvalidation
	default:
		return fmt.Errorf("word: unknown semantics %q (deferred, direct, mixed)", *semName)
	}
	fmt.Printf("word:                   %s\n", w)
	fmt.Printf("semantics:              %v\n", sem)
	fmt.Printf("threads:                %d, variables: %d\n", len(w.Threads()), len(w.Vars()))
	fmt.Printf("sequential:             %v\n", core.IsSequential(w))
	fmt.Printf("strictly serializable:  %v\n", core.IsStrictlySerializableUnder(w, sem))
	fmt.Printf("opaque:                 %v\n", core.IsOpaqueUnder(w, sem))
	if seq, ok := core.Sequentialize(w, true, sem); ok {
		fmt.Printf("witness serialization:  %s\n", seq)
	} else if g := core.BuildConflictGraphUnder(w, sem); !g.Acyclic() {
		cyc := g.Cycle()
		names := make([]string, len(cyc))
		for i, ti := range cyc {
			x := g.Txs[ti]
			names[i] = fmt.Sprintf("T%d.%d", x.Thread+1, x.Seq+1)
		}
		fmt.Printf("conflict cycle:         %s\n", strings.Join(names, " < "))
	}
	return nil
}

func runAll(ctx context.Context) error {
	if err := runTable1(ctx, nil); err != nil {
		return err
	}
	fmt.Println()
	if err := runTable2(ctx, nil); err != nil {
		return err
	}
	fmt.Println()
	if err := runTable3(ctx, nil); err != nil {
		return err
	}
	fmt.Println()
	if err := runSpecs(nil); err != nil {
		return err
	}
	fmt.Println()
	return runFigures(nil)
}

func runCount(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("count", flag.ContinueOnError)
	n := fs.Int("n", 2, "threads")
	k := fs.Int("k", 2, "variables")
	maxLen := fs.Int("len", 8, "maximum word length")
	if err := fs.Parse(args); err != nil {
		return err
	}
	ssCounts := automata.CountWords(spec.NewDet(spec.StrictSerializability, *n, *k).EnumerateWorkers(1), *maxLen)
	opCounts := automata.CountWords(spec.NewDet(spec.Opacity, *n, *k).EnumerateWorkers(1), *maxLen)

	type row struct {
		name   string
		counts []uint64
		exact  bool
	}
	rows := []row{
		{"πss (all strictly serializable words)", ssCounts, true},
		{"πop (all opaque words)", opCounts, true},
	}
	for _, name := range []string{"seq", "2pl", "dstm", "tl2"} {
		alg, err := tm.NewAlgorithm(name, *n, *k)
		if err != nil {
			return err
		}
		ts, err := buildBudgeted(ctx, alg, nil)
		if err != nil {
			return err
		}
		counts, ok := automata.CountWordsNFA(ts.NFA(), *maxLen, 500000)
		rows = append(rows, row{"L(" + name + ")", counts, ok})
	}
	fmt.Printf("Words per length over %d threads, %d variables (permissiveness)\n", *n, *k)
	fmt.Printf("%-40s", "language")
	for l := 0; l <= *maxLen; l++ {
		fmt.Printf(" %9d", l)
	}
	fmt.Println()
	for _, r := range rows {
		fmt.Printf("%-40s", r.name)
		if !r.exact {
			fmt.Println(" (subset construction exceeded bound)")
			continue
		}
		for l := 0; l <= *maxLen; l++ {
			fmt.Printf(" %9d", r.counts[l])
		}
		fmt.Println()
	}
	fmt.Println("\nEvery TM language stays below the corresponding safe-word count;")
	fmt.Println("the gap measures how much concurrency the TM forgoes for safety.")
	return nil
}

func runDot(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("dot", flag.ContinueOnError)
	tmName := fs.String("tm", "seq", "TM algorithm")
	cmName := fs.String("cm", "", "contention manager (optional)")
	n := fs.Int("n", 2, "threads")
	k := fs.Int("k", 1, "variables")
	if err := fs.Parse(args); err != nil {
		return err
	}
	alg, err := tm.NewAlgorithm(*tmName, *n, *k)
	if err != nil {
		return err
	}
	cm, err := tm.NewContentionManager(*cmName)
	if err != nil {
		return err
	}
	ts, err := buildBudgeted(ctx, alg, cm)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "%s: %d states, %d edges\n", ts.Name(), ts.NumStates(), ts.NumEdges())
	return ts.WriteDOT(os.Stdout)
}

func runTrace(args []string) error {
	fs := flag.NewFlagSet("trace", flag.ContinueOnError)
	stmName := fs.String("stm", "tl2", "executable STM: tl2, dstm, norec, 2pl, or glock")
	k := fs.Int("k", 3, "variables")
	threads := fs.Int("threads", 3, "goroutines")
	count := fs.Int("count", 20, "transfers per goroutine")
	seed := fs.Int64("seed", 1, "workload seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	rec := &runtime.Recorder{}
	var stm runtime.STM
	switch *stmName {
	case "tl2":
		stm = runtime.NewTL2STM(*k, rec)
	case "dstm":
		stm = runtime.NewDSTMSTM(*k, rec)
	case "norec":
		stm = runtime.NewNOrecSTM(*k, rec)
	case "2pl":
		stm = runtime.NewTwoPLSTM(*k, rec)
	case "glock":
		stm = runtime.NewGLockSTM(*k, rec)
	default:
		return fmt.Errorf("trace: unknown STM %q (tl2, dstm, norec, 2pl, glock)", *stmName)
	}
	const initial = 100
	sum := runtime.RunTransfers(stm, *k, *threads, *count, 10, *seed, initial)
	trace := rec.Word()
	fmt.Printf("system:    %s (%d goroutines, %d vars, %d transfers each)\n",
		stm.Name(), *threads, *k, *count)
	fmt.Printf("invariant: sum = %d, want %d\n", sum, *k*initial)
	fmt.Printf("trace:     %d statements\n", len(trace))
	fmt.Printf("oracle:    opaque = %v\n", core.IsOpaque(trace))
	mon := spec.NewMonitor(spec.Opacity, *threads, *k)
	if mon.Feed(trace) {
		fmt.Println("monitor:   opaque = true")
	} else {
		s, pos, _ := mon.Violation()
		fmt.Printf("monitor:   VIOLATION at statement %d: %v\n", pos+1, s)
	}
	return nil
}

func runMethodology(args []string) error {
	fs := flag.NewFlagSet("methodology", flag.ContinueOnError)
	tmName := fs.String("tm", "dstm", "TM algorithm")
	seed := fs.Int64("seed", 1, "sampler seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	name := *tmName
	factory := func(n, k int) tm.Algorithm {
		alg, err := tm.NewAlgorithm(name, n, k)
		if err != nil {
			panic(err)
		}
		return alg
	}
	if _, err := tm.NewAlgorithm(name, 2, 2); err != nil {
		return err
	}
	rep := safety.VerifyViaReduction(name, factory, *seed)
	fmt.Print(rep)
	return nil
}
