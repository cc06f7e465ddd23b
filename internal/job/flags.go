package job

// Global flags shared by the tmcheck and tmfuzz binaries, accepted by
// every tmcheck subcommand and position-independent (before or after
// the subcommand):
//
//	-workers N        worker count (default GOMAXPROCS) for the on-the-fly
//	                  safety search's TM expansion ahead of its product
//	                  loop and for table2/table3 row fan-out; every state
//	                  space runs one sequential loop, and no output but
//	                  timings depends on the count
//	-maxstates N      state budget: abort any check that would construct
//	                  more than N states (TM + spec + product) with a
//	                  budget error instead of exhausting memory
//	-timeout D        wall-clock limit for the whole command (e.g. 30s,
//	                  5m); expiry cancels in-flight checks at the same
//	                  points where the state budget is polled
//	-maxmem BYTES     heap cap (e.g. 512m, 2g): checks stop with a
//	                  memory-limit error when the sampled Go heap
//	                  exceeds it
//	-strict-limits    exit nonzero when any keep-going table row hits a
//	                  resource limit (default: report LIMIT rows, exit 0)
//	-stats            print the instrumentation report to stderr
//	-stats-json FILE  write the machine-readable report to FILE ("-" = stdout)
//	-cpuprofile FILE  write a pprof CPU profile of the whole command
//	-memprofile FILE  write a pprof heap profile taken after the command
//	-progress         stream live status (level, states, states/sec, heap)
//	                  to stderr while checks run
//	-trace FILE       write a Chrome trace-event JSON timeline of the run
//	                  (load in Perfetto or chrome://tracing)
//	-debug-addr ADDR  serve /vitals, /events (SSE) and /debug/pprof on
//	                  ADDR (e.g. localhost:7077) for the duration of the
//	                  command
//	-remote ADDR      submit the job to a running tmcheckd at ADDR
//	                  instead of checking in-process (tmcheck only)
//	-checkpoint FILE  append the interned state-space prefix to FILE at
//	                  every guard barrier, so a killed, timed-out or
//	                  budget-limited run can be resumed (requires
//	                  -engine materialized)
//	-resume FILE      seed the run from the snapshot in FILE; usually
//	                  the same path as -checkpoint. The resumed run's
//	                  stdout is byte-identical to an uninterrupted one
//	-spill DIR        keep the visited set's key storage in mmap-backed
//	                  files under DIR instead of the heap, so state
//	                  spaces larger than RAM stay checkable
//	-snap-sync MODE   checkpoint fsync policy: always (per record, the
//	                  default), batch[:N] (every N records, default 8),
//	                  none (only at close); looser modes widen the
//	                  crash window but never change a verdict
//	-strict-persist   fail the run on snapshot/spill I/O errors instead
//	                  of degrading to an unpersisted run with a
//	                  DEGRADED warning
//	-retries N        with -remote, total connection attempts before
//	                  giving up (default 5); reconnects resume the job
//	                  from its server-side snapshot when -checkpoint
//	                  was given
//	-heartbeat-timeout D  with -remote, declare the server dead after D
//	                  without any traffic while a job is in flight
//	                  (default 30s; 0 disables)
//	-chaos-seed N     deterministic fault injection: derive a fault
//	                  plan from seed N and inject it at the snapshot,
//	                  spill, wire and engine seams (testing only;
//	                  0 = disabled)
//
// The JSON report (schema "tmcheck/stats/v1") is deterministic in its
// counter and gauge values for a deterministic command, so reports from
// two commits on the same inputs are directly comparable. The telemetry
// flags enable the event bus (internal/obs/events.go); with all three
// off the bus stays disabled, the engines' fast paths are untouched,
// and the report bytes are identical to a run without telemetry.
// When a check stops at a resource limit or isolated panic, the last
// bus events are attached to the report as a flight recorder
// ("flight" in the JSON, a "flight recorder" section under -stats).

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"syscall"
	"time"

	"tmcheck/internal/chaos"
	"tmcheck/internal/guard"
	"tmcheck/internal/obs"
	"tmcheck/internal/snap"
)

// Flags holds the global flags every front-end shares: resource
// budgets, the telemetry surfaces, profiling, and the remote-submit
// address. Fill it with Extract (position-independent parsing, the
// tmcheck style) or Register (a flag.FlagSet, the tmfuzz style), then
// drive the lifecycle: InstallChaos, Begin before the command, Finish
// after. The resource budgets are plain values: the front-end copies
// them into each job.Spec or guard it runs, so nothing here changes
// what another run in the same process sees.
type Flags struct {
	Workers          int
	MaxStates        int
	Timeout          time.Duration
	MaxMem           uint64
	StrictLimits     bool
	Stats            bool
	StatsJSON        string
	CPUProfile       string
	MemProfile       string
	Progress         bool
	TraceFile        string
	DebugAddr        string
	Remote           string
	Checkpoint       string
	Resume           string
	Spill            string
	SnapSync         string
	StrictPersist    bool
	Retries          int
	HeartbeatTimeout time.Duration
	ChaosSeed        uint64

	// Prog names the binary in stderr messages; "" means "tmcheck".
	Prog string

	cpuFile    *os.File
	progressUI *obs.Progress
	traceW     *obs.TraceWriter
	traceF     *os.File
	debugSrv   *obs.DebugServer
}

// Extract splits the global flags out of args, wherever they appear,
// and returns the remaining arguments unchanged and in order for the
// subcommand's own flag set.
func Extract(args []string) (Flags, []string, error) {
	g := Flags{Retries: 5, HeartbeatTimeout: 30 * time.Second}
	rest := make([]string, 0, len(args))
	for i := 0; i < len(args); i++ {
		arg := args[i]
		if !strings.HasPrefix(arg, "-") {
			rest = append(rest, arg)
			continue
		}
		name, inline, hasInline := strings.Cut(strings.TrimLeft(arg, "-"), "=")
		value := func() (string, error) {
			if hasInline {
				return inline, nil
			}
			if i+1 >= len(args) {
				return "", fmt.Errorf("flag -%s needs a value", name)
			}
			i++
			return args[i], nil
		}
		var err error
		switch name {
		case "workers":
			var v string
			if v, err = value(); err == nil {
				g.Workers, err = strconv.Atoi(v)
				if err != nil || g.Workers < 1 {
					err = fmt.Errorf("flag -workers needs a positive integer, got %q", v)
				}
			}
		case "maxstates":
			var v string
			if v, err = value(); err == nil {
				g.MaxStates, err = strconv.Atoi(v)
				if err != nil || g.MaxStates < 1 {
					err = fmt.Errorf("flag -maxstates needs a positive integer, got %q", v)
				}
			}
		case "timeout":
			var v string
			if v, err = value(); err == nil {
				g.Timeout, err = time.ParseDuration(v)
				if err != nil || g.Timeout <= 0 {
					err = fmt.Errorf("flag -timeout needs a positive duration (e.g. 30s), got %q", v)
				}
			}
		case "maxmem":
			var v string
			if v, err = value(); err == nil {
				g.MaxMem, err = guard.ParseBytes(v)
				if err != nil {
					err = fmt.Errorf("flag -maxmem: %v", err)
				}
			}
		case "strict-limits":
			g.StrictLimits = true
		case "stats":
			g.Stats = true
		case "stats-json":
			g.StatsJSON, err = value()
		case "cpuprofile":
			g.CPUProfile, err = value()
		case "memprofile":
			g.MemProfile, err = value()
		case "progress":
			g.Progress = true
		case "trace":
			g.TraceFile, err = value()
		case "debug-addr":
			g.DebugAddr, err = value()
		case "remote":
			g.Remote, err = value()
		case "checkpoint":
			g.Checkpoint, err = value()
		case "resume":
			g.Resume, err = value()
		case "spill":
			g.Spill, err = value()
		case "snap-sync":
			var v string
			if v, err = value(); err == nil {
				if _, _, err = snap.ParseSyncMode(v); err == nil {
					g.SnapSync = v
				}
			}
		case "strict-persist":
			g.StrictPersist = true
		case "retries":
			var v string
			if v, err = value(); err == nil {
				g.Retries, err = strconv.Atoi(v)
				if err != nil || g.Retries < 1 {
					err = fmt.Errorf("flag -retries needs a positive integer, got %q", v)
				}
			}
		case "heartbeat-timeout":
			var v string
			if v, err = value(); err == nil {
				g.HeartbeatTimeout, err = time.ParseDuration(v)
				if err != nil || g.HeartbeatTimeout < 0 {
					err = fmt.Errorf("flag -heartbeat-timeout needs a non-negative duration (e.g. 30s, 0 to disable), got %q", v)
				}
			}
		case "chaos-seed":
			var v string
			if v, err = value(); err == nil {
				g.ChaosSeed, err = strconv.ParseUint(v, 0, 64)
				if err != nil {
					err = fmt.Errorf("flag -chaos-seed needs an unsigned integer, got %q", v)
				}
			}
		default:
			rest = append(rest, arg)
		}
		if err != nil {
			return g, nil, err
		}
	}
	return g, rest, nil
}

// Register declares the shared budget and telemetry flags on fs — the
// front door for binaries that parse a single flat flag set (tmfuzz).
// The remote and strict-limits flags stay tmcheck-specific.
func (g *Flags) Register(fs *flag.FlagSet) {
	fs.IntVar(&g.MaxStates, "maxstates", 0, "state budget: stop after this many states in total (0 = unbounded)")
	fs.DurationVar(&g.Timeout, "timeout", 0, "stop after this long (0 = no deadline)")
	fs.Var(bytesFlag{&g.MaxMem}, "maxmem", "heap cap, e.g. 512m or 2g (0 = uncapped)")
	fs.BoolVar(&g.Progress, "progress", false, "stream a live status line to stderr")
	fs.BoolVar(&g.Stats, "stats", false, "print the instrumentation report to stderr")
	fs.StringVar(&g.StatsJSON, "stats-json", "", "write the machine-readable report to `file` (\"-\" = stdout)")
	fs.StringVar(&g.CPUProfile, "cpuprofile", "", "write a pprof CPU profile to `file`")
	fs.StringVar(&g.MemProfile, "memprofile", "", "write a pprof heap profile to `file`")
	fs.StringVar(&g.TraceFile, "trace", "", "write a Chrome trace-event timeline to `file`")
	fs.StringVar(&g.DebugAddr, "debug-addr", "", "serve /vitals, /events and /debug/pprof on `addr`")
	fs.Uint64Var(&g.ChaosSeed, "chaos-seed", 0, "deterministic fault-injection `seed` (testing only; 0 = disabled)")
}

// bytesFlag adapts guard.ParseBytes to the flag.Value interface.
type bytesFlag struct{ v *uint64 }

func (b bytesFlag) String() string {
	if b.v == nil || *b.v == 0 {
		return "0"
	}
	return strconv.FormatUint(*b.v, 10)
}

func (b bytesFlag) Set(s string) error {
	n, err := guard.ParseBytes(s)
	if err != nil {
		return err
	}
	*b.v = n
	return nil
}

// InstallChaos installs the deterministic fault plan when -chaos-seed
// was given, announcing the armed sites on stderr so a failing run is
// attributable.
func (g *Flags) InstallChaos() {
	if g.ChaosSeed == 0 {
		return
	}
	p := chaos.NewPlan(g.ChaosSeed)
	chaos.Install(p)
	fmt.Fprintf(os.Stderr, "%s: %s\n", g.prog(), p)
}

// JobConfig resolves the per-run persistence policy the -snap-sync and
// -strict-persist flags selected into a job Config.
func (g *Flags) JobConfig() (Config, error) {
	mode, batch, err := snap.ParseSyncMode(g.SnapSync)
	if err != nil {
		return Config{}, err
	}
	return Config{SnapSync: mode, SnapBatch: batch, StrictPersist: g.StrictPersist}, nil
}

// prog names the binary for stderr messages.
func (g *Flags) prog() string {
	if g.Prog == "" {
		return "tmcheck"
	}
	return g.Prog
}

// SignalContext derives the command context: cancelled on SIGINT or
// SIGTERM, and bounded by -timeout when one was given. The returned
// stop releases both.
func (g *Flags) SignalContext(parent context.Context) (context.Context, context.CancelFunc) {
	ctx, stop := signal.NotifyContext(parent, os.Interrupt, syscall.SIGTERM)
	if g.Timeout <= 0 {
		return ctx, stop
	}
	ctx, cancel := context.WithTimeout(ctx, g.Timeout)
	return ctx, func() {
		cancel()
		stop()
	}
}

// Begin switches on the telemetry surfaces that were asked for and
// starts CPU profiling when requested. Call Finish afterwards.
func (g *Flags) Begin(command string) error {
	if g.Progress || g.TraceFile != "" || g.DebugAddr != "" {
		bus := obs.Events()
		bus.SetEnabled(true)
		if g.TraceFile != "" {
			f, err := os.Create(g.TraceFile)
			if err != nil {
				return err
			}
			g.traceF = f
			g.traceW = obs.StartTrace(f, bus)
		}
		if g.Progress {
			g.progressUI = obs.StartProgress(os.Stderr, bus)
		}
		if g.DebugAddr != "" {
			srv, err := obs.StartDebugServer(g.DebugAddr, bus, obs.Default())
			if err != nil {
				return err
			}
			g.debugSrv = srv
			fmt.Fprintf(os.Stderr, "%s: debug server on http://%s (/vitals, /events, /debug/pprof)\n", g.prog(), srv.Addr)
		}
		// Emitted after the trace writer subscribed, so the run span is
		// the first event on every surface.
		obs.Emit(obs.Event{Kind: obs.EvRunStart, Name: command})
	}
	if g.CPUProfile == "" {
		return nil
	}
	f, err := os.Create(g.CPUProfile)
	if err != nil {
		return err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return err
	}
	g.cpuFile = f
	return nil
}

// Finish tears the telemetry surfaces down, stops profiling, and emits
// the requested reports for the command that just ran.
func (g *Flags) Finish(command string) error {
	if obs.EventsEnabled() {
		obs.Emit(obs.Event{Kind: obs.EvRunDone, Name: command})
	}
	if g.progressUI != nil {
		g.progressUI.Stop()
	}
	if g.traceW != nil {
		err := g.traceW.Close()
		if cerr := g.traceF.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return fmt.Errorf("trace: %w", err)
		}
	}
	if g.debugSrv != nil {
		g.debugSrv.Close()
	}
	if g.cpuFile != nil {
		pprof.StopCPUProfile()
		if err := g.cpuFile.Close(); err != nil {
			return err
		}
	}
	if g.MemProfile != "" {
		f, err := os.Create(g.MemProfile)
		if err != nil {
			return err
		}
		runtime.GC()
		err = pprof.WriteHeapProfile(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
	}
	if g.StatsJSON != "" {
		if err := WriteStatsJSON(g.StatsJSON, command); err != nil {
			return err
		}
	}
	if g.Stats {
		fmt.Fprint(os.Stderr, obs.Default().Text())
		if evs, dropped, limited := obs.Events().Flight(flightDepth); limited {
			fmt.Fprintf(os.Stderr, "flight recorder (last %d event(s), %d dropped):\n%s",
				len(evs), dropped, obs.FormatEvents(evs))
		}
	}
	return nil
}

// flightDepth is how many recent bus events a limited run's report
// carries.
const flightDepth = 64

// StatsReport snapshots the registry and attaches the flight-recorder
// dump when a limit or panic was captured on the bus. With telemetry
// off — or a limit-free run — the report is exactly the registry
// snapshot.
func StatsReport(command string) obs.Report {
	rep := obs.Default().Snapshot(command)
	rep.AttachFlight(obs.Events(), flightDepth)
	return rep
}

// WriteStatsJSON writes the stats report for command to path ("-" =
// stdout), pretty-printed.
func WriteStatsJSON(path, command string) error {
	rep := StatsReport(command)
	if path == "-" {
		return encodeReport(os.Stdout, rep)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = encodeReport(f, rep)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

func encodeReport(w io.Writer, rep obs.Report) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}
