// Command tmcheckd is the verification service: a daemon that accepts
// tmcheck job specs over the wire protocol (internal/wire), runs them
// concurrently on a bounded worker pool, streams throttled progress
// frames, and supports cancel, client disconnect, and graceful drain.
//
// Usage:
//
//	tmcheckd [-addr 127.0.0.1:7078] [-jobs N] [-workers N]
//	         [-maxstates N] [-timeout D] [-maxmem BYTES]
//	         [-progress-every D] [-heartbeat D] [-drain-timeout D]
//	         [-debug-addr ADDR] [-snap-dir DIR] [-snap-sync MODE]
//	         [-strict-persist] [-quiet]
//
// Submit jobs with tmcheck -remote:
//
//	tmcheck -remote 127.0.0.1:7078 table2
//	tmcheck -remote 127.0.0.1:7078 -maxstates 50000 safety -tm tl2
//
// -jobs bounds how many jobs run at once (default GOMAXPROCS); further
// admissions queue for a slot. -workers/-maxstates/-timeout/-maxmem
// are defaults applied to specs that leave the corresponding budget
// unset, so an operator can cap what submissions may spend; explicit
// client flags win. -debug-addr serves the same /vitals, /events (SSE)
// and /debug/pprof surfaces as tmcheck's flag, but fleet-wide and for
// the daemon's lifetime.
//
// -snap-dir opts the daemon into checkpoint/resume: a submitted spec's
// -checkpoint/-resume file names are resolved into that directory
// (base name only — clients never choose server paths) and -spill maps
// to the directory itself. Without -snap-dir such jobs are refused, so
// a daemon never writes snapshot files unless its operator said where.
// A -snap-dir daemon also keeps a crash-recovery journal (jobs.journal)
// there: jobs in flight when the daemon dies — SIGKILL included — are
// reported as orphans on the next start, naming the snapshot that holds
// each one's persisted prefix, and a client resubmitting with -resume
// re-adopts its job (tmcheck -remote does this automatically on
// reconnect). -snap-sync relaxes the per-record checkpoint fsync to
// batched or close-only, and -strict-persist turns snapshot/spill I/O
// degradation into job failure.
//
// SIGINT/SIGTERM drains gracefully: the listener closes, running jobs
// finish (or are cancelled at their next guard barrier once
// -drain-timeout expires) and deliver their results, then the process
// exits 0. Cancelling a job (client cancel, disconnect, or drain
// timeout) stops it at the same deterministic barriers as -maxstates.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"tmcheck/internal/guard"
	"tmcheck/internal/jobd"
	"tmcheck/internal/obs"
	"tmcheck/internal/snap"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:7078", "listen address")
	jobs := flag.Int("jobs", 0, "concurrent job slots (0 = GOMAXPROCS)")
	workers := flag.Int("workers", 0, "default per-job workers (on-the-fly safety helpers, table row fan-out) for specs that leave it unset")
	maxStates := flag.Int("maxstates", 0, "default per-job state budget for specs that leave it unset")
	timeout := flag.Duration("timeout", 0, "default per-job wall-clock limit for specs that leave it unset")
	maxMemStr := flag.String("maxmem", "", "default per-job heap cap (e.g. 512m) for specs that leave it unset")
	progressEvery := flag.Duration("progress-every", 250*time.Millisecond, "minimum interval between progress frames per job")
	heartbeat := flag.Duration("heartbeat", 30*time.Second, "connection heartbeat interval (0 = off)")
	drainTimeout := flag.Duration("drain-timeout", 60*time.Second, "how long a SIGTERM drain waits before cancelling running jobs")
	debugAddr := flag.String("debug-addr", "", "serve /vitals, /events (SSE) and /debug/pprof on this address")
	snapDir := flag.String("snap-dir", "", "directory for job checkpoint/resume snapshots and spill files (\"\" refuses such jobs)")
	snapSync := flag.String("snap-sync", "", "checkpoint fsync policy for every job: always (default), batch[:N], none")
	strictPersist := flag.Bool("strict-persist", false, "fail jobs on snapshot/spill I/O errors instead of degrading")
	quiet := flag.Bool("quiet", false, "suppress per-connection logging")
	flag.Parse()

	syncMode, syncBatch, err := snap.ParseSyncMode(*snapSync)
	if err != nil {
		fmt.Fprintf(os.Stderr, "tmcheckd: -snap-sync: %v\n", err)
		os.Exit(2)
	}

	logger := log.New(os.Stderr, "", log.LstdFlags)
	logf := logger.Printf
	if *quiet {
		logf = func(string, ...any) {}
	}
	cfg := jobd.Config{
		Jobs:          *jobs,
		Workers:       *workers,
		MaxStates:     *maxStates,
		Timeout:       *timeout,
		ProgressEvery: *progressEvery,
		Heartbeat:     *heartbeat,
		SnapDir:       *snapDir,
		SnapSync:      syncMode,
		SnapBatch:     syncBatch,
		StrictPersist: *strictPersist,
		Logf:          logf,
	}
	if *maxMemStr != "" {
		mm, err := guard.ParseBytes(*maxMemStr)
		if err != nil {
			fmt.Fprintf(os.Stderr, "tmcheckd: -maxmem: %v\n", err)
			os.Exit(2)
		}
		cfg.MaxMem = mm
	}

	srv := jobd.New(cfg)
	bound, err := srv.Start(*addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tmcheckd:", err)
		os.Exit(1)
	}
	logger.Printf("tmcheckd: serving on %s", bound)
	if *debugAddr != "" {
		dbg, err := obs.StartDebugServer(*debugAddr, obs.Events(), obs.Default())
		if err != nil {
			fmt.Fprintln(os.Stderr, "tmcheckd:", err)
			srv.Close()
			os.Exit(1)
		}
		defer dbg.Close()
		logger.Printf("tmcheckd: debug server on http://%s (/vitals, /events, /debug/pprof)", dbg.Addr)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		logger.Printf("tmcheckd: drain cut short: %v", err)
	}
}
