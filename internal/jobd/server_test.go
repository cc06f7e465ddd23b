package jobd

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tmcheck/internal/guard"
	"tmcheck/internal/job"
	"tmcheck/internal/wire"
)

// startServer brings up a daemon on an ephemeral port and tears it
// down with the test.
func startServer(t *testing.T, cfg Config) (*Server, string) {
	t.Helper()
	if cfg.ProgressEvery == 0 {
		cfg.ProgressEvery = time.Millisecond
	}
	srv := New(cfg)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv, addr.String()
}

// dial connects a wire client and closes it with the test.
func dial(t *testing.T, addr string) *wire.Client {
	t.Helper()
	c, err := wire.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// TestConcurrentJobsWithProgress is the daemon's acceptance test: 8
// jobs running concurrently over one connection each receive streamed
// progress frames, and each stops with the typed cancelled limit when
// its client cancels. Every job is a (3,2) instance — far too large to
// finish here — that cancels itself once its first frame arrives, so
// the test cannot pass without per-job progress delivery and cannot
// run unbounded. (A quick (2,2) job can legitimately complete before
// its first frame reaches the client, so fast jobs prove nothing about
// streaming — see TestConcurrentVerdicts for plain completion.)
func TestConcurrentJobsWithProgress(t *testing.T) {
	_, addr := startServer(t, Config{Jobs: 8})
	c := dial(t, addr)

	const jobs = 8
	var wg sync.WaitGroup
	frames := make([]atomic.Int64, jobs)
	errs := make([]error, jobs)
	for i := 0; i < jobs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			var once sync.Once
			_, errs[i] = c.Run(ctx,
				job.Spec{Kind: job.KindSafety, TM: "dstm", Prop: "op", Threads: 3, Vars: 2},
				func(wire.Progress) {
					frames[i].Add(1)
					once.Do(cancel)
				})
		}(i)
	}
	wg.Wait()
	for i := 0; i < jobs; i++ {
		if !errors.Is(errs[i], guard.ErrCancelled) {
			t.Errorf("job %d: err = %v, want guard.ErrCancelled", i, errs[i])
		}
		if frames[i].Load() == 0 {
			t.Errorf("job %d: no progress frames", i)
		}
	}
}

// TestConcurrentVerdicts runs 8 jobs to completion over one connection
// and checks every verdict is the canonical one.
func TestConcurrentVerdicts(t *testing.T) {
	_, addr := startServer(t, Config{Jobs: 8})
	c := dial(t, addr)

	const jobs = 8
	var wg sync.WaitGroup
	errCh := make(chan error, jobs)
	for i := 0; i < jobs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if i%2 == 0 {
				res, err := c.Run(context.Background(),
					job.Spec{Kind: job.KindSafety, TM: "dstm", Prop: "op"}, nil)
				if err != nil {
					errCh <- fmt.Errorf("job %d: %w", i, err)
					return
				}
				if len(res.Checks) != 1 || !res.Checks[0].Holds || res.Checks[0].TMStates != 2864 {
					errCh <- fmt.Errorf("job %d: want holding dstm/op with 2864 states, got %+v", i, res.Checks)
				}
			} else {
				res, err := c.Run(context.Background(),
					job.Spec{Kind: job.KindLiveness, TM: "dstm", CM: "aggressive"}, nil)
				if err != nil {
					errCh <- fmt.Errorf("job %d: %w", i, err)
					return
				}
				if len(res.Checks) != 3 || !res.Checks[0].Holds || res.Checks[1].Holds {
					errCh <- fmt.Errorf("job %d: unexpected liveness checks %+v", i, res.Checks)
				}
			}
		}(i)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
}

// TestConcurrentConnections runs jobs from several independent
// connections at once.
func TestConcurrentConnections(t *testing.T) {
	_, addr := startServer(t, Config{Jobs: 4})
	const conns = 4
	var wg sync.WaitGroup
	errCh := make(chan error, conns)
	for i := 0; i < conns; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := wire.Dial(addr)
			if err != nil {
				errCh <- err
				return
			}
			defer c.Close()
			res, err := c.Run(context.Background(),
				job.Spec{Kind: job.KindLiveness, TM: "dstm", CM: "aggressive"}, nil)
			if err != nil {
				errCh <- err
				return
			}
			if len(res.Checks) != 3 || !res.Checks[0].Holds || res.Checks[1].Holds {
				errCh <- fmt.Errorf("unexpected liveness result: %+v", res.Checks)
			}
		}()
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
}

// TestCancelMidRun cancels a large running job after its first
// progress frame: the job stops at its next guard barrier and reports
// the typed cancelled limit.
func TestCancelMidRun(t *testing.T) {
	_, addr := startServer(t, Config{Jobs: 2})
	c := dial(t, addr)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var once sync.Once
	// The (3,2) instance is far too large to finish quickly; the first
	// progress frame proves the job is running, then we cancel.
	res, err := c.Run(ctx,
		job.Spec{Kind: job.KindSafety, TM: "dstm", Prop: "op", Threads: 3, Vars: 2},
		func(wire.Progress) { once.Do(cancel) })
	if !errors.Is(err, guard.ErrCancelled) {
		t.Fatalf("cancelled run: err = %v (res %+v), want guard.ErrCancelled", err, res)
	}
}

// TestCancelWhileQueued cancels a job still waiting for a pool slot:
// it resolves with the cancelled limit without ever running.
func TestCancelWhileQueued(t *testing.T) {
	_, addr := startServer(t, Config{Jobs: 1})
	c := dial(t, addr)

	blockCtx, unblock := context.WithCancel(context.Background())
	defer unblock()
	started := make(chan struct{})
	blockedDone := make(chan error, 1)
	go func() {
		var once sync.Once
		_, err := c.Run(blockCtx,
			job.Spec{Kind: job.KindSafety, TM: "dstm", Prop: "op", Threads: 3, Vars: 2},
			func(wire.Progress) { once.Do(func() { close(started) }) })
		blockedDone <- err
	}()
	<-started // the only slot is now busy

	queuedCtx, cancelQueued := context.WithCancel(context.Background())
	defer cancelQueued()
	queuedDone := make(chan error, 1)
	go func() {
		_, err := c.Run(queuedCtx, job.Spec{Kind: job.KindSafety, TM: "dstm"}, nil)
		queuedDone <- err
	}()
	// Let the submit reach the queue, then cancel it.
	time.Sleep(50 * time.Millisecond)
	cancelQueued()
	select {
	case err := <-queuedDone:
		if !errors.Is(err, guard.ErrCancelled) {
			t.Errorf("queued cancel: err = %v, want guard.ErrCancelled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("queued job did not resolve after cancel")
	}
	unblock()
	if err := <-blockedDone; !errors.Is(err, guard.ErrCancelled) {
		t.Errorf("blocking job: err = %v, want guard.ErrCancelled", err)
	}
}

// TestDisconnectCancelsJobs drops the client mid-run: the server must
// cancel the connection's jobs, and a follow-up Shutdown completes
// promptly because nothing is left running.
func TestDisconnectCancelsJobs(t *testing.T) {
	srv, addr := startServer(t, Config{Jobs: 2})
	c := dial(t, addr)

	started := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		var once sync.Once
		c.Run(context.Background(),
			job.Spec{Kind: job.KindSafety, TM: "dstm", Prop: "op", Threads: 3, Vars: 2},
			func(wire.Progress) { once.Do(func() { close(started) }) })
	}()
	<-started
	c.Close()
	<-done

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	start := time.Now()
	if err := srv.Shutdown(ctx); err != nil {
		t.Errorf("shutdown after disconnect: %v", err)
	}
	// The job stops at its next guard barrier — promptly, not after
	// exploring the full (3,2) space.
	if elapsed := time.Since(start); elapsed > 20*time.Second {
		t.Errorf("shutdown took %v; disconnect did not cancel the job", elapsed)
	}
}

// TestGracefulDrain lets a running job run to its natural end and
// deliver its result while the server drains. The job carries a state
// budget on a (3,2) instance, so it is guaranteed to still be running
// when Shutdown begins (its first progress frame gates the drain) and
// to end deterministically at the budget — the delivered "result" is
// the same typed limit a local -maxstates run produces.
func TestGracefulDrain(t *testing.T) {
	srv, addr := startServer(t, Config{Jobs: 2})
	c := dial(t, addr)

	started := make(chan struct{})
	errCh := make(chan error, 1)
	go func() {
		var once sync.Once
		_, err := c.Run(context.Background(),
			job.Spec{Kind: job.KindSafety, TM: "dstm", Prop: "op", Threads: 3, Vars: 2, MaxStates: 60000},
			func(wire.Progress) { once.Do(func() { close(started) }) })
		errCh <- err
	}()
	<-started

	shutdownDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
		defer cancel()
		shutdownDone <- srv.Shutdown(ctx)
	}()

	// The drain must deliver the job's outcome, not sever it: the
	// budget limit arrives intact, cancellation never fired.
	if err := <-errCh; !errors.Is(err, guard.ErrStates) || errors.Is(err, guard.ErrCancelled) {
		t.Fatalf("drained job: err = %v, want the states limit", err)
	}
	if err := <-shutdownDone; err != nil {
		t.Errorf("graceful shutdown: %v", err)
	}
}

// TestDrainRejectsSubmits: once draining, new submissions are refused
// with a protocol error, and new connections are dropped.
func TestDrainRejectsSubmits(t *testing.T) {
	srv, addr := startServer(t, Config{Jobs: 2})
	c := dial(t, addr)
	// Prime the connection so it exists before the drain starts.
	if _, err := c.Run(context.Background(), job.Spec{Kind: job.KindLiveness, TM: "dstm", CM: "aggressive"}, nil); err != nil {
		t.Fatal(err)
	}

	go srv.Shutdown(context.Background())
	// The drain flag flips before the listener closes; poll until the
	// running connection sees it.
	deadline := time.Now().Add(10 * time.Second)
	for {
		_, err := c.Run(context.Background(), job.Spec{Kind: job.KindSafety, TM: "dstm"}, nil)
		if err != nil && strings.Contains(err.Error(), "draining") {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("draining server still accepting jobs (last err: %v)", err)
		}
		if err != nil {
			// Connection already torn down — equally a refusal.
			break
		}
	}
}

// TestInvalidSpecRefused: a bad spec comes back as a protocol error
// carrying the same message local validation produces.
func TestInvalidSpecRefused(t *testing.T) {
	_, addr := startServer(t, Config{Jobs: 1})
	c := dial(t, addr)
	_, err := c.Run(context.Background(), job.Spec{Kind: job.KindSafety, TM: "nope"}, nil)
	if err == nil || !strings.Contains(err.Error(), "nope") {
		t.Errorf("invalid spec: err = %v, want unknown-algorithm error", err)
	}
	// The connection survives the refusal.
	res, err := c.Run(context.Background(), job.Spec{Kind: job.KindSafety, TM: "dstm"}, nil)
	if err != nil || len(res.Checks) != 1 {
		t.Errorf("connection unusable after refusal: %v %+v", err, res)
	}
}

// TestServerDefaultsApplied: the operator's MaxStates default caps
// specs that leave the budget unset, producing the same typed limit a
// local -maxstates run hits.
func TestServerDefaultsApplied(t *testing.T) {
	_, addr := startServer(t, Config{Jobs: 1, MaxStates: 100})
	c := dial(t, addr)
	_, err := c.Run(context.Background(), job.Spec{Kind: job.KindSafety, TM: "dstm"}, nil)
	if !errors.Is(err, guard.ErrStates) {
		t.Errorf("server default budget: err = %v, want guard.ErrStates", err)
	}
	if err == nil || !strings.Contains(err.Error(), "-maxstates") {
		t.Errorf("budget error %q does not name -maxstates", err)
	}
	// An explicit spec budget wins over the default.
	res, err := c.Run(context.Background(), job.Spec{Kind: job.KindSafety, TM: "dstm", MaxStates: 1 << 30}, nil)
	if err != nil || !res.Checks[0].Holds {
		t.Errorf("explicit budget should complete: %v %+v", err, res)
	}
}

// TestHeartbeats: with a fast heartbeat interval the client auto-acks
// and a job still completes over the chatty connection.
func TestHeartbeats(t *testing.T) {
	_, addr := startServer(t, Config{Jobs: 1, Heartbeat: 5 * time.Millisecond})
	c := dial(t, addr)
	res, err := c.Run(context.Background(), job.Spec{Kind: job.KindLiveness, TM: "dstm", CM: "aggressive"}, nil)
	if err != nil || len(res.Checks) != 3 {
		t.Fatalf("run under heartbeats: %v %+v", err, res)
	}
}

// TestSnapDirRefusedWithoutConfig: a daemon with no -snap-dir refuses
// checkpoint/resume/spill jobs instead of writing wherever the client
// says.
func TestSnapDirRefusedWithoutConfig(t *testing.T) {
	_, addr := startServer(t, Config{Jobs: 1})
	c := dial(t, addr)
	sp := job.Spec{Kind: job.KindSafety, TM: "tl2", Engine: "materialized", Checkpoint: "/etc/evil.snap"}
	_, err := c.Run(context.Background(), sp, nil)
	if err == nil || !strings.Contains(err.Error(), "no -snap-dir") {
		t.Errorf("checkpoint without -snap-dir: err = %v, want refusal", err)
	}
}

// TestSnapDirConfinesPaths: client-named snapshot paths are resolved
// into the operator's snapshot directory (base name only), and a
// checkpoint written through the daemon resumes through the daemon.
func TestSnapDirConfinesPaths(t *testing.T) {
	dir := t.TempDir()
	_, addr := startServer(t, Config{Jobs: 1, SnapDir: dir})
	c := dial(t, addr)

	sp := job.Spec{Kind: job.KindSafety, TM: "tl2", Engine: "materialized",
		Checkpoint: "/tmp/elsewhere/run.snap"}
	res, err := c.Run(context.Background(), sp, nil)
	if err != nil || !res.Checks[0].Holds {
		t.Fatalf("checkpointed job: %v %+v", err, res)
	}
	if _, err := os.Stat(filepath.Join(dir, "run.snap")); err != nil {
		t.Fatalf("snapshot not confined to the snap dir: %v", err)
	}

	rsp := job.Spec{Kind: job.KindSafety, TM: "tl2", Engine: "materialized",
		Resume: "../../run.snap"}
	rres, err := c.Run(context.Background(), rsp, nil)
	if err != nil || !rres.Checks[0].Holds {
		t.Fatalf("resumed job: %v %+v", err, rres)
	}
	if rres.Resumed() == 0 {
		t.Error("resume through the daemon seeded nothing")
	}
	if rres.Checks[0].TMStates != res.Checks[0].TMStates {
		t.Errorf("resumed TMStates = %d, want %d", rres.Checks[0].TMStates, res.Checks[0].TMStates)
	}
}

// TestSnapDirCreated: a daemon started on a snapshot directory that
// does not exist yet creates it, so its crash-recovery journal and its
// jobs' snapshots land there instead of failing to open.
func TestSnapDirCreated(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "missing")
	srv, addr := startServer(t, Config{Jobs: 1, SnapDir: dir})
	c := dial(t, addr)
	sp := job.Spec{Kind: job.KindSafety, TM: "seq", Prop: "op", Threads: 2, Vars: 1,
		Engine: "materialized", Checkpoint: "c.snap"}
	if res, err := c.Run(context.Background(), sp, nil); err != nil || !res.Checks[0].Holds {
		t.Fatalf("checkpoint job: %v %+v", err, res)
	}
	srv.Close()
	for _, name := range []string{journalName, "c.snap"} {
		if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
			t.Errorf("%s not in the created snap dir: %v", name, err)
		}
	}
}
