// Package jobd is the tmcheckd daemon core: a TCP server that accepts
// wire-framed connections, runs submitted job Specs concurrently on a
// bounded pool, streams throttled progress frames off the telemetry
// bus, and supports per-request cancel, client disconnect, and
// graceful drain. It lives under internal/ so the daemon tests can
// drive a real server in-process; cmd/tmcheckd is a thin flag shell
// over it.
package jobd

import (
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"tmcheck/internal/guard"
	"tmcheck/internal/job"
	"tmcheck/internal/obs"
	"tmcheck/internal/snap"
	"tmcheck/internal/wire"
)

// Config shapes one Server.
type Config struct {
	// Jobs is the worker-pool size — how many jobs run concurrently;
	// <= 0 takes GOMAXPROCS. Admitted jobs beyond it queue for a slot.
	Jobs int
	// Workers, MaxStates, Timeout and MaxMem are defaults applied to a
	// Spec whose corresponding field is unset, so an operator can cap
	// what anonymous submissions may spend. Explicit Spec fields win.
	Workers   int
	MaxStates int
	Timeout   time.Duration
	MaxMem    uint64
	// ProgressEvery throttles the progress stream: at most one frame
	// per running request per interval; <= 0 takes 250ms.
	ProgressEvery time.Duration
	// Heartbeat is the interval of server→client liveness probes; <= 0
	// disables them.
	Heartbeat time.Duration
	// SnapDir is the directory snapshot files live in. A Spec naming a
	// checkpoint, resume or spill path is rewritten to this directory
	// (base name only — clients don't choose server paths); "" refuses
	// such Specs, so an operator must opt the daemon into disk writes.
	// With a SnapDir the daemon also keeps a crash-recovery journal
	// (jobs.journal) of in-flight jobs there. Start creates the
	// directory when it is missing.
	SnapDir string
	// SnapSync and SnapBatch set the checkpoint fsync policy
	// (-snap-sync) for every job this daemon runs; zero values keep
	// the durable per-record default.
	SnapSync  snap.SyncMode
	SnapBatch int
	// StrictPersist makes snapshot/spill I/O errors fail jobs
	// (-strict-persist) instead of degrading to unpersisted runs.
	StrictPersist bool
	// Logf receives one line per lifecycle event (accept, submit,
	// done, drain); nil discards.
	Logf func(format string, args ...any)
}

// Server is a running daemon. Create with New, start with Start, stop
// with Shutdown (graceful) or Close (hard).
type Server struct {
	cfg        Config
	ln         net.Listener
	baseCtx    context.Context
	baseCancel context.CancelFunc
	sem        chan struct{}
	jobWG      sync.WaitGroup
	connWG     sync.WaitGroup
	stopBus    func()
	journal    *journal
	finishOnce sync.Once

	mu       sync.Mutex
	draining bool
	closed   bool
	conns    map[*connState]struct{}
}

// connState is one client connection.
type connState struct {
	srv    *Server
	nc     net.Conn
	wc     *wire.Conn
	ctx    context.Context
	cancel context.CancelFunc

	mu   sync.Mutex
	reqs map[uint64]*reqState
}

// reqState is one submitted job on a connection.
type reqState struct {
	cancel  context.CancelFunc
	running bool
	// lastProgressNS throttles the progress stream; only the bus
	// forwarding goroutine touches it.
	lastProgressNS int64
}

// New builds a stopped server.
func New(cfg Config) *Server {
	if cfg.Jobs <= 0 {
		cfg.Jobs = runtime.GOMAXPROCS(0)
	}
	if cfg.ProgressEvery <= 0 {
		cfg.ProgressEvery = 250 * time.Millisecond
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	ctx, cancel := context.WithCancel(context.Background())
	return &Server{
		cfg:        cfg,
		baseCtx:    ctx,
		baseCancel: cancel,
		sem:        make(chan struct{}, cfg.Jobs),
		conns:      make(map[*connState]struct{}),
	}
}

// Start listens on addr (e.g. "127.0.0.1:7078", ":0" for an ephemeral
// port) and begins accepting connections in the background. It returns
// the bound address. A configured SnapDir is created first, if missing;
// when that fails, Start returns the error without listening.
func (s *Server) Start(addr string) (net.Addr, error) {
	if s.cfg.SnapDir != "" {
		if err := os.MkdirAll(s.cfg.SnapDir, 0o755); err != nil {
			return nil, err
		}
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s.ln = ln
	// With a snapshot directory, replay the crash-recovery journal:
	// jobs the previous daemon life never resolved are reported as
	// orphans, so their persisted snapshot prefixes are findable. A
	// journal failure degrades (the daemon runs unjournaled) — the
	// ledger is advisory, not load-bearing.
	if s.cfg.SnapDir != "" {
		j, orphans, err := openJournal(s.cfg.SnapDir)
		if err != nil {
			s.cfg.Logf("tmcheckd: journal disabled: %v", err)
		} else {
			s.journal = j
			for _, e := range orphans {
				if e.Checkpoint != "" {
					s.cfg.Logf("tmcheckd: journal: job %s (%s, started %s) was in flight when the previous daemon stopped; its snapshot %s holds the persisted prefix — resubmit with -resume %s to adopt it",
						e.ID, e.Kind, e.Started, e.Checkpoint, e.Checkpoint)
				} else {
					s.cfg.Logf("tmcheckd: journal: job %s (%s, started %s) was in flight when the previous daemon stopped and left no snapshot; it must be rerun from scratch",
						e.ID, e.Kind, e.Started)
				}
			}
		}
	}
	// One bus subscription fans progress out to every connection; jobs
	// run with NoPhases, but their engines still emit bus events.
	s.stopBus = job.Events(256, s.forward)
	s.connWG.Add(1)
	go s.acceptLoop()
	s.cfg.Logf("tmcheckd: listening on %s (%d job slot(s))", ln.Addr(), s.cfg.Jobs)
	return ln.Addr(), nil
}

func (s *Server) acceptLoop() {
	defer s.connWG.Done()
	for {
		nc, err := s.ln.Accept()
		if err != nil {
			return // listener closed: drain or hard stop
		}
		s.mu.Lock()
		if s.draining || s.closed {
			s.mu.Unlock()
			nc.Close()
			continue
		}
		ctx, cancel := context.WithCancel(s.baseCtx)
		cs := &connState{
			srv: s, nc: nc, wc: wire.NewConn(nc),
			ctx: ctx, cancel: cancel,
			reqs: make(map[uint64]*reqState),
		}
		s.conns[cs] = struct{}{}
		s.mu.Unlock()
		s.connWG.Add(1)
		go cs.serve()
	}
}

// Shutdown drains gracefully: stop accepting connections and submits,
// let running jobs finish and deliver their results, then close the
// connections. If ctx expires first, running jobs are cancelled (they
// stop at their next guard barrier and still report results) and the
// drain completes.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.draining = true
	s.mu.Unlock()
	s.cfg.Logf("tmcheckd: draining")
	if s.ln != nil {
		s.ln.Close()
	}
	done := make(chan struct{})
	go func() {
		s.jobWG.Wait()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		// Cancel running jobs at their next deterministic barrier and
		// wait for them to report.
		s.baseCancel()
		<-done
		err = ctx.Err()
	}
	s.finish()
	return err
}

// Close stops hard: cancel everything, drop connections, wait.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.draining = true
	s.mu.Unlock()
	if s.ln != nil {
		s.ln.Close()
	}
	s.baseCancel()
	s.finish()
	return nil
}

// finish closes remaining connections and waits for every goroutine.
// Shutdown and Close can both reach it at once (a drain still waiting
// when a hard Close arrives); the Once tears down exactly once and
// makes the later caller wait until that is done.
func (s *Server) finish() {
	s.finishOnce.Do(func() {
		s.mu.Lock()
		s.closed = true
		conns := make([]*connState, 0, len(s.conns))
		for cs := range s.conns {
			conns = append(conns, cs)
		}
		s.mu.Unlock()
		for _, cs := range conns {
			cs.nc.Close()
		}
		s.connWG.Wait()
		s.jobWG.Wait()
		if s.stopBus != nil {
			s.stopBus()
			s.stopBus = nil
		}
		s.journal.close()
		s.cfg.Logf("tmcheckd: stopped")
	})
}

// forward relays one bus event as throttled progress frames to every
// running request. The bus is process-global, so with concurrent jobs
// the stream is a fleet-level feed — Name identifies the check each
// frame came from.
func (s *Server) forward(e obs.Event) {
	switch e.Kind {
	case obs.EvProgress, obs.EvLevelDone:
	default:
		return
	}
	now := time.Now().UnixNano()
	every := int64(s.cfg.ProgressEvery)
	s.mu.Lock()
	conns := make([]*connState, 0, len(s.conns))
	for cs := range s.conns {
		conns = append(conns, cs)
	}
	s.mu.Unlock()
	for _, cs := range conns {
		cs.mu.Lock()
		ids := make([]uint64, 0, len(cs.reqs))
		for id, rq := range cs.reqs {
			if !rq.running || now-rq.lastProgressNS < every {
				continue
			}
			rq.lastProgressNS = now
			ids = append(ids, id)
		}
		cs.mu.Unlock()
		for _, id := range ids {
			// A write error means the connection is dying; its read
			// loop is about to clean up.
			_ = cs.wc.Write(id, wire.Progress{
				Name: e.Name, States: e.States, Frontier: e.Frontier,
				Level: e.Level, HeapBytes: e.HeapBytes, Detail: e.Detail,
			})
		}
	}
}

// serve is one connection's read loop. Closing the connection — client
// disconnect, drain, Close — cancels its context, which cancels every
// job it submitted at the jobs' next guard barriers.
func (cs *connState) serve() {
	s := cs.srv
	defer s.connWG.Done()
	defer func() {
		cs.cancel()
		cs.nc.Close()
		s.mu.Lock()
		delete(s.conns, cs)
		s.mu.Unlock()
	}()
	s.cfg.Logf("tmcheckd: %s connected", cs.nc.RemoteAddr())
	stopHB := cs.startHeartbeats()
	defer stopHB()
	for {
		reqID, m, err := cs.wc.Read()
		if err != nil {
			s.cfg.Logf("tmcheckd: %s gone: %v", cs.nc.RemoteAddr(), err)
			return
		}
		switch m := m.(type) {
		case wire.Submit:
			cs.submit(reqID, m.Spec)
		case wire.Cancel:
			cs.mu.Lock()
			rq := cs.reqs[reqID]
			cs.mu.Unlock()
			if rq != nil {
				rq.cancel()
			}
		case wire.HeartbeatAck:
			// Liveness confirmed; nothing to record — dead peers are
			// detected by failed writes.
		default:
			// Clients must not send server-only frames; drop them.
		}
	}
}

// startHeartbeats sends periodic liveness probes when configured.
func (cs *connState) startHeartbeats() (stop func()) {
	hb := cs.srv.cfg.Heartbeat
	if hb <= 0 {
		return func() {}
	}
	t := time.NewTicker(hb)
	done := make(chan struct{})
	go func() {
		for {
			select {
			case <-t.C:
				if err := cs.wc.Write(0, wire.Heartbeat{SentNS: time.Now().UnixNano()}); err != nil {
					cs.nc.Close() // wakes the read loop
					return
				}
			case <-done:
				return
			}
		}
	}()
	return func() {
		t.Stop()
		close(done)
	}
}

// submit validates and admits one job, then runs it on the pool.
func (cs *connState) submit(reqID uint64, sp job.Spec) {
	s := cs.srv
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	if draining {
		_ = cs.wc.Write(reqID, wire.ErrorMsg{Msg: "tmcheckd: draining, not accepting jobs"})
		return
	}
	s.applyDefaults(&sp)
	sp.Normalize()
	if err := s.resolveSnapPaths(&sp); err != nil {
		_ = cs.wc.Write(reqID, wire.ErrorMsg{Msg: err.Error()})
		return
	}
	if err := sp.Validate(); err != nil {
		_ = cs.wc.Write(reqID, wire.ErrorMsg{Msg: err.Error()})
		return
	}
	cs.mu.Lock()
	if _, dup := cs.reqs[reqID]; dup {
		cs.mu.Unlock()
		_ = cs.wc.Write(reqID, wire.ErrorMsg{Msg: fmt.Sprintf("tmcheckd: request id %d already in use", reqID)})
		return
	}
	jobCtx, jobCancel := context.WithCancel(cs.ctx)
	rq := &reqState{cancel: jobCancel}
	cs.reqs[reqID] = rq
	active := len(cs.reqs)
	cs.mu.Unlock()
	_ = cs.wc.Write(reqID, wire.Accepted{Running: active})
	s.cfg.Logf("tmcheckd: %s req %d: %s accepted", cs.nc.RemoteAddr(), reqID, sp.Kind)

	// Journal the admission; a resume matching an orphaned job's
	// checkpoint re-adopts that job — the reconnect-and-continue path
	// a client takes after this daemon's predecessor died.
	if sp.Resume != "" {
		if e, ok := s.journal.adopt(filepath.Base(sp.Resume)); ok {
			s.cfg.Logf("tmcheckd: %s req %d: re-adopts orphaned job %s via snapshot %s",
				cs.nc.RemoteAddr(), reqID, e.ID, e.Checkpoint)
		}
	}
	ckptBase := ""
	if sp.Checkpoint != "" {
		ckptBase = filepath.Base(sp.Checkpoint)
	}
	jid := s.journal.start(sp.Kind.String(), ckptBase)

	s.jobWG.Add(1)
	go func() {
		defer s.jobWG.Done()
		defer jobCancel()
		// Deferred, so "done" is journaled only after the Result frame
		// is written: the journal's fsync stays off the client's
		// latency, which every job of a -snap-dir daemon would pay
		// otherwise. A daemon killed in between reports the finished
		// job as an orphan, which is harmless (re-adoption just reruns
		// or resumes it); Close waits for this goroutine, so a clean
		// shutdown always records the completion.
		defer s.journal.done(jid)
		defer func() {
			cs.mu.Lock()
			delete(cs.reqs, reqID)
			cs.mu.Unlock()
		}()
		// Wait for a pool slot; a cancel (client, disconnect, Close)
		// while queued resolves the job without running it.
		select {
		case s.sem <- struct{}{}:
			defer func() { <-s.sem }()
		case <-jobCtx.Done():
			le := job.LimitFrom(&guard.LimitError{Kind: guard.KindCancelled})
			_ = cs.wc.Write(reqID, wire.ResultMsg{ErrMsg: le.Err().Error(), Limit: le})
			return
		}
		cs.mu.Lock()
		if r := cs.reqs[reqID]; r != nil {
			r.running = true
		}
		cs.mu.Unlock()
		start := time.Now()
		res, err := job.RunConfig(jobCtx, sp, job.Config{
			NoPhases: true,
			SnapSync: s.cfg.SnapSync, SnapBatch: s.cfg.SnapBatch,
			StrictPersist: s.cfg.StrictPersist,
		})
		msg := wire.ResultMsg{Result: res}
		if err != nil {
			msg.ErrMsg = err.Error()
			msg.Limit = job.LimitFrom(job.AsLimit(err))
		}
		s.cfg.Logf("tmcheckd: %s req %d: %s done in %v (err=%v)",
			cs.nc.RemoteAddr(), reqID, sp.Kind, time.Since(start).Round(time.Millisecond), err)
		if werr := cs.wc.Write(reqID, msg); werr != nil && !errors.Is(werr, net.ErrClosed) {
			s.cfg.Logf("tmcheckd: %s req %d: result write failed: %v", cs.nc.RemoteAddr(), reqID, werr)
		}
	}()
}

// Orphans reports the journaled jobs left in flight by previous daemon
// lives that no client has re-adopted yet (empty without a journal).
func (s *Server) Orphans() []JournalEntry {
	return s.journal.sortedOrphans()
}

// resolveSnapPaths confines a Spec's checkpoint/resume/spill paths to
// the configured snapshot directory: clients name snapshots, the
// operator decides where they live. Without a SnapDir such Specs are
// refused rather than silently run unsnapshotted.
func (s *Server) resolveSnapPaths(sp *job.Spec) error {
	if sp.Checkpoint == "" && sp.Resume == "" && sp.Spill == "" {
		return nil
	}
	if s.cfg.SnapDir == "" {
		return errors.New("tmcheckd: this server has no -snap-dir; checkpoint/resume/spill jobs are refused")
	}
	if sp.Checkpoint != "" {
		sp.Checkpoint = filepath.Join(s.cfg.SnapDir, filepath.Base(sp.Checkpoint))
	}
	if sp.Resume != "" {
		sp.Resume = filepath.Join(s.cfg.SnapDir, filepath.Base(sp.Resume))
	}
	if sp.Spill != "" {
		sp.Spill = s.cfg.SnapDir
	}
	return nil
}

// applyDefaults fills the server's budget defaults into unset Spec
// fields.
func (s *Server) applyDefaults(sp *job.Spec) {
	if sp.Workers <= 0 && s.cfg.Workers > 0 {
		sp.Workers = s.cfg.Workers
	}
	if sp.MaxStates <= 0 && s.cfg.MaxStates > 0 {
		sp.MaxStates = s.cfg.MaxStates
	}
	if sp.Timeout <= 0 && s.cfg.Timeout > 0 {
		sp.Timeout = s.cfg.Timeout
	}
	if sp.MaxMem == 0 && s.cfg.MaxMem > 0 {
		sp.MaxMem = s.cfg.MaxMem
	}
}
