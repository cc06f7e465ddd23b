// Package chaos is the deterministic fault-injection layer: a
// seed-driven Plan of per-site "fail the Nth operation" counters that
// the persistence, network and engine layers consult at their existing
// seams. Every injected failure is replayable — the same -chaos-seed
// arms the same counters, and the engines' deterministic barriers make
// the Nth operation the same operation on every run — so a fault found
// by the soak runner reproduces under a debugger with one flag.
//
// The layer follows the obs event-bus zero-cost contract: with no plan
// installed, every injection site is one atomic pointer load that
// returns false, proven allocation-free by TestChaosDisabledZeroAlloc;
// the packed engines' alloc gate (TestBuildAllocsPerState) keeps it
// honest on the hot path.
package chaos

import (
	"errors"
	"fmt"
	"net"
	"os"
	"sync/atomic"
	"time"

	"tmcheck/internal/obs"
)

// Site names one injection point. Each site has its own decrementing
// counter in the Plan, so faults at different layers arm independently.
type Site uint8

const (
	// SiteSnapWrite is a snapshot record append (internal/snap): the
	// armed operation writes only a prefix of the frame — a torn tail
	// at an arbitrary byte offset — and reports a write error.
	SiteSnapWrite Site = iota
	// SiteSnapSync is a snapshot fsync: the armed operation reports an
	// fsync error after the data was handed to the kernel.
	SiteSnapSync
	// SiteSpillGrow is a spill-arena growth (mmap remap): the armed
	// operation fails as if the disk filled mid-remap.
	SiteSpillGrow
	// SiteConnRead is a client connection read (internal/wire): the
	// armed operation resets the connection mid-frame.
	SiteConnRead
	// SiteConnWrite is a client connection write: the armed operation
	// transmits only a prefix of the frame, then resets.
	SiteConnWrite
	// SiteConnStall is a bounded read stall (a peer that stops talking
	// without closing), exercising the heartbeat-timeout detector.
	SiteConnStall
	// SiteWorkerPanic is a panic inside a packed exploration scan or in
	// the TM stage's helper of the on-the-fly product, isolated by the
	// engines' existing guard.Capture machinery into a LIMIT(panic).
	SiteWorkerPanic
	// SiteGuardMem is a spurious memory-watchdog trip inside
	// guard.Check, exercising the KindMemory limit path.
	SiteGuardMem

	numSites
)

// String names the site for plan dumps and injected-error messages.
func (s Site) String() string {
	switch s {
	case SiteSnapWrite:
		return "snap-write"
	case SiteSnapSync:
		return "snap-sync"
	case SiteSpillGrow:
		return "spill-grow"
	case SiteConnRead:
		return "conn-read"
	case SiteConnWrite:
		return "conn-write"
	case SiteConnStall:
		return "conn-stall"
	case SiteWorkerPanic:
		return "worker-panic"
	case SiteGuardMem:
		return "guard-mem"
	}
	return fmt.Sprintf("site(%d)", uint8(s))
}

// siteNames is indexed by Site for allocation-free vitals keys.
var siteNames = [numSites]string{
	"chaos.injected.snap-write", "chaos.injected.snap-sync",
	"chaos.injected.spill-grow", "chaos.injected.conn-read",
	"chaos.injected.conn-write", "chaos.injected.conn-stall",
	"chaos.injected.worker-panic", "chaos.injected.guard-mem",
}

// ErrInjected is the sentinel every injected I/O failure wraps, so
// tests and the soak runner can tell a planted fault from a real one
// with errors.Is.
var ErrInjected = errors.New("chaos: injected fault")

// Plan is one armed fault plan: a per-site counter of operations until
// the fault fires (one-shot), plus the parameters of the partial-write
// faults. Counters are atomic — the on-the-fly search's stage helper
// and concurrent table rows fire from many goroutines.
type Plan struct {
	// Seed is the PRNG seed the plan was derived from (0 for a
	// hand-armed plan); it names the plan in logs.
	Seed uint64

	counters [numSites]atomic.Int64
	// shortLen is how many payload bytes an injected short write keeps
	// (SiteSnapWrite / SiteConnWrite); clamped to the payload.
	shortLen atomic.Int64
	// stall is the injected read-stall duration in nanoseconds.
	stall atomic.Int64
}

// NewPlan derives a fault plan from seed with an xorshift64* stream:
// each site is independently armed with probability ~1/2 to fire on
// the Nth operation, N in [1, 24]; short writes keep a small random
// prefix and stalls are bounded at tens of milliseconds. The same seed
// always arms the same plan.
func NewPlan(seed uint64) *Plan {
	p := &Plan{Seed: seed}
	x := seed
	if x == 0 {
		x = 0x9e3779b97f4a7c15
	}
	next := func() uint64 {
		x ^= x >> 12
		x ^= x << 25
		x ^= x >> 27
		return x * 0x2545f4914f6cdd1d
	}
	for s := Site(0); s < numSites; s++ {
		if next()&1 == 0 {
			continue
		}
		p.counters[s].Store(int64(next()%24) + 1)
	}
	p.shortLen.Store(int64(next() % 64))
	p.stall.Store(int64(time.Duration(next()%50+1) * time.Millisecond))
	return p
}

// Manual returns an empty plan: nothing fires until Arm is called.
func Manual() *Plan { return &Plan{} }

// Arm sets site to fire on its nth operation from now (one-shot);
// nth <= 0 disarms it.
func (p *Plan) Arm(site Site, nth int) {
	if nth < 0 {
		nth = 0
	}
	p.counters[site].Store(int64(nth))
}

// SetShortWrite sets how many payload bytes an injected short write
// keeps before failing — the knob the torn-tail tests sweep across
// every byte offset of a record.
func (p *Plan) SetShortWrite(keep int) { p.shortLen.Store(int64(keep)) }

// SetStall sets the injected read-stall duration.
func (p *Plan) SetStall(d time.Duration) { p.stall.Store(int64(d)) }

// Armed reports the sites the plan will still fire, for logging.
func (p *Plan) Armed() []Site {
	var sites []Site
	for s := Site(0); s < numSites; s++ {
		if p.counters[s].Load() > 0 {
			sites = append(sites, s)
		}
	}
	return sites
}

// String renders the plan for logs: seed and still-armed sites.
func (p *Plan) String() string {
	return fmt.Sprintf("chaos plan seed=%d armed=%v", p.Seed, p.Armed())
}

// active is the process-wide installed plan; nil means chaos is off
// and every Fire is one atomic load returning false.
var active atomic.Pointer[Plan]

// Install makes p the process-wide fault plan (nil uninstalls).
func Install(p *Plan) { active.Store(p) }

// Uninstall disables fault injection.
func Uninstall() { active.Store(nil) }

// Current returns the installed plan (nil when chaos is off) — with
// its live counter state, so a caller can suspend injection and
// reinstall the plan without rearming consumed sites.
func Current() *Plan { return active.Load() }

// Enabled reports whether a plan is installed — the wrap-or-not
// decision the seams make once at setup time.
func Enabled() bool { return active.Load() != nil }

// Fire consults the installed plan for one operation at site: it
// decrements the site's counter and reports true exactly when the
// counter reaches zero — the armed Nth operation. With no plan
// installed it is a single atomic load, allocation-free.
func Fire(site Site) bool {
	p := active.Load()
	if p == nil {
		return false
	}
	return p.fire(site)
}

func (p *Plan) fire(site Site) bool {
	c := &p.counters[site]
	for {
		v := c.Load()
		if v <= 0 {
			return false
		}
		if c.CompareAndSwap(v, v-1) {
			if v == 1 {
				obs.Inc(siteNames[site], 1)
				return true
			}
			return false
		}
	}
}

// shortWriteLen returns the installed plan's short-write prefix,
// clamped to n.
func shortWriteLen(n int) int {
	p := active.Load()
	if p == nil {
		return 0
	}
	keep := int(p.shortLen.Load())
	if keep > n {
		keep = n
	}
	if keep < 0 {
		keep = 0
	}
	return keep
}

// stallFor returns the installed plan's read-stall duration.
func stallFor() time.Duration {
	p := active.Load()
	if p == nil {
		return 0
	}
	return time.Duration(p.stall.Load())
}

// File is the slice of *os.File the snapshot store writes through;
// WrapFile interposes the snap-write and snap-sync faults on it.
type File interface {
	Read(p []byte) (int, error)
	Write(p []byte) (int, error)
	Sync() error
	Truncate(size int64) error
	Seek(offset int64, whence int) (int64, error)
	Stat() (os.FileInfo, error)
	Close() error
}

// WrapFile interposes the installed plan's file faults on f: an armed
// SiteSnapWrite writes only a prefix of the buffer (a torn record tail
// on disk) and reports an injected error; an armed SiteSnapSync fails
// the fsync after the write went through. All other operations pass
// straight through.
func WrapFile(f File) File { return &chaosFile{f: f} }

type chaosFile struct{ f File }

func (c *chaosFile) Write(p []byte) (int, error) {
	if Fire(SiteSnapWrite) {
		keep := shortWriteLen(len(p))
		n, err := c.f.Write(p[:keep])
		if err != nil {
			return n, err
		}
		return n, fmt.Errorf("%w: short write (%d of %d bytes)", ErrInjected, keep, len(p))
	}
	return c.f.Write(p)
}

func (c *chaosFile) Sync() error {
	if Fire(SiteSnapSync) {
		// The data was written; only durability is lost — exactly the
		// crash window a real fsync failure opens.
		_ = c.f.Sync()
		return fmt.Errorf("%w: fsync failed", ErrInjected)
	}
	return c.f.Sync()
}

func (c *chaosFile) Read(p []byte) (int, error)                { return c.f.Read(p) }
func (c *chaosFile) Truncate(size int64) error                 { return c.f.Truncate(size) }
func (c *chaosFile) Seek(off int64, whence int) (int64, error) { return c.f.Seek(off, whence) }
func (c *chaosFile) Stat() (os.FileInfo, error)                { return c.f.Stat() }
func (c *chaosFile) Close() error                              { return c.f.Close() }

// WrapConn interposes the installed plan's connection faults on nc: an
// armed SiteConnRead resets the connection mid-frame, an armed
// SiteConnWrite transmits a prefix of the frame then resets, and an
// armed SiteConnStall holds a read for the plan's bounded stall first
// (a peer gone silent without closing).
func WrapConn(nc net.Conn) net.Conn { return &chaosConn{Conn: nc} }

type chaosConn struct{ net.Conn }

func (c *chaosConn) Read(p []byte) (int, error) {
	if Fire(SiteConnStall) {
		time.Sleep(stallFor())
	}
	if Fire(SiteConnRead) {
		c.Conn.Close()
		return 0, fmt.Errorf("%w: connection reset mid-read", ErrInjected)
	}
	return c.Conn.Read(p)
}

func (c *chaosConn) Write(p []byte) (int, error) {
	if Fire(SiteConnWrite) {
		keep := shortWriteLen(len(p))
		n, _ := c.Conn.Write(p[:keep])
		c.Conn.Close()
		return n, fmt.Errorf("%w: connection reset mid-write (%d of %d bytes sent)", ErrInjected, keep, len(p))
	}
	return c.Conn.Write(p)
}
