// Package snap persists the canonical exploration prefix of the packed
// scan: an append-only, versioned, CRC-framed checkpoint written at
// every deterministic level barrier, so a run stopped by -maxstates,
// -timeout or SIGTERM keeps the prefix up to its last barrier, plus an
// mmap spill arena (spill.go) that moves the visited set's key storage
// onto disk so instances larger than RAM stay checkable.
//
// Because the state numbering is first-sight scan order, the interned
// prefix at any barrier is canonical: a run resumed from a snapshot —
// by any materialized check, at any worker count, on any machine with
// the same binary registry — produces verdicts and counterexamples
// byte-identical to an uninterrupted run. The header carries the format version, the
// instance parameters, and a registry fingerprint so a mismatched
// resume fails loudly instead of silently diverging.
package snap

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"strconv"
	"strings"
	"sync"

	"tmcheck/internal/chaos"
	"tmcheck/internal/explore"
	"tmcheck/internal/obs"
	"tmcheck/internal/tm"
)

// FileOps is the slice of *os.File the store drives its backing file
// through. It exists as a seam: when a chaos plan is installed the
// writable file is wrapped in the fault-injecting chaos.WrapFile, so
// short writes, torn tails and fsync failures are exercised through
// exactly the code paths a real disk fault would take.
type FileOps interface {
	Read(p []byte) (int, error)
	Write(p []byte) (int, error)
	Sync() error
	Truncate(size int64) error
	Seek(offset int64, whence int) (int64, error)
	Stat() (os.FileInfo, error)
	Close() error
}

// SyncMode says when appended records are fsynced — the crash-window
// knob of the -snap-sync flag (tradeoff documented in DESIGN.md).
type SyncMode uint8

const (
	// SyncAlways fsyncs every record: a SIGKILL loses at most the
	// record being written. The default.
	SyncAlways SyncMode = iota
	// SyncBatch fsyncs every Options.BatchEvery level records: a crash
	// may lose up to a batch of barriers, never file integrity (the
	// CRC framing truncates whatever tail didn't land).
	SyncBatch
	// SyncNone fsyncs only once, at Close: the OS decides when records
	// land. Fastest, widest crash window, same integrity guarantee.
	SyncNone
)

// defaultBatchEvery is the SyncBatch interval when none was given.
const defaultBatchEvery = 8

// ParseSyncMode parses a -snap-sync value: "always" (or ""), "none",
// "batch" (every 8 level records) or "batch:N".
func ParseSyncMode(s string) (SyncMode, int, error) {
	switch s {
	case "", "always":
		return SyncAlways, 0, nil
	case "none":
		return SyncNone, 0, nil
	case "batch":
		return SyncBatch, defaultBatchEvery, nil
	}
	if rest, ok := strings.CutPrefix(s, "batch:"); ok {
		n, err := strconv.Atoi(rest)
		if err != nil || n < 1 {
			return 0, 0, fmt.Errorf("snap: -snap-sync batch interval must be a positive integer, got %q", rest)
		}
		return SyncBatch, n, nil
	}
	return 0, 0, fmt.Errorf("snap: unknown sync mode %q (always, batch, batch:N, none)", s)
}

// Options shapes a store opened by OpenRunOpts.
type Options struct {
	// Sync is the fsync policy for appended records.
	Sync SyncMode
	// BatchEvery is the record interval between fsyncs under SyncBatch
	// (<= 0 takes the default of 8).
	BatchEvery int
	// Strict makes persist-path I/O errors fail the run (-strict-persist).
	// The default degrades instead: the store stops appending, warns
	// loudly once, and the check continues unpersisted — the snapshot
	// file keeps its last valid prefix.
	Strict bool
}

// section is the persisted state of one explored system: the canonical
// prefix (all interned keys in id order, the adjacency of the expanded
// states) and the barrier coordinates it reaches.
type section struct {
	id             uint32
	tmName, cmName string
	kw, keyBits    int

	keys               []uint64
	out                [][]explore.Edge
	interned, expanded int
}

func (sec *section) label() string {
	if sec.cmName == "" {
		return sec.tmName
	}
	return sec.tmName + "+" + sec.cmName
}

// Store is one open snapshot: a map from system identity to persisted
// section, backed by an append-only file. A writable store (opened
// with a checkpoint path) appends one fsynced record per level barrier
// and keeps its in-memory sections current, so a second build of the
// same section in one process resumes instantly; a read-only store
// (resume path only) never writes. Store is safe for concurrent use
// by parallel table rows.
type Store struct {
	mu       sync.Mutex
	f        FileOps // nil for a read-only store
	path     string
	readOnly bool

	syncMode   SyncMode
	batchEvery int
	unsynced   int
	strict     bool
	degraded   bool

	threads, vars int
	sections      map[string]*section
	byID          map[uint32]*section
	nextID        uint32
}

// OpenRun opens the snapshot store of one run for an instance of the
// given parameters. checkpointPath, when non-empty, names the writable
// snapshot: created if absent, loaded and appended to if present (so
// rerunning the same -checkpoint command auto-resumes). resumePath,
// when non-empty, names a snapshot to seed from; combined with a
// different checkpoint path its sections are carried over into the new
// snapshot. Both empty returns (nil, nil).
func OpenRun(resumePath, checkpointPath string, threads, vars int) (*Store, error) {
	return OpenRunOpts(resumePath, checkpointPath, threads, vars, Options{})
}

// OpenRunOpts is OpenRun with explicit sync and strictness options for
// the writable store.
func OpenRunOpts(resumePath, checkpointPath string, threads, vars int, o Options) (*Store, error) {
	if resumePath == checkpointPath {
		resumePath = ""
	}
	if checkpointPath == "" && resumePath == "" {
		return nil, nil
	}
	var src *Store
	if resumePath != "" {
		var err error
		src, err = open(resumePath, true, threads, vars, o)
		if err != nil {
			return nil, err
		}
		if checkpointPath == "" {
			return src, nil
		}
	}
	st, err := open(checkpointPath, false, threads, vars, o)
	if err != nil {
		return nil, err
	}
	if src != nil {
		if err := st.adopt(src); err != nil {
			st.Close()
			return nil, err
		}
	}
	return st, nil
}

// open loads (or, for a writable store, creates) one snapshot file.
func open(path string, readOnly bool, threads, vars int, o Options) (*Store, error) {
	flags, mode := os.O_RDWR|os.O_CREATE, os.FileMode(0o644)
	if readOnly {
		flags, mode = os.O_RDONLY, 0
	}
	f, err := os.OpenFile(path, flags, mode)
	if err != nil {
		return nil, fmt.Errorf("snap: %w", err)
	}
	batch := o.BatchEvery
	if batch <= 0 {
		batch = defaultBatchEvery
	}
	s := &Store{
		f: f, path: path, readOnly: readOnly,
		syncMode: o.Sync, batchEvery: batch, strict: o.Strict,
		threads: threads, vars: vars,
		sections: make(map[string]*section),
		byID:     make(map[uint32]*section),
	}
	if err := s.load(); err != nil {
		f.Close()
		return nil, err
	}
	if readOnly {
		f.Close()
		s.f = nil
	} else if chaos.Enabled() {
		// Interpose the fault plan only after the load replay: open-time
		// recovery (truncation, header rewrite) is not an append path,
		// and injecting there would turn a planted fault into an
		// untyped open error instead of a degradable append error.
		s.f = chaos.WrapFile(s.f)
	}
	return s, nil
}

// load replays the file into memory. A writable store truncates a torn
// tail (a record cut short by SIGKILL or disk-full) back to the last
// intact record; header corruption, a registry or instance mismatch,
// and out-of-order level records are refused loudly.
func (s *Store) load() error {
	info, err := s.f.Stat()
	if err != nil {
		return fmt.Errorf("snap: %w", err)
	}
	if info.Size() == 0 {
		if s.readOnly {
			return fmt.Errorf("snap: %s is empty", s.path)
		}
		if _, err := s.f.Write([]byte(magic)); err != nil {
			return fmt.Errorf("snap: %s: %w", s.path, err)
		}
		return s.appendLocked(encodeHeader(s.threads, s.vars))
	}
	var mg [len(magic)]byte
	if _, err := io.ReadFull(s.f, mg[:]); err != nil || string(mg[:]) != magic {
		return fmt.Errorf("snap: %s is not a tmcheck snapshot (bad magic)", s.path)
	}
	valid := int64(len(magic))
	sawHeader := false
	var hdr [8]byte
	buf := make([]byte, 0, 1<<16)
	for {
		if _, err := io.ReadFull(s.f, hdr[:]); err != nil {
			break // clean EOF or torn frame header
		}
		plen := binary.LittleEndian.Uint32(hdr[0:])
		want := binary.LittleEndian.Uint32(hdr[4:])
		if int64(plen) > info.Size()-valid-8 {
			break // torn tail: record extends past EOF
		}
		if cap(buf) < int(plen) {
			buf = make([]byte, plen)
		}
		buf = buf[:plen]
		if _, err := io.ReadFull(s.f, buf); err != nil {
			break
		}
		if crc32.ChecksumIEEE(buf) != want {
			break // torn or corrupted tail: drop this record and the rest
		}
		if err := s.apply(buf, &sawHeader); err != nil {
			return err
		}
		valid += 8 + int64(plen)
	}
	if !sawHeader {
		if s.readOnly {
			return fmt.Errorf("snap: %s has no intact header record", s.path)
		}
		// The writer died between the magic and the header fsync; the
		// file holds nothing, so reinitialize it.
		if err := s.f.Truncate(int64(len(magic))); err != nil {
			return fmt.Errorf("snap: %s: %w", s.path, err)
		}
		if _, err := s.f.Seek(0, io.SeekEnd); err != nil {
			return fmt.Errorf("snap: %s: %w", s.path, err)
		}
		return s.appendLocked(encodeHeader(s.threads, s.vars))
	}
	if !s.readOnly && valid < info.Size() {
		if err := s.f.Truncate(valid); err != nil {
			return fmt.Errorf("snap: %s: truncating torn tail: %w", s.path, err)
		}
	}
	if !s.readOnly {
		if _, err := s.f.Seek(0, io.SeekEnd); err != nil {
			return fmt.Errorf("snap: %s: %w", s.path, err)
		}
	}
	return nil
}

// apply replays one intact record into the in-memory sections.
func (s *Store) apply(payload []byte, sawHeader *bool) error {
	if len(payload) == 0 {
		return fmt.Errorf("snap: %s: empty record", s.path)
	}
	if payload[0] != recHeader && !*sawHeader {
		return fmt.Errorf("snap: %s: record before header", s.path)
	}
	d := &decoder{b: payload[1:]}
	switch payload[0] {
	case recHeader:
		version := d.u32()
		fp := d.u64()
		threads := int(d.u32())
		vars := int(d.u32())
		if d.bad {
			return fmt.Errorf("snap: %s: malformed header record", s.path)
		}
		if version != FormatVersion {
			return fmt.Errorf("snap: %s has format version %d; this binary reads version %d", s.path, version, FormatVersion)
		}
		if fp != Fingerprint() {
			return fmt.Errorf("snap: %s was written by a binary with a different TM/CM registry (fingerprint %#x, want %#x) — refusing to resume", s.path, fp, Fingerprint())
		}
		if threads != s.threads || vars != s.vars {
			return fmt.Errorf("snap: %s was written for instance (%d,%d); this run is (%d,%d) — refusing to resume", s.path, threads, vars, s.threads, s.vars)
		}
		*sawHeader = true
	case recSection:
		sec := &section{id: d.u32()}
		sec.tmName = d.str()
		sec.cmName = d.str()
		sec.kw = int(d.u32())
		sec.keyBits = int(d.u32())
		if d.bad || sec.kw < 1 {
			return fmt.Errorf("snap: %s: malformed section record", s.path)
		}
		if _, dup := s.byID[sec.id]; dup {
			return fmt.Errorf("snap: %s: duplicate section id %d", s.path, sec.id)
		}
		s.sections[sec.label()] = sec
		s.byID[sec.id] = sec
		if sec.id >= s.nextID {
			s.nextID = sec.id + 1
		}
	case recLevel:
		id := d.u32()
		sec, ok := s.byID[id]
		if !ok {
			return fmt.Errorf("snap: %s: level record for unknown section %d", s.path, id)
		}
		lr, err := decodeLevel(d, sec.kw)
		if err != nil {
			return fmt.Errorf("%w (%s, section %s)", err, s.path, sec.label())
		}
		if err := sec.merge(lr); err != nil {
			return fmt.Errorf("snap: %s: %w", s.path, err)
		}
	default:
		return fmt.Errorf("snap: %s: unknown record type %d", s.path, payload[0])
	}
	return nil
}

// merge applies one level delta to the section: records extending the
// current state advance it, stale duplicates (idempotent replays) are
// skipped, and a forward gap — data the file never contained — is
// corruption.
func (sec *section) merge(lr levelRecord) error {
	switch {
	case lr.prevI == sec.interned && lr.prevE == sec.expanded:
		sec.keys = append(sec.keys, lr.keys...)
		sec.out = append(sec.out, lr.out...)
		sec.interned, sec.expanded = lr.interned, lr.expanded
		return nil
	case lr.interned <= sec.interned && lr.expanded <= sec.expanded:
		return nil // stale duplicate of an already-merged delta
	default:
		return fmt.Errorf("section %s: level record (%d,%d)→(%d,%d) does not extend snapshot state (%d,%d)",
			sec.label(), lr.prevI, lr.prevE, lr.interned, lr.expanded, sec.interned, sec.expanded)
	}
}

// adopt carries every section of a read-only source snapshot that is
// ahead of this store into it, appending one catch-up record per
// section — the -resume FILE -checkpoint OTHER case.
func (s *Store) adopt(src *Store) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, ss := range src.sections {
		sec, err := s.sectionLocked(ss.tmName, ss.cmName, ss.kw, ss.keyBits)
		if err != nil {
			return err
		}
		if ss.interned <= sec.interned && ss.expanded <= sec.expanded {
			continue
		}
		if sec.interned > 0 {
			// Both snapshots hold canonical prefixes of the same system,
			// so the shorter is a prefix of the longer; splicing the tail
			// on is exact.
			for i, w := range sec.keys {
				if ss.keys[i] != w {
					return fmt.Errorf("snap: %s and %s disagree on section %s — refusing to merge", src.path, s.path, sec.label())
				}
			}
		}
		lr := levelRecord{
			prevI: sec.interned, interned: ss.interned,
			prevE: sec.expanded, expanded: ss.expanded,
			keys: ss.keys[sec.interned*sec.kw:],
			out:  ss.out[sec.expanded:],
		}
		payload := encodeLevel(sec.id, lr.prevI, lr.interned, lr.prevE, lr.expanded, lr.keys, lr.out)
		if err := s.appendLocked(payload); err != nil {
			return err
		}
		if err := sec.merge(lr); err != nil {
			return err
		}
	}
	return nil
}

// sectionLocked finds or (on a writable store) creates the section for
// one system, validating its key geometry.
func (s *Store) sectionLocked(tmName, cmName string, kw, keyBits int) (*section, error) {
	label := tmName
	if cmName != "" {
		label = tmName + "+" + cmName
	}
	sec, ok := s.sections[label]
	if !ok {
		if s.readOnly {
			// Nothing saved for this system — a checkpoint killed before
			// its section record, or a table snapshot cut short before a
			// later row. There is no prefix to lose, so the build starts
			// fresh rather than refusing.
			return nil, nil
		}
		sec = &section{id: s.nextID, tmName: tmName, cmName: cmName, kw: kw, keyBits: keyBits}
		s.nextID++
		if err := s.appendLocked(encodeSection(sec)); err != nil {
			return nil, err
		}
		s.sections[label] = sec
		s.byID[sec.id] = sec
		return sec, nil
	}
	if sec.kw != kw || sec.keyBits != keyBits {
		return nil, fmt.Errorf("snap: %s: section %s was written with a %d-bit key (%d words); this binary packs %d bits (%d words) — refusing to resume",
			s.path, label, sec.keyBits, sec.kw, keyBits, kw)
	}
	return sec, nil
}

// Persist resolves the persistence hooks for one system: the canonical
// prefix to resume from (nil when the snapshot holds nothing for it —
// including a read-only snapshot cut short before this system's
// section record, which resumes as a fresh build) and, on a writable
// store, the sink that checkpoints its level barriers. It implements explore.PersistProvider up to the spill
// growers, which the job layer attaches.
func (s *Store) Persist(alg tm.Algorithm, cm tm.ContentionManager) (*explore.Persist, error) {
	kw, keyBits, ok := explore.PackedInfo(alg, cm)
	if !ok {
		return nil, fmt.Errorf("snap: %s is not bit-packable; -checkpoint/-resume require a packed system", explore.System{Alg: alg, CM: cm}.Name())
	}
	cmName := ""
	if cm != nil {
		cmName = cm.Name()
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	sec, err := s.sectionLocked(alg.Name(), cmName, kw, keyBits)
	if err != nil {
		return nil, err
	}
	p := &explore.Persist{}
	if sec == nil {
		return p, nil // read-only store with nothing for this system
	}
	if sec.interned > 0 {
		p.Resume = &explore.ResumeState{
			// Copy the headers: the scan owns its view while the sink
			// appends to the section's slices.
			Keys:     sec.keys[: sec.interned*sec.kw : sec.interned*sec.kw],
			Out:      sec.out[:sec.expanded:sec.expanded],
			Interned: sec.interned,
			Expanded: sec.expanded,
		}
	}
	if !s.readOnly {
		p.Sink = &sectionSink{s: s, sec: sec}
	}
	return p, nil
}

// sectionSink streams one build's level deltas into the store.
type sectionSink struct {
	s   *Store
	sec *section
}

func (k *sectionSink) AppendLevel(newKeys []uint64, out [][]explore.Edge, prevInterned, interned, prevExpanded, expanded int) error {
	s, sec := k.s, k.sec
	s.mu.Lock()
	defer s.mu.Unlock()
	lr := levelRecord{
		prevI: prevInterned, interned: interned,
		prevE: prevExpanded, expanded: expanded,
		keys: newKeys,
		out:  out[prevExpanded:expanded],
	}
	if lr.interned <= sec.interned && lr.expanded <= sec.expanded {
		return nil // replaying an already-persisted prefix (idempotent)
	}
	if lr.prevI != sec.interned || lr.prevE != sec.expanded {
		return fmt.Errorf("snap: %s: section %s: barrier (%d,%d) does not extend snapshot state (%d,%d)",
			s.path, sec.label(), interned, expanded, sec.interned, sec.expanded)
	}
	if err := s.appendLocked(encodeLevel(sec.id, lr.prevI, lr.interned, lr.prevE, lr.expanded, lr.keys, lr.out)); err != nil {
		return err
	}
	sec.keys = append(sec.keys, newKeys...)
	sec.out = append(sec.out, lr.out...)
	sec.interned, sec.expanded = interned, expanded
	return nil
}

// appendLocked writes one framed record and syncs it per the store's
// sync mode; callers hold s.mu (or have exclusive access during load).
// An I/O error on a non-strict store degrades it instead of failing:
// the store stops touching the file (whose intact prefix the CRC
// framing preserves — a torn tail from a failed write is truncated on
// the next open), keeps merging deltas in memory so the run continues
// correct but unpersisted, warns loudly once, and bumps the
// snap.degraded vital. A strict store returns the error.
func (s *Store) appendLocked(payload []byte) error {
	if s.degraded {
		return nil
	}
	err := s.writeRecordLocked(payload)
	if err == nil || s.strict {
		return err
	}
	s.degraded = true
	obs.Inc("snap.degraded", 1)
	fmt.Fprintf(os.Stderr,
		"tmcheck: DEGRADED(snapshot): %v — continuing without persistence; %s keeps its last valid prefix (rerun with -strict-persist to fail instead)\n",
		err, s.path)
	return nil
}

func (s *Store) writeRecordLocked(payload []byte) error {
	if _, err := s.f.Write(frame(payload)); err != nil {
		return fmt.Errorf("snap: %s: %w", s.path, err)
	}
	switch s.syncMode {
	case SyncAlways:
		if err := s.f.Sync(); err != nil {
			return fmt.Errorf("snap: %s: %w", s.path, err)
		}
	case SyncBatch:
		s.unsynced++
		if s.unsynced >= s.batchEvery {
			if err := s.f.Sync(); err != nil {
				return fmt.Errorf("snap: %s: %w", s.path, err)
			}
			s.unsynced = 0
		}
	}
	return nil
}

// Degraded reports whether a persist-path I/O error switched the store
// into in-memory-only mode.
func (s *Store) Degraded() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.degraded
}

// Path returns the snapshot file path (the writable one when both a
// resume and checkpoint were given).
func (s *Store) Path() string { return s.path }

// Resumable reports how many states the snapshot holds for the given
// system label ("alg" or "alg+cm"), for "resumed from N states"
// reporting and tests.
func (s *Store) Resumable(label string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	if sec, ok := s.sections[label]; ok {
		return sec.interned
	}
	return 0
}

// Close closes the backing file, flushing any batch-mode records that
// have not been fsynced yet; a read-only store is already closed.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f == nil {
		return nil
	}
	var err error
	if !s.degraded && s.syncMode != SyncAlways {
		err = s.f.Sync()
	}
	if cerr := s.f.Close(); err == nil {
		err = cerr
	}
	s.f = nil
	return err
}
