package snap

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"tmcheck/internal/explore"
	"tmcheck/internal/tm"
)

// buildStored runs one materialized build of the system through the
// store's persistence hooks.
func buildStored(t *testing.T, s *Store, alg tm.Algorithm, cm tm.ContentionManager) *explore.TS {
	t.Helper()
	ts, err := explore.BuildGuarded(alg, cm, nil, s.Persist)
	if err != nil {
		t.Fatalf("BuildGuarded: %v", err)
	}
	return ts
}

// hooks is the provider handing every system the same persistence
// hooks.
func hooks(p *explore.Persist) explore.PersistProvider {
	return func(tm.Algorithm, tm.ContentionManager) (*explore.Persist, error) { return p, nil }
}

// sameTS asserts two builds agree state-for-state and edge-for-edge —
// the bit-identical contract a resumed build must meet.
func sameTS(t *testing.T, want, got *explore.TS) {
	t.Helper()
	if want.NumStates() != got.NumStates() {
		t.Fatalf("states: want %d, got %d", want.NumStates(), got.NumStates())
	}
	if want.NumEdges() != got.NumEdges() {
		t.Fatalf("edges: want %d, got %d", want.NumEdges(), got.NumEdges())
	}
	for i := range want.Out {
		if !reflect.DeepEqual(want.Out[i], got.Out[i]) {
			t.Fatalf("state %d: adjacency differs:\nwant %v\ngot  %v", i, want.Out[i], got.Out[i])
		}
	}
}

func wantErrContaining(t *testing.T, err error, sub string) {
	t.Helper()
	if err == nil {
		t.Fatalf("want error containing %q, got nil", sub)
	}
	if !strings.Contains(err.Error(), sub) {
		t.Fatalf("want error containing %q, got: %v", sub, err)
	}
}

func TestCheckpointRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "tl2.snap")
	base, err := explore.BuildGuarded(tm.NewTL2(2, 2), nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}

	st, err := OpenRun("", path, 2, 2)
	if err != nil {
		t.Fatalf("OpenRun(checkpoint): %v", err)
	}
	ts := buildStored(t, st, tm.NewTL2(2, 2), nil)
	sameTS(t, base, ts)
	if ts.Resumed != 0 {
		t.Errorf("fresh checkpointed build reports Resumed = %d", ts.Resumed)
	}
	if got := st.Resumable("tl2"); got != base.NumStates() {
		t.Errorf("Resumable(tl2) = %d, want %d", got, base.NumStates())
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// Resume-only reopen: the build must come back bit-identical,
	// entirely from the snapshot.
	ro, err := OpenRun(path, "", 2, 2)
	if err != nil {
		t.Fatalf("OpenRun(resume): %v", err)
	}
	ts2 := buildStored(t, ro, tm.NewTL2(2, 2), nil)
	sameTS(t, base, ts2)
	if ts2.Resumed != base.NumStates() {
		t.Errorf("Resumed = %d, want %d", ts2.Resumed, base.NumStates())
	}
}

func TestRerunSameCheckpointResumesInstantly(t *testing.T) {
	path := filepath.Join(t.TempDir(), "dstm.snap")
	st, err := OpenRun("", path, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	ts := buildStored(t, st, tm.NewDSTM(2, 2), nil)
	full := st.Resumable("dstm")
	if full != ts.NumStates() {
		t.Fatalf("Resumable = %d, want %d", full, ts.NumStates())
	}
	size1 := fileSize(t, path)

	// Second build on the same open store: the sink replays an
	// already-persisted prefix and must stay idempotent (no new
	// records, no merge errors) — the budgeted table2 driver builds the
	// same section twice (SS then OP).
	ts2 := buildStored(t, st, tm.NewDSTM(2, 2), nil)
	if ts2.Resumed != full {
		t.Errorf("second build Resumed = %d, want %d", ts2.Resumed, full)
	}
	sameTS(t, ts, ts2)
	if size2 := fileSize(t, path); size2 != size1 {
		t.Errorf("idempotent rebuild grew the snapshot: %d → %d bytes", size1, size2)
	}
	st.Close()

	// Rerunning the same -checkpoint command auto-resumes.
	st2, err := OpenRun("", path, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	ts3 := buildStored(t, st2, tm.NewDSTM(2, 2), nil)
	if ts3.Resumed != full {
		t.Errorf("reopened checkpoint Resumed = %d, want %d", ts3.Resumed, full)
	}
	sameTS(t, ts, ts3)
}

func fileSize(t *testing.T, path string) int64 {
	t.Helper()
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return info.Size()
}

// writeSnapshot builds one tl2 (2,2) checkpoint and returns its path
// and the full state count.
func writeSnapshot(t *testing.T) (string, int) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "tl2.snap")
	st, err := OpenRun("", path, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	ts := buildStored(t, st, tm.NewTL2(2, 2), nil)
	st.Close()
	return path, ts.NumStates()
}

func TestTornTailTruncated(t *testing.T) {
	path, full := writeSnapshot(t)
	size := fileSize(t, path)

	// A frame header promising more bytes than the file holds — the
	// shape SIGKILL mid-append leaves behind.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0xff, 0xff, 0xff, 0x7f, 1, 2, 3, 4, 5}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	st, err := OpenRun("", path, 2, 2)
	if err != nil {
		t.Fatalf("reopen with torn tail: %v", err)
	}
	defer st.Close()
	if got := st.Resumable("tl2"); got != full {
		t.Errorf("Resumable after torn tail = %d, want %d", got, full)
	}
	if got := fileSize(t, path); got != size {
		t.Errorf("torn tail not truncated: %d bytes, want %d", got, size)
	}
}

func TestTornRecordDropsOnlyTail(t *testing.T) {
	path, full := writeSnapshot(t)
	size := fileSize(t, path)

	// Cut deep into the file, mid-record: the valid prefix must load
	// and a rerun must rebuild only the missing tail, landing on the
	// same system.
	if err := os.Truncate(path, size*3/5); err != nil {
		t.Fatal(err)
	}
	st, err := OpenRun("", path, 2, 2)
	if err != nil {
		t.Fatalf("reopen truncated: %v", err)
	}
	kept := st.Resumable("tl2")
	if kept >= full {
		t.Fatalf("Resumable after truncation = %d, want < %d", kept, full)
	}
	ts, err := explore.BuildGuarded(tm.NewTL2(2, 2), nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	got := buildStored(t, st, tm.NewTL2(2, 2), nil)
	if got.Resumed != kept {
		t.Errorf("Resumed = %d, want %d", got.Resumed, kept)
	}
	sameTS(t, ts, got)
	if st.Resumable("tl2") != full {
		t.Errorf("rebuild did not restore the snapshot: Resumable = %d, want %d", st.Resumable("tl2"), full)
	}
	st.Close()
}

func TestHeaderCorruptionRefused(t *testing.T) {
	path, _ := writeSnapshot(t)

	// Flip a byte inside the header record's payload (offset 16 is the
	// record type byte right after magic + frame header): the CRC no
	// longer matches, so the file has no intact header.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[17] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = OpenRun(path, "", 2, 2)
	wantErrContaining(t, err, "no intact header record")
}

func TestBadMagicRefused(t *testing.T) {
	path := filepath.Join(t.TempDir(), "not.snap")
	if err := os.WriteFile(path, []byte("definitely not a snapshot"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := OpenRun(path, "", 2, 2)
	wantErrContaining(t, err, "not a tmcheck snapshot")
}

// craftHeader writes a file holding the magic and one intact header
// record with the given fields — the mismatch cases need a valid CRC.
func craftHeader(t *testing.T, version uint32, fp uint64, threads, vars int) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "crafted.snap")
	b := []byte{recHeader}
	b = appendU32(b, version)
	b = appendU64(b, fp)
	b = appendU32(b, uint32(threads))
	b = appendU32(b, uint32(vars))
	if err := os.WriteFile(path, append([]byte(magic), frame(b)...), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestVersionMismatchRefused(t *testing.T) {
	path := craftHeader(t, FormatVersion+1, Fingerprint(), 2, 2)
	_, err := OpenRun(path, "", 2, 2)
	wantErrContaining(t, err, "format version")
}

func TestFingerprintMismatchRefused(t *testing.T) {
	path := craftHeader(t, FormatVersion, Fingerprint()+1, 2, 2)
	_, err := OpenRun(path, "", 2, 2)
	wantErrContaining(t, err, "different TM/CM registry")
}

func TestInstanceMismatchRefused(t *testing.T) {
	path, _ := writeSnapshot(t) // written for (2,2)
	_, err := OpenRun(path, "", 3, 2)
	wantErrContaining(t, err, "was written for instance (2,2)")

	// The writable path refuses too: auto-resuming a -checkpoint file
	// from a different instance would silently mix state spaces.
	_, err = OpenRun("", path, 3, 2)
	wantErrContaining(t, err, "was written for instance (2,2)")
}

func TestEmptyResumeRefused(t *testing.T) {
	path := filepath.Join(t.TempDir(), "empty.snap")
	if err := os.WriteFile(path, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := OpenRun(path, "", 2, 2)
	wantErrContaining(t, err, "is empty")
}

func TestResumeMissingSectionStartsFresh(t *testing.T) {
	path, _ := writeSnapshot(t) // holds tl2 only
	st, err := OpenRun(path, "", 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	// A read-only snapshot with nothing for this system resumes as a
	// fresh, unpersisted build — a checkpoint killed before the section
	// record lost nothing worth refusing over.
	p, err := st.Persist(tm.NewDSTM(2, 2), nil)
	if err != nil {
		t.Fatalf("Persist(dstm): %v", err)
	}
	if p.Resume != nil || p.Sink != nil {
		t.Errorf("want an empty Persist, got Resume=%v Sink=%v", p.Resume, p.Sink)
	}
	ts, err := explore.BuildGuarded(tm.NewDSTM(2, 2), nil, nil, hooks(p))
	if err != nil {
		t.Fatal(err)
	}
	if ts.Resumed != 0 {
		t.Errorf("Resumed = %d, want 0", ts.Resumed)
	}
}

func TestAdoptCarriesSectionsForward(t *testing.T) {
	src, full := writeSnapshot(t)
	dst := filepath.Join(t.TempDir(), "next.snap")

	// -resume FILE -checkpoint OTHER: the new snapshot starts with the
	// old one's sections.
	st, err := OpenRun(src, dst, 2, 2)
	if err != nil {
		t.Fatalf("OpenRun(resume+checkpoint): %v", err)
	}
	if got := st.Resumable("tl2"); got != full {
		t.Fatalf("adopted Resumable = %d, want %d", got, full)
	}
	if st.Path() != dst {
		t.Errorf("Path() = %q, want the writable path %q", st.Path(), dst)
	}
	ts := buildStored(t, st, tm.NewTL2(2, 2), nil)
	if ts.Resumed != full {
		t.Errorf("Resumed = %d, want %d", ts.Resumed, full)
	}
	st.Close()

	// The new file is a complete snapshot on its own.
	ro, err := OpenRun(dst, "", 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got := ro.Resumable("tl2"); got != full {
		t.Errorf("adopted snapshot standalone Resumable = %d, want %d", got, full)
	}
}

func TestOpenRunSamePathIsCheckpoint(t *testing.T) {
	path := filepath.Join(t.TempDir(), "same.snap")
	st, err := OpenRun(path, path, 2, 2)
	if err != nil {
		t.Fatalf("OpenRun(same, same): %v", err)
	}
	defer st.Close()
	// Equal paths collapse to a plain checkpoint open: the file is
	// created rather than refused as a missing resume source.
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("snapshot not created: %v", err)
	}
}

func TestSpillBackedBuildMatches(t *testing.T) {
	dir := t.TempDir()
	base, err := explore.BuildGuarded(tm.NewTL2(2, 2), nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	sp := NewSpill(dir)
	ts, err := explore.BuildGuarded(tm.NewTL2(2, 2), nil, nil, hooks(&explore.Persist{Grow: sp.Grow()}))
	if err != nil {
		sp.Close()
		t.Fatal(err)
	}
	sameTS(t, base, ts)
	if err := sp.Close(); err != nil {
		t.Errorf("Close: %v", err)
	}
	left, err := filepath.Glob(filepath.Join(dir, "tmspill-*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(left) != 0 {
		t.Errorf("spill files left behind: %v", left)
	}
}

func TestSpillGrowPreservesContents(t *testing.T) {
	sp := NewSpill(t.TempDir())
	defer sp.Close()
	grow := sp.Grow()
	w := grow(4, nil)
	w = append(w, 1, 2, 3, 4)
	// Grow past the initial region repeatedly; earlier words must
	// survive each remap (they persist through the backing file).
	for want := 8; want <= minSpillBytes/4; want *= 8 {
		w = grow(want, w)
		for len(w) < want {
			w = append(w, uint64(len(w)))
		}
	}
	for i, v := range w[:4] {
		if v != uint64(i+1) {
			t.Fatalf("w[%d] = %d after regrowth, want %d", i, v, i+1)
		}
	}
	for i := 4; i < len(w); i++ {
		if w[i] != uint64(i) {
			t.Fatalf("w[%d] = %d after regrowth, want %d", i, w[i], i)
		}
	}
}
