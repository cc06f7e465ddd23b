package jobd

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"tmcheck/internal/job"
)

// TestJournalLifecycle pins the journal unit contract: starts without
// a matching done survive a reopen as orphans, dones are compacted
// away, and adoption consumes an orphan exactly once.
func TestJournalLifecycle(t *testing.T) {
	dir := t.TempDir()
	j, orphans, err := openJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(orphans) != 0 {
		t.Fatalf("fresh journal reports %d orphan(s): %v", len(orphans), orphans)
	}
	idA := j.start("safety", "a.snap")
	idB := j.start("safety", "")
	if idA == idB || idA == "" {
		t.Fatalf("ids not unique: %q vs %q", idA, idB)
	}
	j.done(idB)
	j.close()

	// A "crashed" daemon left idA in flight. Reopen sees exactly it.
	j2, orphans, err := openJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(orphans) != 1 || orphans[0].ID != idA || orphans[0].Checkpoint != "a.snap" {
		t.Fatalf("orphans after reopen = %+v, want just %s with a.snap", orphans, idA)
	}
	// Compaction rewrote the file down to live entries only.
	data, err := os.ReadFile(filepath.Join(dir, journalName))
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(string(data), "\n"); got != 1 {
		t.Fatalf("compacted journal has %d line(s), want 1:\n%s", got, data)
	}
	if adopted, ok := j2.adopt("a.snap"); !ok || adopted.ID != idA {
		t.Fatalf("adopt(a.snap) = %+v, %v; want %s, true", adopted, ok, idA)
	}
	if _, ok := j2.adopt("a.snap"); ok {
		t.Fatal("second adopt of the same snapshot succeeded")
	}
	j2.close()

	// Adoption recorded the done: a third open is clean.
	j3, orphans, err := openJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer j3.close()
	if len(orphans) != 0 {
		t.Fatalf("orphans after adoption = %+v, want none", orphans)
	}
}

// TestJournalSkipsCorruptLines pins crash tolerance of the journal
// itself: a torn or garbage line (the daemon died mid-append) is
// skipped, not fatal, and intact entries around it survive.
func TestJournalSkipsCorruptLines(t *testing.T) {
	dir := t.TempDir()
	raw := `{"event":"start","id":"1.1","kind":"safety","checkpoint":"x.snap"}
{"event":"start","id":"1.2","kind":"table2","checkpoi` + "\n" // torn tail
	if err := os.WriteFile(filepath.Join(dir, journalName), []byte(raw), 0o644); err != nil {
		t.Fatal(err)
	}
	j, orphans, err := openJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer j.close()
	if len(orphans) != 1 || orphans[0].ID != "1.1" {
		t.Fatalf("orphans = %+v, want just the intact 1.1", orphans)
	}
}

// TestServerReportsAndReadoptsOrphans is the end-to-end recovery
// story: a daemon starting over a journal with an in-flight entry
// reports the orphan and how to resume it, and a client resubmitting
// with -resume against that snapshot re-adopts it.
func TestServerReportsAndReadoptsOrphans(t *testing.T) {
	dir := t.TempDir()
	seed := `{"event":"start","id":"dead.1","kind":"safety","checkpoint":"ck.snap","started":"2026-08-08T00:00:00Z"}` + "\n"
	if err := os.WriteFile(filepath.Join(dir, journalName), []byte(seed), 0o644); err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var lines []string
	logf := func(format string, args ...any) {
		mu.Lock()
		lines = append(lines, fmt.Sprintf(format, args...))
		mu.Unlock()
	}
	srv, addr := startServer(t, Config{Jobs: 1, SnapDir: dir, Logf: logf})

	if got := srv.Orphans(); len(got) != 1 || got[0].ID != "dead.1" {
		t.Fatalf("Orphans() = %+v, want the seeded dead.1", got)
	}
	mu.Lock()
	joined := strings.Join(lines, "\n")
	mu.Unlock()
	if !strings.Contains(joined, "dead.1") || !strings.Contains(joined, "-resume ck.snap") {
		t.Fatalf("startup log does not report the orphan with resume advice:\n%s", joined)
	}

	// The reconnecting client resubmits with Resume = Checkpoint. The
	// snapshot file does not exist (the old daemon died before its first
	// append) — the job must still run fresh and adopt the orphan.
	c := dial(t, addr)
	res, err := c.Run(context.Background(), job.Spec{
		Kind: job.KindSafety, TM: "seq", Prop: "op", Threads: 2, Vars: 1,
		Engine: "materialized", Checkpoint: "ck.snap", Resume: "ck.snap",
	}, nil)
	if err != nil {
		t.Fatalf("resubmit with resume: %v", err)
	}
	if len(res.Checks) == 0 || !res.Checks[0].Holds {
		t.Fatalf("unexpected result: %+v", res)
	}
	if got := srv.Orphans(); len(got) != 0 {
		t.Fatalf("Orphans() after re-adoption = %+v, want none", got)
	}
	mu.Lock()
	joined = strings.Join(lines, "\n")
	mu.Unlock()
	if !strings.Contains(joined, "re-adopts orphaned job dead.1") {
		t.Fatalf("log does not record the re-adoption:\n%s", joined)
	}
}

// TestServerJournalRecordsCompletion pins the happy path: a job that
// runs to completion leaves no orphan for the next daemon.
func TestServerJournalRecordsCompletion(t *testing.T) {
	dir := t.TempDir()
	srv, addr := startServer(t, Config{Jobs: 1, SnapDir: dir})
	c := dial(t, addr)
	if _, err := c.Run(context.Background(), job.Spec{
		Kind: job.KindSafety, TM: "seq", Prop: "op", Threads: 2, Vars: 1,
		Engine: "materialized", Checkpoint: "done.snap",
	}, nil); err != nil {
		t.Fatal(err)
	}
	// The job journals its completion after delivering the result, so
	// stop the first daemon — as a restart does — before the second one
	// reads the journal; it must then see a clean journal.
	srv.Close()
	srv2 := New(Config{Jobs: 1, SnapDir: dir})
	addr2, err := srv2.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	_ = addr2
	if got := srv2.Orphans(); len(got) != 0 {
		t.Fatalf("second daemon sees orphans %+v after a clean completion", got)
	}
}
