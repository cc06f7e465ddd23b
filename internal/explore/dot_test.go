package explore

import (
	"runtime"
	"strings"
	"testing"

	"tmcheck/internal/tm"
)

func TestWriteDOT(t *testing.T) {
	ts := BuildWorkers(tm.NewSeq(2, 1), nil, runtime.GOMAXPROCS(0))
	var b strings.Builder
	if err := ts.WriteDOT(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		`digraph "seq"`,
		"q0 [shape=doublecircle]",
		"q0 -> q1",
		"color=red", // abort edges exist in seq's system
		"}",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("DOT output missing %q:\n%s", want, out)
		}
	}
	// Edge count: one line per edge plus the header/footer lines.
	lines := strings.Count(out, "->")
	if lines != ts.NumEdges() {
		t.Errorf("DOT has %d edges, TS has %d", lines, ts.NumEdges())
	}
}

func TestWriteDOTInternalEdgesDashed(t *testing.T) {
	ts := BuildWorkers(tm.NewTwoPL(2, 1), nil, runtime.GOMAXPROCS(0))
	var b strings.Builder
	if err := ts.WriteDOT(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "style=dashed") {
		t.Error("2PL's lock acquisitions should render dashed")
	}
}
