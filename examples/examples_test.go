// Golden-output smoke tests for the runnable examples: each example is
// executed exactly as the README instructs (go run ./examples/<name>)
// and its output checked for the stable fragments of its story — the
// verdicts and the counterexample framing, not timings or state counts.
package examples_test

import (
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// runExample executes one example from the module root and returns its
// combined output.
func runExample(t *testing.T, name string) string {
	t.Helper()
	root, err := filepath.Abs("..")
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command("go", "run", "./examples/"+name)
	cmd.Dir = root
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("go run ./examples/%s failed: %v\n%s", name, err, out)
	}
	return string(out)
}

func TestQuickstartGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("example subprocess skipped in -short")
	}
	out := runExample(t, "quickstart")
	for _, want := range []string{
		"ensures opacity",
		"opacity holds = true",
		"strict serializability holds = false",
		"counterexample:",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("quickstart output missing %q:\n%s", want, out)
		}
	}
}

func TestTL2BugGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("example subprocess skipped in -short")
	}
	out := runExample(t, "tl2bug")
	for _, want := range []string{
		"NOT strictly serializable; counterexample:",
		"oracle agrees: strictly serializable = false",
		"committed transactions: 2; strictly serializable = false",
		"unmodified TL2 accepts the word: false",
		"unmodified TL2 + polite ensures opacity: true",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("tl2bug output missing %q:\n%s", want, out)
		}
	}
}

// TestCustomTMGolden runs the one shipped program whose TM does not
// pack, so every check in it runs on explore's boxed core.
func TestCustomTMGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("example subprocess skipped in -short")
	}
	out := runExample(t, "customtm")
	for _, want := range []string{
		"strict serializability:  FAILS: (r,1)1, (w,1)1, (w,1)2, c2, c1",
		"opacity:                 FAILS: (r,1)1, (w,1)2, c2, (r,1)1",
		"HOLDS (3 TM states",
		"conclusion:                   safe for ALL programs (Theorem 1)",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("customtm output missing %q:\n%s", want, out)
		}
	}
}
