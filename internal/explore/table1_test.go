package explore

import (
	"runtime"
	"testing"

	"tmcheck/internal/core"
)

func TestTable1Runs(t *testing.T) {
	for _, tc := range Table1Scenarios {
		ts := BuildWorkers(tc.Alg(), nil, runtime.GOMAXPROCS(0))
		run := ts.RunProgram(tc.Schedule, tc.Programs)
		if got := FormatRun(run); got != tc.WantRun {
			t.Errorf("%s: run = %q, want %q", tc.Name, got, tc.WantRun)
		}
		if got := ts.WordOf(run).String(); got != tc.WantWord {
			t.Errorf("%s: word = %q, want %q", tc.Name, got, tc.WantWord)
		}
	}
}

// Every Table 1 word must be in the corresponding TM's language under the
// NFA view as well.
func TestTable1WordsInLanguage(t *testing.T) {
	for _, tc := range Table1Scenarios {
		ts := BuildWorkers(tc.Alg(), nil, runtime.GOMAXPROCS(0))
		w := core.MustParseWord(tc.WantWord)
		if !ts.InLanguage(w) {
			t.Errorf("%s: word %q not in language", tc.Name, w)
		}
	}
}
