package safety

import (
	"strings"
	"testing"

	"tmcheck/internal/core"
	"tmcheck/internal/spec"
	"tmcheck/internal/tm"
)

func TestExplainOnFailure(t *testing.T) {
	res := verify(t, tm.NewTL2Mod(2, 2), tm.Polite{}, spec.StrictSerializability)
	if res.Holds {
		t.Fatal("expected failure")
	}
	msg := Explain(res)
	if msg == "" {
		t.Fatal("Explain returned empty string for a failure")
	}
	for _, want := range []string{
		"violates strict serializability",
		"cannot be ordered",
		"must precede",
		"conflicts with",
	} {
		if !strings.Contains(msg, want) {
			t.Errorf("Explain output missing %q:\n%s", want, msg)
		}
	}
	// The cycle mentions both threads' transactions.
	if !strings.Contains(msg, "T1.") || !strings.Contains(msg, "T2.") {
		t.Errorf("Explain output missing transaction names:\n%s", msg)
	}
}

func TestExplainOnSuccess(t *testing.T) {
	res := verify(t, tm.NewSeq(2, 2), nil, spec.Opacity)
	if !res.Holds {
		t.Fatal("expected success")
	}
	if msg := Explain(res); msg != "" {
		t.Errorf("Explain on success = %q, want empty", msg)
	}
}

// TestExplainEmptyCounterexample: a failing result that carries no
// counterexample word has nothing to explain and must render empty
// rather than panic or fabricate a cycle.
func TestExplainEmptyCounterexample(t *testing.T) {
	res := Result{
		System: "broken",
		Prop:   spec.Opacity,
		Holds:  false,
	}
	if msg := Explain(res); msg != "" {
		t.Errorf("Explain with empty counterexample = %q, want empty", msg)
	}
}

// TestExplainHoldingResultWithWord: a holding result renders empty even
// if a counterexample word was (wrongly) left populated — Holds wins.
func TestExplainHoldingResultWithWord(t *testing.T) {
	res := verify(t, tm.NewSeq(2, 2), nil, spec.StrictSerializability)
	if !res.Holds {
		t.Fatal("expected seq to hold")
	}
	res.Counterexample = core.MustParseWord("(r,1)1, c1")
	if msg := Explain(res); msg != "" {
		t.Errorf("Explain on holding result = %q, want empty", msg)
	}
}

// TestExplainAcyclicWord covers the branch where the counterexample's
// committed projection has no conflict cycle, so the explanation can
// only point at a real-time ordering issue.
func TestExplainAcyclicWord(t *testing.T) {
	res := Result{
		System:         "synthetic",
		Prop:           spec.StrictSerializability,
		Holds:          false,
		Counterexample: core.MustParseWord("(r,1)1, c1"),
	}
	msg := Explain(res)
	for _, want := range []string{"violates strict serializability", "no conflict cycle", "real-time ordering"} {
		if !strings.Contains(msg, want) {
			t.Errorf("Explain output missing %q:\n%s", want, msg)
		}
	}
	if strings.Contains(msg, "must precede") {
		t.Errorf("acyclic explanation should not list precedence edges:\n%s", msg)
	}
}

func TestExplainOpacityCycle(t *testing.T) {
	res := verify(t, tm.NewDSTMNoValidate(2, 2), nil, spec.Opacity)
	if res.Holds {
		t.Fatal("expected failure for dstm-novalidate")
	}
	msg := Explain(res)
	if !strings.Contains(msg, "violates opacity") {
		t.Errorf("Explain output wrong:\n%s", msg)
	}
}
