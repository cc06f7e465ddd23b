package main

import (
	_ "embed"
	"encoding/json"
	"fmt"

	"tmcheck/internal/core"
	"tmcheck/internal/job"
)

// The verdict gate: every verdict a workload reports is compared with
// the hand-written answer file, and every safety counterexample is
// re-checked by the brute-force oracles of internal/core, which
// enumerate serialization orders directly and never touch the
// checker's deterministic specification Σd.

//go:embed answers.json
var answersJSON []byte

// Verdict is one checked property as the benchmark parsed it from a
// job's output: the CLI's stdout for local jobs, the wire Result for
// service jobs.
type Verdict struct {
	System, Prop string
	N, K         int
	Holds        bool
	// Cex is the safety counterexample in the paper's notation ("" for
	// liveness verdicts and for properties that hold).
	Cex string
}

type answerKey struct {
	System, Prop string
	N, K         int
}

// Answers maps each (system, property, instance) to its expected
// verdict.
type Answers map[answerKey]bool

// LoadAnswers parses an answer file.
func LoadAnswers(data []byte) (Answers, error) {
	var f struct {
		Verdicts []struct {
			System, Prop string
			N, K         int
			Holds        bool
		}
	}
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("answer file: %w", err)
	}
	a := make(Answers, len(f.Verdicts))
	for _, v := range f.Verdicts {
		k := answerKey{v.System, v.Prop, v.N, v.K}
		if _, dup := a[k]; dup {
			return nil, fmt.Errorf("answer file: duplicate entry %v", k)
		}
		a[k] = v.Holds
	}
	return a, nil
}

// mustAnswers is the embedded answer file; it is part of the source,
// so a parse error is a bug in the benchmark.
func mustAnswers() Answers {
	a, err := LoadAnswers(answersJSON)
	if err != nil {
		panic(err)
	}
	return a
}

// Check gates one verdict: it must have an answer, agree with it, and
// a violated safety property must come with a counterexample the
// oracle rejects.
func (a Answers) Check(v Verdict) error {
	want, ok := a[answerKey{v.System, v.Prop, v.N, v.K}]
	if !ok {
		return fmt.Errorf("%s %s (%d,%d): no entry in the answer file", v.System, v.Prop, v.N, v.K)
	}
	if v.Holds != want {
		return fmt.Errorf("%s %s (%d,%d): reported holds=%v, answer file says %v", v.System, v.Prop, v.N, v.K, v.Holds, want)
	}
	if v.Holds || (v.Prop != "ss" && v.Prop != "op") {
		return nil
	}
	w, err := core.ParseWord(v.Cex)
	if err != nil {
		return fmt.Errorf("%s %s (%d,%d): counterexample %q does not parse: %v", v.System, v.Prop, v.N, v.K, v.Cex, err)
	}
	accepted := core.IsStrictlySerializableBrute(w)
	if v.Prop == "op" {
		accepted = core.IsOpaqueBrute(w)
	}
	if accepted {
		return fmt.Errorf("%s %s (%d,%d): the oracle accepts the counterexample %q", v.System, v.Prop, v.N, v.K, v.Cex)
	}
	return nil
}

// CheckAll gates a job's verdicts: the job must report exactly want
// verdicts and each must pass Check.
func (a Answers) CheckAll(vs []Verdict, want int) error {
	if len(vs) != want {
		return fmt.Errorf("job reported %d verdicts, want %d", len(vs), want)
	}
	for _, v := range vs {
		if err := a.Check(v); err != nil {
			return err
		}
	}
	return nil
}

// resultVerdicts projects a job Result (local or decoded from the
// wire) onto verdicts. A check stopped by a resource limit fails the
// job.
func resultVerdicts(r *job.Result) ([]Verdict, error) {
	vs := make([]Verdict, 0, len(r.Checks))
	for _, c := range r.Checks {
		if c.Limit != nil {
			return nil, fmt.Errorf("%s %s: stopped at a resource limit: %v", c.System, c.Prop, c.Limit.Err())
		}
		vs = append(vs, Verdict{System: c.System, Prop: c.Prop, N: c.Threads, K: c.Vars, Holds: c.Holds, Cex: c.Counterexample})
	}
	return vs, nil
}
