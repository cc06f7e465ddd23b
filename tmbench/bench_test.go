package main

import (
	"context"
	"math"
	"slices"
	"strings"
	"testing"

	"tmcheck/internal/job"
)

func draws(seed int64, n int) []string {
	s := newJobSeq(seed)
	out := make([]string, n)
	for i := range out {
		out[i] = s.at(i).Name
	}
	return out
}

func TestCatalogueDrawIsSeeded(t *testing.T) {
	a, b := draws(7, 200), draws(7, 200)
	if !slices.Equal(a, b) {
		t.Fatal("the same seed drew two different job sequences")
	}
	if c := draws(8, 200); slices.Equal(a, c) {
		t.Fatal("seeds 7 and 8 drew the same job sequence")
	}
	seen := make(map[string]bool)
	for _, name := range a {
		seen[name] = true
	}
	if len(seen) != len(catalogue()) {
		t.Errorf("200 draws covered %d of %d catalogue entries", len(seen), len(catalogue()))
	}
}

func TestCheckpointJobsWriteFreshSnapshots(t *testing.T) {
	s := newJobSeq(3)
	names := make(map[string]bool)
	for i := 0; i < 300; i++ {
		if ck := s.at(i).Spec.Checkpoint; ck != "" {
			if names[ck] {
				t.Fatalf("snapshot name %s drawn twice", ck)
			}
			names[ck] = true
		}
	}
	if len(names) == 0 {
		t.Fatal("no checkpoint job in 300 draws")
	}
}

func TestGateRejectsForgedVerdict(t *testing.T) {
	a := mustAnswers()
	good := Verdict{System: "dstm", Prop: "op", N: 2, K: 2, Holds: true}
	if err := a.Check(good); err != nil {
		t.Fatalf("true verdict rejected: %v", err)
	}
	forged := good
	forged.Holds = false
	forged.Cex = "(w,1)1, (r,1)2, c1, (r,1)2, c2"
	if err := a.Check(forged); err == nil {
		t.Fatal("gate accepted dstm op (2,2) reported as violated")
	}
	unknown := Verdict{System: "dstm", Prop: "op", N: 4, K: 4, Holds: true}
	if err := a.Check(unknown); err == nil {
		t.Fatal("gate accepted a verdict with no answer")
	}
	if err := a.CheckAll([]Verdict{good}, 2); err == nil {
		t.Fatal("gate accepted a job that reported too few verdicts")
	}
}

func TestGateRejectsCounterexampleTheOracleAccepts(t *testing.T) {
	a := mustAnswers()
	real := Verdict{System: "modtl2+polite", Prop: "ss", N: 2, K: 2, Cex: "(r,1)1, (w,2)1, (r,2)2, (w,1)2, c1, c2"}
	if err := a.Check(real); err != nil {
		t.Fatalf("paper's counterexample rejected: %v", err)
	}
	serial := real
	serial.Cex = "(r,1)1, c1, (w,1)2, c2"
	err := a.Check(serial)
	if err == nil || !strings.Contains(err.Error(), "oracle accepts") {
		t.Fatalf("gate accepted a serial word as a counterexample: %v", err)
	}
	garbage := real
	garbage.Cex = "not a word"
	if err := a.Check(garbage); err == nil {
		t.Fatal("gate accepted an unparsable counterexample")
	}
}

func TestP90NeedsHundredSamples(t *testing.T) {
	lat := make([]float64, minTailSamples-1)
	for i := range lat {
		lat[i] = float64(i)
	}
	if _, ok := p90(lat); ok {
		t.Fatalf("p90 reported with %d samples", len(lat))
	}
	lat = append(lat, 99)
	v, ok := p90(lat)
	if !ok || math.Abs(v-89.1) > 1e-9 {
		t.Fatalf("p90 of 0..99 = %v, %v; want 89.1", v, ok)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q := pyQuartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q != [3]float64{2.75, 5.5, 8.25} {
		t.Fatalf("quartiles = %v", q)
	}
}

func TestParseSafety(t *testing.T) {
	out := `system:         modtl2+polite
property:       strict serializability (2 threads, 3 variables)
engine:         onthefly
TM states:      198856
verdict:        UNSAFE (2.53586s)
counterexample: (r,1)1, (w,2)1, (r,2)2, (w,1)2, c1, c2
`
	vs, err := parseSafety(out)
	if err != nil {
		t.Fatal(err)
	}
	want := Verdict{System: "modtl2+polite", Prop: "ss", N: 2, K: 3, Cex: "(r,1)1, (w,2)1, (r,2)2, (w,1)2, c1, c2"}
	if len(vs) != 1 || vs[0] != want {
		t.Fatalf("parsed %+v", vs)
	}
	if _, err := parseSafety("system: dstm\n"); err == nil {
		t.Fatal("incomplete report parsed")
	}
}

// TestAnswerFileMatchesChecker runs every small catalogue shape in
// process and gates it, so a wrong hand-written answer shows here
// rather than as a failing benchmark run.
func TestAnswerFileMatchesChecker(t *testing.T) {
	a := mustAnswers()
	specs := []struct {
		sp   job.Spec
		want int
	}{
		{job.Spec{Kind: job.KindTable2, Ext: true, Workers: 1}, 18},
		{job.Spec{Kind: job.KindTable3, Workers: 1}, 12},
		{job.Spec{Kind: job.KindLiveness, TM: "2pl", CM: "polite", Workers: 1}, 3},
	}
	for _, e := range catalogue() {
		if e.Spec.Kind == job.KindSafety && e.Spec.Engine == "" {
			sp := e.Spec
			sp.Workers = 1
			specs = append(specs, struct {
				sp   job.Spec
				want int
			}{sp, 1})
		}
	}
	for _, s := range specs {
		res, err := job.Run(context.Background(), s.sp)
		if err != nil {
			t.Fatalf("%+v: %v", s.sp, err)
		}
		vs, err := resultVerdicts(res)
		if err == nil {
			err = a.CheckAll(vs, s.want)
		}
		if err != nil {
			t.Errorf("%v %s: %v", s.sp.Kind, s.sp.TM, err)
		}
	}
}

func TestSelfTimeSubtractsChildren(t *testing.T) {
	tr := &Tracer{spans: []Span{
		{ID: 1, Name: "job.RunConfig", Start: 0, End: 10},
		{ID: 2, Parent: 1, Name: "safety.VerifyOpts", Start: 2, End: 5},
		{ID: 3, Parent: 1, Name: "safety.VerifyOpts", Start: 4, End: 8},
		{ID: 4, Parent: 1, Name: "spec.Det.Enumerate", Start: 9, End: 12},
	}}
	self := make(map[string]LayerTime)
	for _, r := range tr.SelfTimes() {
		self[r.Layer] = r
	}
	// job covers [0,10]; its children cover [2,8] and [9,10].
	if got := self["job"].Self; got != 3 {
		t.Errorf("job self time = %v, want 3", got)
	}
	if got := self["safety"]; got.Self != 7 || got.Spans != 2 {
		t.Errorf("safety = %+v, want self 7 over 2 spans", got)
	}
}

func TestTracerConcurrentSpans(t *testing.T) {
	tr := newTracer()
	root := tr.Begin("bench.workload", 0, 0, 0)
	done := make(chan struct{})
	for lane := 0; lane < 4; lane++ {
		go func(lane int) {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 50; i++ {
				tr.Begin("wire.Client.Run", root.ID(), i, lane).End()
			}
		}(lane)
	}
	for i := 0; i < 4; i++ {
		<-done
	}
	root.End()
	rows := tr.SelfTimes()
	spans := 0
	for _, r := range rows {
		spans += r.Spans
	}
	if spans != 201 {
		t.Fatalf("recorded %d spans, want 201", spans)
	}
}
