package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	"tmcheck/internal/automata"
	"tmcheck/internal/core"
	"tmcheck/internal/explore"
	"tmcheck/internal/guard"
	"tmcheck/internal/job"
	"tmcheck/internal/liveness"
	"tmcheck/internal/pack"
	"tmcheck/internal/safety"
	"tmcheck/internal/snap"
	"tmcheck/internal/spec"
	"tmcheck/internal/tm"
	"tmcheck/internal/wire"
)

// The traced run: the workload once untraced and once with spans on
// (half the interval each), then probes that call each layer's public
// entry points on the workload's inputs. Layers a workload does not
// exercise are probed on other inputs — deep-bug probes liveness on
// Table 3 at (3,2), the service catalogue covers the rest — so every
// per-layer metric is present in every traced run.

// sysIn names one system instance.
type sysIn struct {
	Alg, CM string
	N, K    int
}

func (s sysIn) name() string {
	if s.CM == "" {
		return s.Alg
	}
	return s.Alg + "+" + s.CM
}

func (s sysIn) String() string { return fmt.Sprintf("%s(%d,%d)", s.name(), s.N, s.K) }

func (s sysIn) build() (tm.Algorithm, tm.ContentionManager, error) {
	alg, err := tm.NewAlgorithm(s.Alg, s.N, s.K)
	if err != nil {
		return nil, nil, err
	}
	cm, err := tm.NewContentionManager(s.CM)
	return alg, cm, err
}

// safetyIn is one safety check.
type safetyIn struct {
	sysIn
	Prop string
}

func (s safetyIn) property() spec.Property {
	if s.Prop == "op" {
		return spec.Opacity
	}
	return spec.StrictSerializability
}

// layerInputs are the probe inputs of one workload.
type layerInputs struct {
	systems   []sysIn    // tm, pack, explore, parbfs
	safety    []safetyIn // safety, spec, automata
	liveness  []sysIn    // liveness on the fly
	liveBuilt []sysIn    // liveness on a built system
}

// catalogueSafety and catalogueLiveness are the single-check entries
// of the service catalogue.
func catalogueSafety() []safetyIn {
	var out []safetyIn
	for _, e := range catalogue() {
		if e.Spec.Kind == job.KindSafety && e.Spec.Engine == "" {
			out = append(out, safetyIn{sysIn{e.Spec.TM, e.Spec.CM, 2, 2}, e.Spec.Prop})
		}
	}
	return out
}

func catalogueLiveness() []sysIn {
	var out []sysIn
	for _, e := range catalogue() {
		if e.Spec.Kind == job.KindLiveness {
			out = append(out, sysIn{e.Spec.TM, e.Spec.CM, 2, 1})
		}
	}
	return out
}

func inputsFor(w string) layerInputs {
	cs, cl := catalogueSafety(), catalogueLiveness()
	if w == "deep-bug" {
		// The job is a safety check, so liveness is probed on Table 3
		// at (3,2): dstm+aggressive obstruction freedom holds after a
		// 102,512-state fixpoint and the other cells fail early, which
		// keeps the packed level scan and the lasso search probed at
		// scale.
		s := safetyIn{sysIn{"modtl2", "polite", 2, 3}, "ss"}
		fix := sysIn{"dstm", "aggressive", 3, 2}
		live := []sysIn{{"seq", "", 3, 2}, {"2pl", "", 3, 2}, fix, {"tl2", "polite", 3, 2}}
		return layerInputs{systems: []sysIn{s.sysIn}, safety: []safetyIn{s}, liveness: live, liveBuilt: []sysIn{fix}}
	}
	var systems []sysIn
	for _, s := range cs {
		systems = append(systems, s.sysIn)
	}
	return layerInputs{systems: append(systems, cl...), safety: cs, liveness: cl, liveBuilt: cl}
}

// prober runs the layer probes and collects their metrics.
type prober struct {
	*env
	w        Workload
	root     int
	workers  int
	m        map[string]metric
	attempts int
	fails    []string
	// jobAllocs and jobGCs accumulate the allocation of the spans that
	// do one job's checking work in process; jobs counts them.
	jobAllocs uint64
	jobGCs    uint32
	jobs      int
}

func (p *prober) set(name string, v float64, unit string) { p.m[name] = metric{v, unit} }

// call runs f inside a span and returns its wall-clock.
func (p *prober) call(name string, f func()) time.Duration {
	_, d := p.span(name, f)
	return d
}

// jobCall is call for a span that does one job's checking work; its
// allocation and GC counts feed go.alloc_mb_per_job and go.gc_per_job.
func (p *prober) jobCall(name string, f func()) time.Duration {
	sp, d := p.span(name, f)
	p.jobAllocs += sp.AllocBytes
	p.jobGCs += sp.GCs
	p.jobs++
	return d
}

func (p *prober) span(name string, f func()) (Span, time.Duration) {
	h := p.tr.Begin(name, p.root, 0, 0)
	t0 := time.Now()
	f()
	d := time.Since(t0)
	h.End()
	if h == nil {
		return Span{}, d
	}
	return h.sp, d
}

// gate checks probe verdicts like job verdicts.
func (p *prober) gate(what string, vs []Verdict, err error) {
	p.attempts++
	for _, v := range vs {
		if err != nil {
			break
		}
		err = p.answers.Check(v)
	}
	if err != nil {
		p.fails = append(p.fails, fmt.Sprintf("%s: %v", what, err))
	}
}

// release drops garbage between probes so one probe's heap does not
// inflate the next one's GC work.
func release() {
	runtime.GC()
	debug.FreeOSMemory()
}

func (e *env) tracedRun(w Workload, seed int64, dur time.Duration) (report, error) {
	half := max(dur/2, time.Second)
	plain, _, err := e.measure(w, seed, half, 0)
	if err != nil {
		return report{}, err
	}
	e.tr = newTracer()
	loop := e.tr.Begin("bench.workload", 0, 0, 0)
	traced, _, err := e.measure(w, seed, half, loop.ID())
	loop.End()
	if err != nil {
		return report{}, err
	}
	probes := e.tr.Begin("bench.probes", 0, 0, 0)
	p := &prober{env: e, w: w, root: probes.ID(), workers: runtime.GOMAXPROCS(0), m: make(map[string]metric)}
	err = p.run(plain, traced)
	probes.End()
	if err != nil {
		return report{}, err
	}

	fmt.Printf("traced run %s seed %d: untraced loop %d jobs (p50 %.3f ms), traced loop %d jobs (p50 %.3f ms)\n",
		w.Name, seed, len(plain.latMS), median(plain.latMS), len(traced.latMS), median(traced.latMS))
	for _, f := range append(append(plain.errs, traced.errs...), p.fails...) {
		fmt.Printf("  FAILED %s\n", f)
	}
	fmt.Println("self time by layer (spans recorded around the benchmark's calls):")
	WriteSelfTimes(os.Stdout, e.tr.SelfTimes())
	dir := filepath.Join(e.root, ".bench_build", "trace")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return report{}, err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.trace.json", w.Name, seed))
	if err := e.tr.WriteChrome(path); err != nil {
		return report{}, err
	}
	fmt.Printf("chrome trace: %s\n", path)
	checkCounts(e.root, w.Name, p.m)
	names := make([]string, 0, len(p.m))
	for n := range p.m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("  %-30s %16.4f %s\n", n, p.m[n].Value, p.m[n].Unit)
	}
	failed := plain.failed + traced.failed + len(p.fails)
	return report{
		Correct:   failed == 0,
		Attempted: plain.attempted + traced.attempted + p.attempts,
		Failed:    failed,
		Metrics:   p.m,
	}, nil
}

func (p *prober) run(plain, traced loopStats) error {
	in := inputsFor(p.w.Name)
	steps := []func(layerInputs) error{p.systemProbes, p.safetyProbes, p.livenessProbes, p.serviceProbes}
	for _, f := range steps {
		if err := f(in); err != nil {
			return err
		}
		release()
	}
	if err := p.obsProbe(plain); err != nil {
		return err
	}
	base := median(plain.latMS)
	p.set("obs.trace_overhead_pct", (median(traced.latMS)-base)/base*100, "%")
	p.set("proc.cpu_s_per_job", plain.cpu.Seconds()/float64(plain.attempted), "s")
	p.set("proc.cpu_util", plain.cpu.Seconds()/(plain.interval.Seconds()*float64(runtime.NumCPU())), "ratio")
	p.set("go.alloc_mb_per_job", float64(p.jobAllocs)/(1<<20)/float64(p.jobs), "MB")
	p.set("go.gc_per_job", float64(p.jobGCs)/float64(p.jobs), "count")
	return nil
}

// systemProbes builds each system at one worker and at the default
// count (explore, parbfs), replays the TM steppers over its reachable
// states (tm), re-interns its packed keys (pack), and runs the dense
// inclusion walk for the safety inputs on it (spec, automata).
func (p *prober) systemProbes(in layerInputs) error {
	var states, edges, calls, steps, interns, fresh, kw int
	var build1, build, boxed, typed, intern time.Duration
	dfas := make(map[safetyIn]*automata.DFA)
	covered := make(map[safetyIn]bool)
	for _, s := range in.systems {
		alg, cm, err := s.build()
		if err != nil {
			return err
		}
		build1 += p.call("explore.BuildWorkers.w1", func() { explore.BuildWorkers(alg, cm, 1) })
		release()
		var ts *explore.TS
		build += p.call("explore.BuildWorkers", func() { ts = explore.BuildWorkers(alg, cm, p.workers) })
		states += ts.NumStates()
		edges += ts.NumEdges()
		r, err := replaySteps(ts, alg, cm)
		if err != nil {
			return fmt.Errorf("%v: %w", s, err)
		}
		p.tr.Begin("tm.Steps", p.root, 0, 0).endAfter(r.boxed)
		p.tr.Begin("tm.StepsP", p.root, 0, 0).endAfter(r.typed)
		calls += r.calls
		steps += r.steps
		boxed += r.boxed
		typed += r.typed
		kw = max(kw, r.kw)
		var n, f int
		intern += p.call("pack.Map.Intern", func() { n, f = internKeys(ts, r.keys, r.kw) })
		if f != ts.NumStates() {
			return fmt.Errorf("%v: re-interning found %d distinct keys, want %d states", s, f, ts.NumStates())
		}
		interns += n
		fresh += f
		for _, sin := range in.safety {
			if sin.sysIn == s {
				p.inclusion(ts, sin, dfas)
				covered[sin] = true
			}
		}
		ts, r = nil, replay{}
		release()
	}
	for _, sin := range in.safety {
		if covered[sin] {
			continue
		}
		alg, cm, err := sin.build()
		if err != nil {
			return err
		}
		var ts *explore.TS
		p.call("explore.BuildWorkers.aux", func() { ts = explore.BuildWorkers(alg, cm, p.workers) })
		p.inclusion(ts, sin, dfas)
	}
	p.set("explore.states", float64(states), "count")
	p.set("explore.edges", float64(edges), "count")
	p.set("explore.build_ms", ms(build), "ms")
	p.set("explore.states_per_s", float64(states)/build.Seconds(), "1/s")
	p.set("parbfs.speedup", build1.Seconds()/build.Seconds(), "x")
	p.set("tm.steps", float64(steps), "count")
	p.set("tm.step_ns", float64(boxed.Nanoseconds())/float64(calls), "ns")
	p.set("tm.stepp_ns", float64(typed.Nanoseconds())/float64(calls), "ns")
	p.set("pack.intern_ns", float64(intern.Nanoseconds())/float64(interns), "ns")
	p.set("pack.fresh_frac", float64(fresh)/float64(interns), "ratio")
	p.set("pack.key_words", float64(kw), "words")
	return nil
}

// inclusion enumerates Σd for sin once per (property, instance) and
// runs the dense inclusion walk of ts against it.
func (p *prober) inclusion(ts *explore.TS, sin safetyIn, dfas map[safetyIn]*automata.DFA) {
	key := safetyIn{sysIn{N: sin.N, K: sin.K}, sin.Prop}
	dfa := dfas[key]
	if dfa == nil {
		det := spec.NewDet(sin.property(), sin.N, sin.K)
		d := p.call("spec.Det.EnumerateWorkers", func() { dfa = det.EnumerateWorkers(p.workers) })
		p.add("spec.states", float64(dfa.NumStates()), "count")
		p.add("spec.enumerate_ms", ms(d), "ms")
		dfas[key] = dfa
	}
	var nfa *automata.DenseNFA
	p.call("explore.TS.DenseNFA", func() { nfa = ts.DenseNFA() })
	var ok bool
	var st automata.InclusionStats
	var err error
	d := p.call("automata.IncludedInDFADenseGuarded", func() {
		ok, _, st, err = automata.IncludedInDFADenseGuarded(nfa, dfa, guard.New(context.Background(), 0, 0))
	})
	p.attempts++
	if err == nil {
		want, known := p.answers[answerKey{sin.name(), sin.Prop, sin.N, sin.K}]
		if !known || want != ok {
			err = fmt.Errorf("dense inclusion says holds=%v (answer known=%v, holds=%v)", ok, known, want)
		}
	}
	if err != nil {
		p.fails = append(p.fails, fmt.Sprintf("automata %v %s: %v", sin.sysIn, sin.Prop, err))
	}
	p.add("automata.pairs", float64(st.PairsVisited), "count")
	p.add("automata.inclusion_ms", ms(d), "ms")
	p.set("automata.pairs_per_s", p.m["automata.pairs"].Value/(p.m["automata.inclusion_ms"].Value/1e3), "1/s")
}

func (p *prober) add(name string, v float64, unit string) {
	p.set(name, p.m[name].Value+v, unit)
}

// safetyVerdict projects a safety result for the gate.
func safetyVerdict(sin safetyIn, r safety.Result) Verdict {
	return Verdict{System: r.System, Prop: sin.Prop, N: r.Threads, K: r.Vars, Holds: r.Holds, Cex: r.Counterexample.String()}
}

// safetyProbes runs each safety input on the fly at the default worker
// count and at one worker, and materialized.
func (p *prober) safetyProbes(in layerInputs) error {
	var verify, verify1, mat time.Duration
	var tmStates, pairs, lazy, peak, cexLen, full int
	var lazyFrac float64
	for _, sin := range in.safety {
		alg, cm, err := sin.build()
		if err != nil {
			return err
		}
		run := func(name string, opts safety.Options, isJob bool) (safety.Result, time.Duration) {
			var r safety.Result
			var err error
			f := func() { r, err = safety.VerifyOpts(alg, cm, sin.property(), opts) }
			var d time.Duration
			if isJob {
				d = p.jobCall(name, f)
			} else {
				d = p.call(name, f)
			}
			p.gate(fmt.Sprintf("%s %v %s", name, sin.sysIn, sin.Prop), []Verdict{safetyVerdict(sin, r)}, err)
			release()
			return r, d
		}
		// On deep workloads the default on-the-fly check is the job's
		// whole checking work, so its span feeds the go.* metrics.
		deep := p.w.Args != nil && p.w.Args[0] == "safety"
		rd, d := run("safety.VerifyOpts", safety.Options{Workers: p.workers, Engine: safety.EngineOnTheFly}, deep)
		verify += d
		peak = max(peak, rd.FrontierPeak)
		r1, d1 := run("safety.VerifyOpts.w1", safety.Options{Workers: 1, Engine: safety.EngineOnTheFly}, false)
		verify1 += d1
		tmStates += r1.TMStates
		pairs += r1.Inclusion.PairsVisited
		lazy += r1.SpecStates
		cexLen = max(cexLen, len(r1.Counterexample))
		rm, dm := run("safety.VerifyOpts.materialized", safety.Options{Workers: p.workers, Engine: safety.EngineMaterialized}, false)
		mat += dm
		full += rm.TMStates
		lazyFrac += float64(r1.SpecStates) / float64(rm.SpecStates) / float64(len(in.safety))
	}
	p.set("safety.verify_ms", ms(verify), "ms")
	p.set("safety.verify_w1_ms", ms(verify1), "ms")
	p.set("safety.parallel_speedup", verify1.Seconds()/verify.Seconds(), "x")
	p.set("safety.materialized_ms", ms(mat), "ms")
	p.set("safety.tm_states", float64(tmStates), "count")
	p.set("safety.product_pairs", float64(pairs), "count")
	p.set("safety.frontier_peak", float64(peak), "count")
	p.set("safety.explored_frac", float64(tmStates)/float64(full), "ratio")
	p.set("safety.cex_len", float64(cexLen), "count")
	p.set("spec.lazy_states", float64(lazy), "count")
	p.set("spec.lazy_frac", lazyFrac, "ratio")
	return nil
}

// livenessVerdicts projects a Table 3 row for the gate.
func livenessVerdicts(s sysIn, row liveness.Table3Row) []Verdict {
	var vs []Verdict
	for _, r := range []liveness.Result{row.Obstruction, row.Livelock, row.Wait} {
		vs = append(vs, Verdict{System: s.name(), Prop: propKey(r.Prop), N: r.Threads, K: r.Vars, Holds: r.Holds})
	}
	return vs
}

func propKey(p liveness.Prop) string {
	switch p {
	case liveness.ObstructionFreedom:
		return "obstruction"
	case liveness.LivelockFreedom:
		return "livelock"
	}
	return "wait"
}

// livenessProbes runs all three liveness checks on the fly at the
// default worker count and at one worker, then the lasso and Streett
// searches on built systems.
func (p *prober) livenessProbes(in layerInputs) error {
	var otf, lasso, streett time.Duration
	var expanded, probes, builtExpanded, full int
	expandedOf := make(map[sysIn]int)
	for _, s := range in.liveness {
		alg, cm, err := s.build()
		if err != nil {
			return err
		}
		var row liveness.Table3Row
		f := func() { row, err = liveness.CheckAllOnTheFlyOpts(alg, cm, liveness.Options{Workers: p.workers}) }
		otf += p.call("liveness.CheckAllOnTheFlyOpts", f)
		p.gate("liveness on the fly "+s.String(), livenessVerdicts(s, row), err)
		p.call("liveness.CheckAllOnTheFlyOpts.w1", func() {
			row, err = liveness.CheckAllOnTheFlyOpts(alg, cm, liveness.Options{Workers: 1})
		})
		p.gate("liveness on the fly w1 "+s.String(), livenessVerdicts(s, row), err)
		e := max(row.Obstruction.Expanded, row.Livelock.Expanded, row.Wait.Expanded)
		expandedOf[s] = e
		expanded += e
		probes += row.Obstruction.Probes + row.Livelock.Probes + row.Wait.Probes
		release()
	}
	for _, s := range in.liveBuilt {
		alg, cm, err := s.build()
		if err != nil {
			return err
		}
		var ts *explore.TS
		p.call("explore.BuildWorkers.aux", func() { ts = explore.BuildWorkers(alg, cm, p.workers) })
		var row, srow liveness.Table3Row
		lasso += p.call("liveness.CheckFreedom", func() {
			row = liveness.Table3Row{Obstruction: liveness.CheckObstructionFreedom(ts),
				Livelock: liveness.CheckLivelockFreedom(ts), Wait: liveness.CheckWaitFreedom(ts)}
		})
		p.gate("liveness lasso "+s.String(), livenessVerdicts(s, row), nil)
		streett += p.call("liveness.CheckFreedomStreett", func() {
			srow = liveness.Table3Row{Obstruction: liveness.CheckObstructionFreedomStreett(ts),
				Livelock: liveness.CheckLivelockFreedomStreett(ts), Wait: liveness.CheckWaitFreedomStreett(ts)}
		})
		p.gate("liveness streett "+s.String(), livenessVerdicts(s, srow), nil)
		full += ts.NumStates()
		builtExpanded += expandedOf[s]
		release()
	}
	p.set("liveness.onthefly_ms", ms(otf), "ms")
	p.set("liveness.lasso_ms", ms(lasso), "ms")
	p.set("liveness.streett_ms", ms(streett), "ms")
	p.set("liveness.expanded", float64(expanded), "count")
	p.set("liveness.expanded_frac", float64(builtExpanded)/float64(full), "ratio")
	p.set("liveness.probes", float64(probes), "count")
	return nil
}

// serviceProbes measures the job, wire, jobd and snap layers on the
// service catalogue.
func (p *prober) serviceProbes(layerInputs) error {
	ctx := context.Background()
	dir := filepath.Join(p.scratch, "inproc")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	// localize maps a catalogue spec's snapshot names into dir.
	localize := func(sp job.Spec) job.Spec {
		sp.Workers = 1
		if sp.Checkpoint != "" {
			sp.Checkpoint = filepath.Join(dir, sp.Checkpoint)
		}
		if sp.Resume != "" {
			sp.Resume = filepath.Join(dir, sp.Resume)
		}
		return sp
	}
	runJob := func(name string, en Entry, cfg job.Config, jobSpan bool) (*job.Result, time.Duration) {
		var res *job.Result
		var err error
		f := func() { res, err = job.RunConfig(ctx, localize(en.Spec), cfg) }
		var d time.Duration
		if jobSpan {
			d = p.jobCall(name, f)
		} else {
			d = p.call(name, f)
		}
		var vs []Verdict
		if err == nil {
			vs, err = resultVerdicts(res)
		}
		if err == nil {
			err = p.answers.CheckAll(vs, en.Verdicts)
		}
		p.gate(name+" "+en.Name, nil, err)
		return res, d
	}

	// job: every catalogue entry in process, as the daemon runs it.
	runJob("job.RunConfig.fixture", fixtureEntry(), job.Config{}, false)
	local := make(map[string]time.Duration)
	byKind := make(map[job.Kind][]float64)
	var table2 *job.Result
	for _, en := range catalogue() {
		res, d := runJob("job.RunConfig", en, job.Config{}, p.w.Args == nil)
		local[en.Name] = d
		byKind[en.Spec.Kind] = append(byKind[en.Spec.Kind], ms(d))
		if en.Spec.Kind == job.KindTable2 {
			table2 = res
		}
	}
	p.set("job.table2_ms", median(byKind[job.KindTable2]), "ms")
	p.set("job.table3_ms", median(byKind[job.KindTable3]), "ms")
	p.set("job.safety_ms", median(byKind[job.KindSafety]), "ms")
	p.set("job.liveness_ms", median(byKind[job.KindLiveness]), "ms")

	if err := p.wireProbe(table2); err != nil {
		return err
	}
	if err := p.jobdProbe(local); err != nil {
		return err
	}
	return p.snapProbe(dir, runJob)
}

// wireProbe encodes and decodes a table2 Submit and Result through a
// wire.Conn on an in-memory pipe.
func (p *prober) wireProbe(table2 *job.Result) error {
	if table2 == nil {
		return fmt.Errorf("wire probe: no table2 result")
	}
	res := *table2
	// Zero the timings so the encoded size is an exact count.
	res.Checks = append([]job.Check(nil), table2.Checks...)
	for i := range res.Checks {
		res.Checks[i].ElapsedNS, res.Checks[i].BuildTMNS, res.Checks[i].BuildSpecNS = 0, 0, 0
	}
	var buf bytes.Buffer
	c := wire.NewConn(&buf)
	if err := c.Write(1, wire.ResultMsg{Result: &res}); err != nil {
		return fmt.Errorf("wire probe: %w", err)
	}
	p.set("wire.result_bytes", float64(buf.Len()), "bytes")
	buf.Reset()
	msgs := []wire.Msg{wire.Submit{Spec: table2.Spec}, wire.ResultMsg{Result: &res}}
	const reps = 200
	var enc, dec []float64
	for round := 0; round < 5; round++ {
		var err error
		d := p.call("wire.Conn.Write", func() {
			for i := 0; i < reps && err == nil; i++ {
				err = c.Write(uint64(i), msgs[i%2])
			}
		})
		if err != nil {
			return fmt.Errorf("wire probe: %w", err)
		}
		enc = append(enc, float64(d.Nanoseconds())/reps)
		d = p.call("wire.Conn.Read", func() {
			for i := 0; i < reps && err == nil; i++ {
				_, _, err = c.Read()
			}
		})
		if err != nil {
			return fmt.Errorf("wire probe: %w", err)
		}
		dec = append(dec, float64(d.Nanoseconds())/reps)
	}
	p.set("wire.encode_ns", median(enc), "ns")
	p.set("wire.decode_ns", median(dec), "ns")
	return nil
}

// jobdProbe submits each catalogue entry once to a fresh daemon and
// compares the client latency with the in-process one.
func (p *prober) jobdProbe(local map[string]time.Duration) error {
	d, _, err := p.serviceSetup(filepath.Join(p.scratch, "jobd-probe"))
	if err != nil {
		return err
	}
	retries := 0
	cfg := wire.RetryConfig{Attempts: 3, Logf: func(string, ...any) { retries++ }}
	var over []float64
	for i, en := range catalogue() {
		if en.Spec.Checkpoint != "" {
			en.Spec.Checkpoint = fmt.Sprintf("probe-%d.snap", i)
		}
		var res *job.Result
		var err error
		dt := p.call("wire.RunRetry", func() { res, err = wire.RunRetry(context.Background(), d.addr, en.Spec, cfg, nil) })
		var vs []Verdict
		if err == nil {
			vs, err = resultVerdicts(res)
		}
		if err == nil {
			err = p.answers.CheckAll(vs, en.Verdicts)
		}
		p.gate("jobd "+en.Name, nil, err)
		over = append(over, ms(dt)-ms(local[en.Name]))
	}
	if _, err := d.stop(); err != nil {
		return err
	}
	p.set("jobd.overhead_ms", median(over), "ms")
	p.set("wire.retries", float64(retries), "count")
	return nil
}

// snapProbe times the materialized tl2 ss job plain, checkpointed
// under each fsync policy, and resumed from a complete snapshot.
func (p *prober) snapProbe(dir string, runJob func(string, Entry, job.Config, bool) (*job.Result, time.Duration)) error {
	base := Entry{Name: "snap tl2 ss", Verdicts: 1,
		Spec: job.Spec{Kind: job.KindSafety, TM: "tl2", Prop: "ss", Engine: "materialized"}}
	const reps = 3
	timeOf := func(name string, en Entry, cfg job.Config, mk func(i int, en *Entry)) float64 {
		var ds []float64
		for i := 0; i < reps; i++ {
			e := en
			if mk != nil {
				mk(i, &e)
			}
			_, d := runJob(name, e, cfg, false)
			ds = append(ds, ms(d))
		}
		return median(ds)
	}
	plain := timeOf("snap.plain", base, job.Config{}, nil)
	for _, mode := range []struct {
		name string
		sync snap.SyncMode
	}{{"always", snap.SyncAlways}, {"batch", snap.SyncBatch}, {"none", snap.SyncNone}} {
		d := timeOf("snap.checkpoint."+mode.name, base, job.Config{SnapSync: mode.sync, SnapBatch: 8}, func(i int, e *Entry) {
			e.Spec.Checkpoint = fmt.Sprintf("snap-%s-%d.snap", mode.name, i)
		})
		p.set("snap.ckpt_overhead_pct."+mode.name, (d-plain)/plain*100, "%")
	}
	fi, err := os.Stat(filepath.Join(dir, "snap-always-0.snap"))
	if err != nil {
		return fmt.Errorf("snap probe: %w", err)
	}
	p.set("snap.bytes", float64(fi.Size()), "bytes")
	resumed := timeOf("snap.resume", base, job.Config{}, func(_ int, e *Entry) { e.Spec.Resume = "snap-always-0.snap" })
	p.set("snap.resume_ms", resumed, "ms")
	p.set("snap.resume_speedup", plain/resumed, "x")
	return nil
}

// obsProbe times the workload's job with the -stats registry on and
// compares it with the untraced loop (registry off). service-mix uses
// table2 at one worker, the daemon's setting, in both states.
func (p *prober) obsProbe(plain loopStats) error {
	run := func(args []string, parse func(string) ([]Verdict, error)) localResult {
		var r localResult
		p.call("tmcheck.stats", func() { r = p.runTmcheck(args, parse) })
		return r
	}
	if p.w.Args != nil {
		r := run(append([]string{"-stats"}, p.w.Args...), p.w.parse)
		p.gate("obs -stats "+p.w.Name, r.verdict, r.err)
		base := median(plain.latMS)
		p.set("obs.stats_overhead_pct", (ms(r.lat)-base)/base*100, "%")
		return nil
	}
	parse := func(string) ([]Verdict, error) { return nil, nil }
	var on, off []float64
	for i := 0; i < 3; i++ {
		for _, stats := range []bool{false, true} {
			args := []string{"-workers", "1", "table2"}
			if stats {
				args = append([]string{"-stats"}, args...)
			}
			r := run(args, parse)
			p.gate("obs table2", nil, r.err)
			if stats {
				on = append(on, ms(r.lat))
			} else {
				off = append(off, ms(r.lat))
			}
		}
	}
	p.set("obs.stats_overhead_pct", (median(on)-median(off))/median(off)*100, "%")
	return nil
}

// replay is the result of replaySteps.
type replay struct {
	calls, steps int
	boxed, typed time.Duration
	keys         []uint64 // packed product key of every state, kw words each
	kw           int
}

// replaySteps calls the boxed Steps and the typed StepsP of alg for
// every (command, thread) pair the explorer would expand in each
// reachable state of ts, and packs each state's product key exactly as
// the packed explorer lays it out.
func replaySteps(ts *explore.TS, alg tm.Algorithm, cm tm.ContentionManager) (replay, error) {
	switch a := alg.(type) {
	case tm.Packed[tm.TL2State]:
		return replayTyped(ts, a, cm)
	case tm.Packed[tm.TwoPLState]:
		return replayTyped(ts, a, cm)
	case tm.Packed[tm.DSTMState]:
		return replayTyped(ts, a, cm)
	case tm.Packed[tm.NOrecState]:
		return replayTyped(ts, a, cm)
	case tm.Packed[tm.ETLState]:
		return replayTyped(ts, a, cm)
	case tm.Packed[tm.SeqState]:
		return replayTyped(ts, a, cm)
	}
	return replay{}, fmt.Errorf("%s has no typed stepper", alg.Name())
}

// pendBits mirrors the packed explorer's per-thread pending field: one
// active bit, two op bits, four variable bits.
const pendBits = 7

func replayTyped[S comparable](ts *explore.TS, a tm.Packed[S], cm tm.ContentionManager) (replay, error) {
	if a.PackedFor() != a.Name() {
		return replay{}, fmt.Errorf("%s: typed stepper belongs to %s", a.Name(), a.PackedFor())
	}
	pcm, ok := tm.PackCM(cm)
	if !ok {
		return replay{}, fmt.Errorf("%s: contention manager does not pack", cm.Name())
	}
	cmBits := 0
	cmWord := make(map[tm.State]uint64)
	if pcm != nil {
		cmBits = pcm.CMBits()
		if cmBits > 16 {
			return replay{}, fmt.Errorf("%s: manager state too wide to invert", cm.Name())
		}
		for w := uint64(0); w < 1<<cmBits; w++ {
			cmWord[pcm.DecodeCM(w)] = w
		}
	}
	n := a.Threads()
	cmds := core.Alphabet{Threads: n, Vars: a.Vars()}.Commands()
	r := replay{kw: pack.WordsFor(a.StateBits() + n*pendBits + cmBits)}
	N := ts.NumStates()
	r.keys = make([]uint64, N*r.kw)
	type pend struct {
		active bool
		c      core.Command
	}
	const batch = 4096
	qb := make([]tm.State, 0, batch)
	qt := make([]S, 0, batch)
	pd := make([][tm.MaxThreads]pend, 0, batch)
	noop := func(tm.XCmd, tm.Resp, S) {}
	var w pack.Writer
	stepsP := 0
	for lo := 0; lo < N; lo += batch {
		qb, qt, pd = qb[:0], qt[:0], pd[:0]
		for i := lo; i < min(lo+batch, N); i++ {
			st := ts.StateAt(int32(i))
			q := st.TM.(S)
			qb, qt = append(qb, st.TM), append(qt, q)
			w.Reset(r.keys[i*r.kw : (i+1)*r.kw])
			a.EncodeState(q, &w)
			var pp [tm.MaxThreads]pend
			for t := 0; t < n; t++ {
				pp[t] = pend{st.Pending[t].Active, st.Pending[t].C}
				if pp[t].active {
					w.Put(1|uint64(pp[t].c.Op)<<1|uint64(pp[t].c.V)<<3, pendBits)
				} else {
					w.Put(0, pendBits)
				}
			}
			if cmBits > 0 {
				w.Put(cmWord[st.CM], uint(cmBits))
			}
			pd = append(pd, pp)
		}
		t0 := time.Now()
		for j, q := range qb {
			for t := 0; t < n; t++ {
				th := core.Thread(t)
				if pd[j][t].active {
					r.steps += len(a.Steps(q, pd[j][t].c, th))
					r.calls++
					continue
				}
				for _, c := range cmds {
					r.steps += len(a.Steps(q, c, th))
				}
				r.calls += len(cmds)
			}
		}
		t1 := time.Now()
		for j, q := range qt {
			for t := 0; t < n; t++ {
				th := core.Thread(t)
				if pd[j][t].active {
					stepsP += a.StepsP(q, pd[j][t].c, th, noop)
					continue
				}
				for _, c := range cmds {
					stepsP += a.StepsP(q, c, th, noop)
				}
			}
		}
		r.boxed += t1.Sub(t0)
		r.typed += time.Since(t1)
	}
	if stepsP != r.steps {
		return replay{}, fmt.Errorf("%s: StepsP yielded %d steps, Steps returned %d", a.Name(), stepsP, r.steps)
	}
	return r, nil
}

// internKeys re-interns the product keys in the sequential explorer's
// order — the initial key, then every edge target in state order —
// into a fresh pack.Map, returning the Intern calls and fresh ids.
func internKeys(ts *explore.TS, keys []uint64, kw int) (calls, fresh int) {
	m := pack.NewMap(kw, 1024)
	intern := func(i int32) {
		calls++
		if _, f := m.Intern(keys[int(i)*kw : (int(i)+1)*kw]); f {
			fresh++
		}
	}
	intern(0)
	for _, out := range ts.Out {
		for _, e := range out {
			intern(e.To)
		}
	}
	return calls, fresh
}

// exactCounts are the per-layer counts that must repeat exactly across
// runs of the same code (all measured at a fixed worker count).
var exactCounts = []string{"explore.states", "spec.states", "spec.lazy_states", "safety.tm_states",
	"safety.product_pairs", "liveness.expanded", "liveness.probes", "snap.bytes", "wire.result_bytes"}

// checkCounts compares the exact counts with the ones recorded in
// tmbench/baseline.json and flags every change.
func checkCounts(root, workload string, m map[string]metric) {
	data, err := os.ReadFile(filepath.Join(root, "tmbench", "baseline.json"))
	if err != nil {
		fmt.Printf("exact counts: no baseline to compare with (%v)\n", err)
		return
	}
	var b struct {
		Workloads map[string]struct {
			Counts map[string]float64 `json:"counts"`
		} `json:"workloads"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		fmt.Printf("exact counts: baseline.json: %v\n", err)
		return
	}
	want := b.Workloads[workload].Counts
	var changed []string
	for _, name := range exactCounts {
		if w, ok := want[name]; !ok || w != m[name].Value {
			changed = append(changed, fmt.Sprintf("%s: baseline %v, now %v", name, w, m[name].Value))
		}
	}
	if len(changed) == 0 {
		fmt.Printf("exact counts: all %d match the baseline\n", len(exactCounts))
		return
	}
	fmt.Printf("exact counts: COUNT CHANGED vs baseline:\n  %s\n", strings.Join(changed, "\n  "))
}
