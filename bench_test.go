// Benchmark harness: one benchmark (or family) per table and figure of the
// paper, so every reported experiment can be regenerated and timed:
//
//	Table 1  – BenchmarkTable1Runs
//	Table 2  – BenchmarkTable2Build, BenchmarkTable2Inclusion,
//	           BenchmarkTable2EndToEnd
//	Table 3  – BenchmarkTable3Liveness
//	§5.3     – BenchmarkSpecEnumerate, BenchmarkSpecEquivalence (Theorem 3)
//	Figures 1–3 – BenchmarkFigureOracle (oracle classification of the
//	           example words), BenchmarkSpecMembership
//
// Ablations: BenchmarkAntichainVsDeterministic compares the two inclusion
// pipelines; BenchmarkOracleVsBrute compares the conflict-graph oracle
// against brute-force serialization search.
package tmcheck_test

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"tmcheck/internal/automata"
	"tmcheck/internal/core"
	"tmcheck/internal/explore"
	"tmcheck/internal/liveness"
	stmruntime "tmcheck/internal/runtime"
	"tmcheck/internal/safety"
	"tmcheck/internal/spec"
	"tmcheck/internal/tm"
	"tmcheck/internal/wordgen"
)

// --- Table 1 ---

func BenchmarkTable1Runs(b *testing.B) {
	systems := make([]*explore.TS, len(explore.Table1Scenarios))
	for i, sc := range explore.Table1Scenarios {
		systems[i] = explore.BuildWorkers(sc.Alg(), nil, runtime.GOMAXPROCS(0))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j, sc := range explore.Table1Scenarios {
			run := systems[j].RunProgram(sc.Schedule, sc.Programs)
			if len(run) == 0 {
				b.Fatal("empty run")
			}
		}
	}
}

// --- Table 2 ---

func table2Systems() []safety.System { return safety.PaperSystems(2, 2) }

func BenchmarkTable2Build(b *testing.B) {
	for _, sys := range table2Systems() {
		sys := sys
		name := sys.Alg.Name()
		if sys.CM != nil {
			name += "+" + sys.CM.Name()
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ts := explore.BuildWorkers(sys.Alg, sys.CM, runtime.GOMAXPROCS(0))
				if ts.NumStates() == 0 {
					b.Fatal("empty system")
				}
			}
		})
	}
}

func BenchmarkTable2Inclusion(b *testing.B) {
	dfas := map[spec.Property]*automata.DFA{
		spec.StrictSerializability: spec.NewDet(spec.StrictSerializability, 2, 2).EnumerateWorkers(runtime.GOMAXPROCS(0)),
		spec.Opacity:               spec.NewDet(spec.Opacity, 2, 2).EnumerateWorkers(runtime.GOMAXPROCS(0)),
	}
	for _, sys := range table2Systems() {
		ts := explore.BuildWorkers(sys.Alg, sys.CM, runtime.GOMAXPROCS(0))
		for _, prop := range []spec.Property{spec.StrictSerializability, spec.Opacity} {
			prop := prop
			suffix := "ss"
			if prop == spec.Opacity {
				suffix = "op"
			}
			b.Run(ts.Name()+"/"+suffix, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					res := safety.CheckAgainstDFA(ts, prop, dfas[prop])
					if res.Holds == (ts.Alg.Name() == "modtl2") {
						b.Fatalf("unexpected verdict for %s", ts.Name())
					}
				}
			})
		}
	}
}

func BenchmarkTable2EndToEnd(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := safety.Table2(table2Systems(), safety.Options{Engine: safety.EngineMaterialized})
		if len(rows) != 5 {
			b.Fatal("wrong row count")
		}
	}
}

// engineCases are the representative checks the engine comparison runs:
// a passing opacity check, the heaviest passing (2,2) check, and the
// failing modified TL2 where the on-the-fly engine early-exits.
var engineCases = []struct {
	name  string
	sys   func() safety.System
	prop  spec.Property
	holds bool
}{
	{"dstm-op", func() safety.System { return safety.System{Alg: tm.NewDSTM(2, 2)} }, spec.Opacity, true},
	{"tl2-ss", func() safety.System { return safety.System{Alg: tm.NewTL2(2, 2)} }, spec.StrictSerializability, true},
	{"modtl2+polite-ss", func() safety.System { return safety.System{Alg: tm.NewTL2Mod(2, 2), CM: tm.Polite{}} }, spec.StrictSerializability, false},
}

// BenchmarkEngines compares the materialized build-then-check pipeline
// against the on-the-fly product search end to end (construction
// included, single worker), plus the on-the-fly search at GOMAXPROCS
// workers ("onthefly-par", its TM stage on goroutines of its own). The
// allocation columns show the memory story: on-the-fly never
// materializes the spec DFA or the TM NFA.
func BenchmarkEngines(b *testing.B) {
	for _, c := range engineCases {
		sys := c.sys()
		for _, e := range engineRows(runtime.GOMAXPROCS(0)) {
			e := e
			b.Run(c.name+"/"+e.name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					res, err := safety.VerifyOpts(sys.Alg, sys.CM, c.prop, e.opts)
					if err != nil {
						b.Fatal(err)
					}
					if res.Holds != c.holds {
						b.Fatalf("%s/%s: holds = %v, want %v", c.name, e.name, res.Holds, c.holds)
					}
				}
			})
		}
	}
}

// engineRows are the BenchmarkEngines columns: each engine at one
// worker, then on-the-fly at the given worker count.
func engineRows(workers int) []struct {
	name string
	opts safety.Options
} {
	return []struct {
		name string
		opts safety.Options
	}{
		{"materialized", safety.Options{Workers: 1, Engine: safety.EngineMaterialized}},
		{"onthefly", safety.Options{Workers: 1, Engine: safety.EngineOnTheFly}},
		{"onthefly-par", safety.Options{Workers: workers, Engine: safety.EngineOnTheFly}},
	}
}

// --- Table 3 ---

func BenchmarkTable3Liveness(b *testing.B) {
	for _, sys := range liveness.PaperSystems(2, 1) {
		ts := explore.BuildWorkers(sys.Alg, sys.CM, runtime.GOMAXPROCS(0))
		b.Run(ts.Name()+"/obstruction", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				liveness.CheckObstructionFreedom(ts)
			}
		})
		b.Run(ts.Name()+"/livelock", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				liveness.CheckLivelockFreedom(ts)
			}
		})
	}
}

// livenessEngineCases are the representative liveness checks the engine
// comparison runs: a holding property (the on-the-fly engine must reach
// the fixpoint anyway), and two early failures where it stops after a
// fraction of the exploration.
var livenessEngineCases = []struct {
	name  string
	sys   func() (tm.Algorithm, tm.ContentionManager)
	prop  liveness.Prop
	holds bool
}{
	{"dstm+aggressive-obstruction", func() (tm.Algorithm, tm.ContentionManager) { return tm.NewDSTM(2, 1), tm.Aggressive{} }, liveness.ObstructionFreedom, true},
	{"tl2+polite-obstruction", func() (tm.Algorithm, tm.ContentionManager) { return tm.NewTL2(2, 1), tm.Polite{} }, liveness.ObstructionFreedom, false},
	{"dstm+aggressive-livelock", func() (tm.Algorithm, tm.ContentionManager) { return tm.NewDSTM(2, 1), tm.Aggressive{} }, liveness.LivelockFreedom, false},
}

// BenchmarkLivenessEngines compares the materialized build-then-check
// liveness pipeline against the on-the-fly lasso search end to end
// (construction included, single worker). The allocation columns show
// the early-exit win on the failing checks: the lazy engine never
// materializes the states past the violating prefix.
func BenchmarkLivenessEngines(b *testing.B) {
	for _, c := range livenessEngineCases {
		alg, cm := c.sys()
		b.Run(c.name+"/materialized", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				ts := explore.BuildWorkers(alg, cm, 1)
				var res liveness.Result
				switch c.prop {
				case liveness.ObstructionFreedom:
					res = liveness.CheckObstructionFreedom(ts)
				default:
					res = liveness.CheckLivelockFreedom(ts)
				}
				if res.Holds != c.holds {
					b.Fatalf("%s: holds = %v, want %v", c.name, res.Holds, c.holds)
				}
			}
		})
		b.Run(c.name+"/onthefly", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := liveness.CheckOnTheFlyOpts(alg, cm, c.prop, liveness.Options{Workers: 1})
				if err != nil {
					b.Fatal(err)
				}
				if res.Holds != c.holds {
					b.Fatalf("%s: holds = %v, want %v", c.name, res.Holds, c.holds)
				}
			}
		})
	}
}

// --- §5.3: specification construction and Theorem 3 ---

func BenchmarkSpecEnumerate(b *testing.B) {
	b.Run("nondet/ss", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			spec.NewNondet(spec.StrictSerializability, 2, 2).Enumerate()
		}
	})
	b.Run("nondet/op", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			spec.NewNondet(spec.Opacity, 2, 2).Enumerate()
		}
	})
	b.Run("det/ss", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			spec.NewDet(spec.StrictSerializability, 2, 2).EnumerateWorkers(runtime.GOMAXPROCS(0))
		}
	})
	b.Run("det/op", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			spec.NewDet(spec.Opacity, 2, 2).EnumerateWorkers(runtime.GOMAXPROCS(0))
		}
	})
}

func BenchmarkSpecEquivalence(b *testing.B) {
	for _, prop := range []spec.Property{spec.StrictSerializability, spec.Opacity} {
		prop := prop
		name := "ss"
		if prop == spec.Opacity {
			name = "op"
		}
		nd := spec.NewNondet(prop, 2, 2).Enumerate()
		dt := spec.NewDet(prop, 2, 2).EnumerateWorkers(runtime.GOMAXPROCS(0))
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				equal, _, _ := automata.EquivalentNFADFA(nd, dt)
				if !equal {
					b.Fatal("Theorem 3 violated")
				}
			}
		})
	}
}

func BenchmarkSpecMinimize(b *testing.B) {
	dt := spec.NewDet(spec.Opacity, 2, 2).EnumerateWorkers(runtime.GOMAXPROCS(0))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dt.Minimize()
	}
}

// --- Figures 1–3: word classification ---

var figureWords = []string{
	"(w,1)2, (r,1)1, (r,2)3, c2, (w,2)1, (r,1)3, c1, c3",
	"(w,1)2, (r,2)2, (r,3)3, (r,1)1, c2, (w,2)3, (w,3)1, c1, c3",
	"(w,1)2, (r,1)1, (r,2)3, c2, (w,2)1, (r,1)3, c1",
	"(w,1)2, (r,1)1, c2, (r,2)3, a3, (w,2)1, c1",
	"(w,2)1, (w,1)2, (r,2)2, (r,1)1, c2, c1",
}

func BenchmarkFigureOracle(b *testing.B) {
	words := make([]core.Word, len(figureWords))
	for i, s := range figureWords {
		words[i] = core.MustParseWord(s)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, w := range words {
			core.IsStrictlySerializable(w)
			core.IsOpaque(w)
		}
	}
}

func BenchmarkSpecMembership(b *testing.B) {
	nd := spec.NewNondet(spec.Opacity, 3, 3)
	words := make([]core.Word, len(figureWords))
	for i, s := range figureWords {
		words[i] = core.MustParseWord(s)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, w := range words {
			nd.Accepts(w)
		}
	}
}

// --- Ablations ---

// BenchmarkAntichainVsDeterministic compares the paper's deterministic
// pipeline (linear product) against direct antichain inclusion in the
// nondeterministic specification, on DSTM/opacity.
func BenchmarkAntichainVsDeterministic(b *testing.B) {
	ts := explore.BuildWorkers(tm.NewDSTM(2, 2), nil, runtime.GOMAXPROCS(0))
	dfa := spec.NewDet(spec.Opacity, 2, 2).EnumerateWorkers(runtime.GOMAXPROCS(0))
	nfa := spec.NewNondet(spec.Opacity, 2, 2).Enumerate()
	tmNFA := ts.NFA()
	b.Run("deterministic-product", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ok, _ := automata.IncludedInDFA(tmNFA, dfa)
			if !ok {
				b.Fatal("inclusion must hold")
			}
		}
	})
	b.Run("antichain", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ok, _ := automata.IncludedInNFA(tmNFA, nfa)
			if !ok {
				b.Fatal("inclusion must hold")
			}
		}
	})
}

// BenchmarkOracleVsBrute compares the conflict-graph oracle against the
// exhaustive serialization search on short random words.
func BenchmarkOracleVsBrute(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	words := make([]core.Word, 64)
	for i := range words {
		words[i] = wordgen.WellFormed(rng, wordgen.Config{Threads: 3, Vars: 3, Len: 9})
	}
	b.Run("conflict-graph", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, w := range words {
				core.IsOpaque(w)
			}
		}
	})
	b.Run("brute-force", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, w := range words {
				core.IsOpaqueBrute(w)
			}
		}
	})
}

// BenchmarkScaling sweeps the instance dimensions, showing how the
// transition systems and the check grow with threads and variables — the
// reason the reduction theorem matters.
func BenchmarkScaling(b *testing.B) {
	// Larger instances grow steeply — (2,3) takes seconds and (3,2) close
	// to a minute — so the regular sweep stops at the sizes the reduction
	// theorems actually require; the (2,3) case runs only without -short.
	for _, dims := range [][2]int{{2, 1}, {2, 2}, {3, 1}, {2, 3}} {
		n, k := dims[0], dims[1]
		expensive := n == 2 && k == 3
		b.Run(benchName(n, k), func(b *testing.B) {
			if expensive && testing.Short() {
				b.Skip("skipping expensive (2,3) instance in -short mode")
			}
			for i := 0; i < b.N; i++ {
				ts := explore.BuildWorkers(tm.NewDSTM(n, k), nil, runtime.GOMAXPROCS(0))
				dfa := spec.NewDet(spec.Opacity, n, k).EnumerateWorkers(runtime.GOMAXPROCS(0))
				res := safety.CheckAgainstDFA(ts, spec.Opacity, dfa)
				if !res.Holds {
					b.Fatalf("dstm unsafe at (%d,%d)?", n, k)
				}
			}
		})
	}
}

func benchName(n, k int) string {
	return fmt.Sprintf("dstm-%dt%dv", n, k)
}

// --- Extensions beyond the paper ---

// BenchmarkExtensionTMs times the opacity check for the two extension TMs
// (NOrec, encounter-time locking).
func BenchmarkExtensionTMs(b *testing.B) {
	dfa := spec.NewDet(spec.Opacity, 2, 2).EnumerateWorkers(runtime.GOMAXPROCS(0))
	for _, alg := range []tm.Algorithm{tm.NewNOrec(2, 2), tm.NewETL(2, 2)} {
		ts := explore.BuildWorkers(alg, nil, runtime.GOMAXPROCS(0))
		b.Run(alg.Name(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res := safety.CheckAgainstDFA(ts, spec.Opacity, dfa)
				if !res.Holds {
					b.Fatal("extension TM unexpectedly unsafe")
				}
			}
		})
	}
}

// BenchmarkStreettVsLoopSearch compares the two liveness backends.
func BenchmarkStreettVsLoopSearch(b *testing.B) {
	ts := explore.BuildWorkers(tm.NewDSTM(2, 2), tm.Aggressive{}, runtime.GOMAXPROCS(0))
	b.Run("loop-search", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			liveness.CheckLivelockFreedom(ts)
		}
	})
	b.Run("streett", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			liveness.CheckLivelockFreedomStreett(ts)
		}
	})
}

// BenchmarkMonitor measures the online monitor's per-statement cost.
func BenchmarkMonitor(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	words := make([]core.Word, 32)
	for i := range words {
		words[i] = wordgen.WellFormed(rng, wordgen.Config{Threads: 3, Vars: 3, Len: 64})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := spec.NewMonitor(spec.Opacity, 3, 3)
		m.Feed(words[i%len(words)])
	}
}

// BenchmarkRuntimeSTM measures end-to-end transactional throughput of the
// executable STMs under the transfer workload (including trace recording).
func BenchmarkRuntimeSTM(b *testing.B) {
	for _, mk := range []struct {
		name string
		make func(*stmruntime.Recorder) stmruntime.STM
	}{
		{"tl2", func(r *stmruntime.Recorder) stmruntime.STM { return stmruntime.NewTL2STM(4, r) }},
		{"dstm", func(r *stmruntime.Recorder) stmruntime.STM { return stmruntime.NewDSTMSTM(4, r) }},
		{"glock", func(r *stmruntime.Recorder) stmruntime.STM { return stmruntime.NewGLockSTM(4, r) }},
	} {
		mk := mk
		b.Run(mk.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rec := &stmruntime.Recorder{}
				stm := mk.make(rec)
				if sum := stmruntime.RunTransfers(stm, 4, 4, 25, 10, int64(i), 100); sum != 400 {
					b.Fatalf("sum = %d", sum)
				}
			}
		})
	}
}

// BenchmarkWitness measures witness-order extraction on the figure words.
func BenchmarkWitness(b *testing.B) {
	words := make([]core.Word, len(figureWords))
	for i, s := range figureWords {
		words[i] = core.MustParseWord(s)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, w := range words {
			core.SerializationWitness(w, true, core.DeferredUpdate)
		}
	}
}

// BenchmarkCountWords measures the permissiveness DP on the opacity
// specification.
func BenchmarkCountWords(b *testing.B) {
	dfa := spec.NewDet(spec.Opacity, 2, 2).EnumerateWorkers(runtime.GOMAXPROCS(0))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		automata.CountWords(dfa, 12)
	}
}

// BenchmarkRuntimeScalability sweeps goroutine counts on the executable
// TL2, measuring contention behaviour of the real implementation.
func BenchmarkRuntimeScalability(b *testing.B) {
	for _, g := range []int{1, 2, 4, 8} {
		g := g
		b.Run(fmt.Sprintf("tl2-%dgoroutines", g), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rec := &stmruntime.Recorder{}
				stm := stmruntime.NewTL2STM(8, rec)
				stmruntime.RunTransfers(stm, 8, g, 50, 20, int64(i), 100)
			}
		})
	}
}
