// Command benchjson records the benchmark baseline of the checker: it
// runs the key Table 2, engine-comparison and scaling benchmarks
// in-process (the same workloads as bench_test.go's BenchmarkTable2Build,
// BenchmarkTable2EndToEnd, BenchmarkEngines, BenchmarkLivenessEngines
// and BenchmarkScaling) and writes a
// BENCH_<n>.json file with ns/op per benchmark, so the perf trajectory
// across commits is committed next to the code it measures.
//
// Usage:
//
//	benchjson [-o FILE] [-workers N] [-full]
//	benchjson -diff [-regress-pct P] [-alloc-regress-pct P] OLD.json NEW.json
//
// Without -o the tool picks the next free BENCH_<n>.json in the current
// directory. -workers pins the parallel-engine worker count (default
// GOMAXPROCS); the recorded file notes the setting, along with the
// host's runtime.NumCPU() and the effective GOMAXPROCS, so baselines
// from different machines stay interpretable. -full adds the expensive
// (2,3) scaling instance.
//
// -diff compares two recorded files instead of running anything: it
// prints the per-benchmark ns/op and allocs/op movement and exits
// nonzero when any benchmark present in both regressed its ns/op by
// more than -regress-pct percent (default 10) or its allocs/op or
// bytes/op by more than -alloc-regress-pct percent (default 25;
// negative disables the allocation gate).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"testing"

	"tmcheck/internal/explore"
	"tmcheck/internal/liveness"
	"tmcheck/internal/parbfs"
	"tmcheck/internal/safety"
	"tmcheck/internal/spec"
	"tmcheck/internal/tm"
)

// benchSchema identifies the trajectory file layout.
const benchSchema = "tmcheck/bench/v1"

// report is the trajectory file schema ("tmcheck/bench/v1").
type report struct {
	Schema     string  `json:"schema"`
	Note       string  `json:"note,omitempty"`
	GoVersion  string  `json:"go_version"`
	GOOS       string  `json:"goos"`
	GOARCH     string  `json:"goarch"`
	NumCPU     int     `json:"num_cpu"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Workers    int     `json:"workers"`
	Benchmarks []entry `json:"benchmarks"`
}

type entry struct {
	Name        string  `json:"name"`
	N           int     `json:"n"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
}

func main() {
	out := flag.String("o", "", "output file (default: next free BENCH_<n>.json)")
	workersFlag := flag.Int("workers", 0, "parallel-engine workers (default GOMAXPROCS)")
	full := flag.Bool("full", false, "include the expensive (2,3) scaling instance")
	note := flag.String("note", "", "free-form annotation recorded in the file")
	diffMode := flag.Bool("diff", false, "compare two recorded files: benchjson -diff OLD.json NEW.json")
	regressPct := flag.Float64("regress-pct", 10, "with -diff: fail when any ns/op regressed by more than this percent")
	allocRegressPct := flag.Float64("alloc-regress-pct", 25, "with -diff: fail when any allocs/op or bytes/op regressed by more than this percent (negative disables)")
	flag.Parse()

	if *diffMode {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "benchjson: -diff needs exactly two files: benchjson -diff OLD.json NEW.json")
			os.Exit(2)
		}
		code, err := runDiff(os.Stdout, flag.Arg(0), flag.Arg(1), *regressPct, *allocRegressPct)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(2)
		}
		os.Exit(code)
	}

	workers := parbfs.ResolveWorkers(*workersFlag)
	rep := report{
		Schema:     benchSchema,
		Note:       *note,
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Workers:    workers,
	}
	for _, bm := range benchmarks(*full, workers) {
		fmt.Fprintf(os.Stderr, "running %s...\n", bm.name)
		r := testing.Benchmark(bm.fn)
		rep.Benchmarks = append(rep.Benchmarks, entry{
			Name:        bm.name,
			N:           r.N,
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			AllocsPerOp: r.AllocsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
		})
	}

	path := *out
	if path == "" {
		path = nextFree()
	}
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	err = enc.Encode(rep)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	fmt.Printf("wrote %s (%d benchmarks)\n", path, len(rep.Benchmarks))
}

// nextFree returns the first BENCH_<n>.json that does not exist yet.
func nextFree() string {
	for n := 0; ; n++ {
		path := fmt.Sprintf("BENCH_%d.json", n)
		if _, err := os.Stat(path); os.IsNotExist(err) {
			return path
		}
	}
}

type namedBench struct {
	name string
	fn   func(b *testing.B)
}

// benchmarks mirrors the bench_test.go workloads that track the
// checker's end-to-end performance; workers is the -workers count the
// builds, enumerations and Table 2 driver run with.
func benchmarks(full bool, workers int) []namedBench {
	var bms []namedBench
	for _, sys := range safety.PaperSystems(2, 2) {
		sys := sys
		name := sys.Alg.Name()
		if sys.CM != nil {
			name += "+" + sys.CM.Name()
		}
		bms = append(bms, namedBench{
			name: "Table2Build/" + name,
			fn: func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					ts := explore.BuildWorkers(sys.Alg, sys.CM, workers)
					if ts.NumStates() == 0 {
						b.Fatal("empty system")
					}
				}
			},
		})
	}
	bms = append(bms, namedBench{
		name: "Table2EndToEnd",
		fn: func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rows := safety.Table2(safety.PaperSystems(2, 2), safety.Options{Workers: workers, Engine: safety.EngineMaterialized})
				if len(rows) != 5 {
					b.Fatal("wrong row count")
				}
			}
		},
	})
	engineCases := []struct {
		name string
		sys  safety.System
		prop spec.Property
	}{
		{"dstm-op", safety.System{Alg: tm.NewDSTM(2, 2)}, spec.Opacity},
		{"tl2-ss", safety.System{Alg: tm.NewTL2(2, 2)}, spec.StrictSerializability},
		{"modtl2+polite-ss", safety.System{Alg: tm.NewTL2Mod(2, 2), CM: tm.Polite{}}, spec.StrictSerializability},
	}
	// Each engine at one worker, then on-the-fly at the -workers count.
	engineRows := []struct {
		name string
		opts safety.Options
	}{
		{"materialized", safety.Options{Workers: 1, Engine: safety.EngineMaterialized}},
		{"onthefly", safety.Options{Workers: 1, Engine: safety.EngineOnTheFly}},
		{"onthefly-par", safety.Options{Workers: workers, Engine: safety.EngineOnTheFly}},
	}
	for _, c := range engineCases {
		c := c
		for _, e := range engineRows {
			e := e
			bms = append(bms, namedBench{
				name: "Engines/" + c.name + "/" + e.name,
				fn: func(b *testing.B) {
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						if _, err := safety.VerifyOpts(c.sys.Alg, c.sys.CM, c.prop, e.opts); err != nil {
							b.Fatal(err)
						}
					}
				},
			})
		}
	}
	livenessCases := []struct {
		name string
		alg  tm.Algorithm
		cm   tm.ContentionManager
		prop liveness.Prop
	}{
		{"dstm+aggressive-obstruction", tm.NewDSTM(2, 1), tm.Aggressive{}, liveness.ObstructionFreedom},
		{"tl2+polite-obstruction", tm.NewTL2(2, 1), tm.Polite{}, liveness.ObstructionFreedom},
		{"dstm+aggressive-livelock", tm.NewDSTM(2, 1), tm.Aggressive{}, liveness.LivelockFreedom},
	}
	for _, c := range livenessCases {
		c := c
		bms = append(bms,
			namedBench{
				name: "LivenessEngines/" + c.name + "/materialized",
				fn: func(b *testing.B) {
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						ts := explore.BuildWorkers(c.alg, c.cm, 1)
						if c.prop == liveness.ObstructionFreedom {
							liveness.CheckObstructionFreedom(ts)
						} else {
							liveness.CheckLivelockFreedom(ts)
						}
					}
				},
			},
			namedBench{
				name: "LivenessEngines/" + c.name + "/onthefly",
				fn: func(b *testing.B) {
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						if _, err := liveness.CheckOnTheFlyOpts(c.alg, c.cm, c.prop, liveness.Options{Workers: 1}); err != nil {
							b.Fatal(err)
						}
					}
				},
			})
	}
	dims := [][2]int{{2, 1}, {2, 2}, {3, 1}}
	if full {
		dims = append(dims, [2]int{2, 3})
	}
	for _, d := range dims {
		n, k := d[0], d[1]
		bms = append(bms, namedBench{
			name: fmt.Sprintf("Scaling/dstm-%dt%dv", n, k),
			fn: func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					ts := explore.BuildWorkers(tm.NewDSTM(n, k), nil, workers)
					dfa := spec.NewDet(spec.Opacity, n, k).EnumerateWorkers(workers)
					res := safety.CheckAgainstDFA(ts, spec.Opacity, dfa)
					if !res.Holds {
						b.Fatalf("dstm unsafe at (%d,%d)?", n, k)
					}
				}
			},
		})
	}
	return bms
}
