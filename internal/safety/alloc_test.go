//go:build !race

package safety

import (
	"testing"

	"tmcheck/internal/automata"
	"tmcheck/internal/explore"
	"tmcheck/internal/spec"
	"tmcheck/internal/tm"
)

// allocCases are the (2,2) checks the allocation gates run: a passing
// opacity check, a passing strict-serializability check, and a failing
// one.
var allocCases = []struct {
	name string
	alg  tm.Algorithm
	cm   tm.ContentionManager
	prop spec.Property
}{
	{"dstm op", tm.NewDSTM(2, 2), nil, spec.Opacity},
	{"tl2 ss", tm.NewTL2(2, 2), nil, spec.StrictSerializability},
	{"modtl2+polite ss", tm.NewTL2Mod(2, 2), tm.Polite{}, spec.StrictSerializability},
}

// TestOnTheFlyAllocsPerPair pins the packed on-the-fly product: a check
// must amortize to fewer than one heap allocation per product pair, at
// one worker and at two. Pairs are one-word keys in a flat table behind
// a per-TM-state first-partner column, TM edges live in a chunked arena
// located by one pointer-free word per state, and Σd steps are a flat
// memo that grows one row per append, so allocation comes only from the
// growth of these arrays; any return to per-pair boxing, per-state edge
// slices or per-step scratch trips the bound.
//
// Race builds skip this file: the detector instruments allocations and
// the count is not meaningful there. CI runs it in its "Allocation
// gates" step.
func TestOnTheFlyAllocsPerPair(t *testing.T) {
	for _, c := range allocCases {
		for _, workers := range []int{1, 2} {
			pairs := 0
			allocs := testing.AllocsPerRun(3, func() {
				res, err := VerifyOpts(c.alg, c.cm, c.prop, Options{Workers: workers, Engine: EngineOnTheFly})
				if err != nil {
					t.Fatal(err)
				}
				pairs = res.Inclusion.PairsVisited
			})
			perPair := allocs / float64(pairs)
			t.Logf("%s w=%d: %.0f allocations for %d pairs (%.4f/pair)", c.name, workers, allocs, pairs, perPair)
			if perPair >= 1 {
				t.Errorf("%s w=%d: %.0f allocations for %d pairs (%.4f/pair), want < 1/pair",
					c.name, workers, allocs, pairs, perPair)
			}
		}
	}
}

// TestMaterializedWalkAllocsPerPair pins the materialized engine's
// inclusion walk: IncludedInDFADenseGuarded over a prebuilt TM system
// and Σd DFA must amortize to fewer than one heap allocation per pair,
// allocating only as its pair table, BFS tree and first-partner column
// grow.
func TestMaterializedWalkAllocsPerPair(t *testing.T) {
	for _, c := range allocCases {
		nfa := explore.BuildWorkers(c.alg, c.cm, 1).DenseNFA()
		dfa := spec.NewDet(c.prop, c.alg.Threads(), c.alg.Vars()).EnumerateWorkers(1)
		pairs := 0
		allocs := testing.AllocsPerRun(3, func() {
			_, _, st, err := automata.IncludedInDFADenseGuarded(nfa, dfa, nil)
			if err != nil {
				t.Fatal(err)
			}
			pairs = st.PairsVisited
		})
		perPair := allocs / float64(pairs)
		t.Logf("%s: %.0f allocations for %d pairs (%.4f/pair)", c.name, allocs, pairs, perPair)
		if perPair >= 1 {
			t.Errorf("%s: %.0f allocations for %d pairs (%.4f/pair), want < 1/pair", c.name, allocs, pairs, perPair)
		}
	}
}
