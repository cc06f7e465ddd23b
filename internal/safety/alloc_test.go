//go:build !race

package safety

import (
	"testing"

	"tmcheck/internal/spec"
	"tmcheck/internal/tm"
)

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
	cases := []struct {
		name string
		alg  tm.Algorithm
		cm   tm.ContentionManager
		prop spec.Property
	}{
		{"dstm op", tm.NewDSTM(2, 2), nil, spec.Opacity},
		{"tl2 ss", tm.NewTL2(2, 2), nil, spec.StrictSerializability},
		{"modtl2+polite ss", tm.NewTL2Mod(2, 2), tm.Polite{}, spec.StrictSerializability},
	}
	for _, c := range cases {
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
