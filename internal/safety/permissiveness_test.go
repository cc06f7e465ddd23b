package safety

import (
	"runtime"
	"testing"

	"tmcheck/internal/automata"
	"tmcheck/internal/explore"
	"tmcheck/internal/spec"
	"tmcheck/internal/tm"
)

// Permissiveness: the number of words a TM admits per length, compared to
// the number of safe words. Language inclusion L(A) ⊆ πop implies the
// counts are dominated pointwise; and the known permissiveness folklore —
// DSTM admits more schedules than TL2 and 2PL, the sequential TM the
// fewest — shows up in the counts.
func TestPermissivenessCounts(t *testing.T) {
	const maxLen = 6
	opCounts := automata.CountWords(spec.NewDet(spec.Opacity, 2, 2).EnumerateWorkers(runtime.GOMAXPROCS(0)), maxLen)
	counts := map[string][]uint64{}
	for _, name := range []string{"seq", "2pl", "dstm", "tl2"} {
		alg, err := tm.NewAlgorithm(name, 2, 2)
		if err != nil {
			t.Fatal(err)
		}
		ts := explore.BuildWorkers(alg, nil, runtime.GOMAXPROCS(0))
		c, ok := automata.CountWordsNFA(ts.NFA(), maxLen, 500000)
		if !ok {
			t.Fatalf("%s: subset construction exceeded bound", name)
		}
		counts[name] = c
		for l := 0; l <= maxLen; l++ {
			if c[l] > opCounts[l] {
				t.Errorf("%s admits %d words of length %d, more than the %d opaque ones",
					name, c[l], l, opCounts[l])
			}
		}
	}
	// Folklore ordering at length 6: seq < tl2, seq < 2pl < dstm.
	if !(counts["seq"][maxLen] < counts["2pl"][maxLen] &&
		counts["2pl"][maxLen] < counts["dstm"][maxLen] &&
		counts["seq"][maxLen] < counts["tl2"][maxLen]) {
		t.Errorf("permissiveness ordering unexpected: seq=%d 2pl=%d dstm=%d tl2=%d",
			counts["seq"][maxLen], counts["2pl"][maxLen], counts["dstm"][maxLen], counts["tl2"][maxLen])
	}
}
