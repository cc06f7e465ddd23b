package safety

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"tmcheck/internal/core"
	"tmcheck/internal/explore"
	"tmcheck/internal/spec"
	"tmcheck/internal/tm"
)

// referenceBFS is the product walk without the on-the-fly engine's
// tables: a plain BFS over explore.Lazy's edge lists (ε first, then by
// letter) whose Σd side steps spec.Det.Step on DState values directly
// and whose pair set is a Go map keyed by (TM id, DState). It fills the
// Result fields the product walk decides.
func referenceBFS(alg tm.Algorithm, cm tm.ContentionManager, prop spec.Property) Result {
	type pair struct {
		tm int32
		q  spec.DState
	}
	tms := explore.NewLazy(alg, cm)
	det := spec.NewDet(prop, alg.Threads(), alg.Vars())
	ab := core.Alphabet{Threads: alg.Threads(), Vars: alg.Vars()}
	seen := map[pair]bool{}
	specStates := map[spec.DState]bool{det.Initial(): true}
	var queue []pair
	var parent, letter []int
	visit := func(p pair, from, l int) {
		if !seen[p] {
			seen[p] = true
			queue = append(queue, p)
			parent = append(parent, from)
			letter = append(letter, l)
		}
	}
	res := Result{Holds: true, FrontierPeak: 1}
	visit(pair{0, det.Initial()}, -1, -1)
	for qi := 0; qi < len(queue) && res.Holds; qi++ {
		res.FrontierPeak = max(res.FrontierPeak, len(queue)-qi)
		p := queue[qi]
		for _, e := range tms.Edges(p.tm) {
			if e.Emit < 0 {
				visit(pair{e.To, p.q}, qi, -1)
				continue
			}
			q2, ok := det.Step(p.q, ab.Decode(int(e.Emit)))
			if !ok {
				word := []int{int(e.Emit)}
				for i := qi; i > 0; i = parent[i] {
					if letter[i] >= 0 {
						word = append(word, letter[i])
					}
				}
				slices.Reverse(word)
				res.Holds, res.Counterexample = false, ab.DecodeWord(word)
				res.Inclusion.CexLen = len(word)
				break
			}
			specStates[q2] = true
			visit(pair{e.To, q2}, qi, int(e.Emit))
		}
	}
	res.Inclusion.PairsVisited = len(queue)
	res.TMStates, res.SpecStates = tms.NumStates(), len(specStates)
	return res
}

// TestOnTheFlyMatchesReferenceBFS checks the on-the-fly product walk —
// its first-partner column, hashed pair table and Σd memo — against
// referenceBFS, which shares only the TM side with it: verdict,
// counterexample, pairs, frontier peak, TM states and spec states must
// agree at one worker and at two. The cases are the service
// catalogue's seven (2,2) safety checks, seq ss (2,3) (127 pairs on 3
// TM states, so almost every push probes the hashed pairs) and
// modtl2+polite ss (2,3), whose pairs mostly sit on TM states with one
// spec partner.
func TestOnTheFlyMatchesReferenceBFS(t *testing.T) {
	ss, op := spec.StrictSerializability, spec.Opacity
	cases := []struct {
		alg, cm string
		n, k    int
		prop    spec.Property
	}{
		{"dstm", "", 2, 2, op},
		{"tl2", "", 2, 2, ss},
		{"2pl", "", 2, 2, op},
		{"norec", "", 2, 2, op},
		{"etl", "", 2, 2, op},
		{"modtl2", "polite", 2, 2, ss},
		{"dstm-novalidate", "", 2, 2, op},
		{"seq", "", 2, 3, ss},
		{"modtl2", "polite", 2, 3, ss},
	}
	for _, c := range cases {
		alg, err := tm.NewAlgorithm(c.alg, c.n, c.k)
		if err != nil {
			t.Fatal(err)
		}
		cm, err := tm.NewContentionManager(c.cm)
		if err != nil {
			t.Fatal(err)
		}
		want := referenceBFS(alg, cm, c.prop)
		for _, workers := range []int{1, 2} {
			label := fmt.Sprintf("%s %s (%d,%d) w=%d", explore.System{Alg: alg, CM: cm}.Name(), c.prop.Key(), c.n, c.k, workers)
			res, err := VerifyOpts(alg, cm, c.prop, Options{Workers: workers, Engine: EngineOnTheFly})
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			got := Result{
				Holds: res.Holds, Counterexample: res.Counterexample, FrontierPeak: res.FrontierPeak,
				TMStates: res.TMStates, SpecStates: res.SpecStates,
			}
			got.Inclusion.PairsVisited, got.Inclusion.CexLen = res.Inclusion.PairsVisited, res.Inclusion.CexLen
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s differs from the reference BFS:\n got  %+v\n want %+v", label, got, want)
			}
		}
	}
}
