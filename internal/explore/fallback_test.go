package explore

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"tmcheck/internal/tm"
)

// buildFallbackSystems enumerates the products the fallback test pins:
// every registered TM without a manager, plus modtl2 with every
// registered manager (the CM factor has its own packed form to bypass).
func buildFallbackSystems(t *testing.T) []struct {
	alg func() tm.Algorithm
	cm  tm.ContentionManager
} {
	t.Helper()
	var systems []struct {
		alg func() tm.Algorithm
		cm  tm.ContentionManager
	}
	for _, name := range tm.AlgorithmNames() {
		name := name
		systems = append(systems, struct {
			alg func() tm.Algorithm
			cm  tm.ContentionManager
		}{alg: func() tm.Algorithm {
			alg, err := tm.NewAlgorithm(name, 2, 2)
			if err != nil {
				t.Fatal(err)
			}
			return alg
		}})
	}
	for _, mname := range tm.ManagerNames() {
		cm, err := tm.NewContentionManager(mname)
		if err != nil {
			t.Fatal(err)
		}
		systems = append(systems, struct {
			alg func() tm.Algorithm
			cm  tm.ContentionManager
		}{alg: func() tm.Algorithm { return tm.NewTL2Mod(2, 2) }, cm: cm})
	}
	return systems
}

// TestOpaqueFallbackMatchesPacked pins the opt-in contract of the
// packed core: a registry TM (or manager) without an encoder — modeled
// by tm.Opaque/tm.OpaqueCM, which strip the typed extension — must run
// on the boxed core and produce the identical table: same states
// in the same canonical order, same edges edge for edge, at one worker
// and at four.
func TestOpaqueFallbackMatchesPacked(t *testing.T) {
	for _, sys := range buildFallbackSystems(t) {
		alg := sys.alg()
		name := alg.Name()
		if sys.cm != nil {
			name += "+" + sys.cm.Name()
		}
		t.Run(name, func(t *testing.T) {
			// The non-opaque product must actually take the packed path and
			// the opaque one must not, or the comparison is vacuous.
			if packedFor(alg, sys.cm) == nil {
				t.Fatalf("%s: packed core not selected for the typed product", name)
			}
			if packedFor(tm.Opaque(alg), sys.cm) != nil {
				t.Fatal("Opaque algorithm still matched the packed dispatch")
			}
			if sys.cm != nil && packedFor(alg, tm.OpaqueCM(sys.cm)) != nil {
				t.Fatal("OpaqueCM manager still matched the packed dispatch")
			}
			for _, workers := range []int{1, 4} {
				packed := BuildWorkers(sys.alg(), sys.cm, workers)
				generic := BuildWorkers(tm.Opaque(sys.alg()), tm.OpaqueCM(sys.cm), workers)
				compareTables(t, fmt.Sprintf("workers=%d", workers), packed, generic)
			}
		})
	}
}

// compareTables asserts two transition systems are bit-identical:
// canonical numbering, edges, and decoded product states.
func compareTables(t *testing.T, label string, a, b *TS) {
	t.Helper()
	if a.NumStates() != b.NumStates() || a.NumEdges() != b.NumEdges() {
		t.Fatalf("%s: %d states/%d edges vs %d/%d",
			label, a.NumStates(), a.NumEdges(), b.NumStates(), b.NumEdges())
	}
	if !reflect.DeepEqual(a.Out, b.Out) {
		for s := range a.Out {
			if !reflect.DeepEqual(a.Out[s], b.Out[s]) {
				t.Fatalf("%s: state %d edges differ:\n packed  %v\n generic %v",
					label, s, a.Out[s], b.Out[s])
			}
		}
		t.Fatalf("%s: edge tables differ", label)
	}
	for s := 0; s < a.NumStates(); s++ {
		if sa, sb := a.StateAt(int32(s)), b.StateAt(int32(s)); sa != sb {
			t.Fatalf("%s: state %d decodes differently:\n packed  %+v\n generic %+v",
				label, s, sa, sb)
		}
	}
}

// nopSink is a LevelSink that keeps nothing.
type nopSink struct{}

func (nopSink) AppendLevel([]uint64, [][]Edge, int, int, int, int) error { return nil }

// TestPersistRefusesBoxedProducts pins the refusal of checkpoint,
// resume and spill for a product on the boxed core: its numbers mean
// nothing in another process, so each hook must fail the build loudly
// instead of exploring without it.
func TestPersistRefusesBoxedProducts(t *testing.T) {
	alg := tm.Opaque(tm.NewDSTM(2, 1))
	if _, _, ok := PackedInfo(alg, nil); ok {
		t.Fatal("PackedInfo accepts an opaque product")
	}
	grow := func(need int, cur []uint64) []uint64 { return append(make([]uint64, 0, need), cur...) }
	for _, p := range []*Persist{{Resume: &ResumeState{Keys: []uint64{0}, Interned: 1}}, {Sink: nopSink{}}, {Grow: grow}} {
		_, err := BuildGuarded(alg, nil, nil, func(tm.Algorithm, tm.ContentionManager) (*Persist, error) { return p, nil })
		if err == nil || !strings.Contains(err.Error(), "not bit-packable") {
			t.Errorf("persist %+v: err = %v, want the not-bit-packable refusal", *p, err)
		}
	}
	if _, err := BuildGuarded(alg, nil, nil, func(tm.Algorithm, tm.ContentionManager) (*Persist, error) { return &Persist{}, nil }); err != nil {
		t.Errorf("empty persist hooks: %v", err)
	}
}
