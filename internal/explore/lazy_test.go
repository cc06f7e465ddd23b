package explore

import (
	"errors"
	"fmt"
	"slices"
	"testing"

	"tmcheck/internal/automata"
	"tmcheck/internal/guard"
	"tmcheck/internal/spec"
	"tmcheck/internal/tm"
)

// firstEdges is a Lazy that records the states in the order a walk
// first asks for their edges.
type firstEdges struct {
	*Lazy
	asked map[int32]bool
	order []int32
}

func (f *firstEdges) Edges(s int32) []automata.Edge {
	if !f.asked[s] {
		f.asked[s] = true
		f.order = append(f.order, s)
	}
	return f.Lazy.Edges(s)
}

// checkWalkOrder walks alg×cm against Σd prop at the given worker count
// and checks that the stage expanded the TM states in the order the
// walk first asked for their edges — every one of them when the product
// holds — and returns the verdict and the TM states counted.
func checkWalkOrder(t *testing.T, alg tm.Algorithm, cm tm.ContentionManager, prop spec.Property, workers int) (bool, int) {
	t.Helper()
	label := fmt.Sprintf("%s %s (%d,%d) w=%d", System{alg, cm}.Name(), prop.Key(), alg.Threads(), alg.Vars(), workers)
	lz := NewLazyWorkers(alg, cm, workers)
	rec := &firstEdges{Lazy: lz, asked: map[int32]bool{}}
	d := spec.NewLazy(spec.NewDet(prop, alg.Threads(), alg.Vars()))
	w := automata.Walk{A: rec, D: d}
	r, err := w.Run()
	lz.Close()
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	st := lz.st
	if len(rec.order) > st.head || !slices.Equal(rec.order, st.queue[:len(rec.order)]) {
		t.Fatalf("%s: the walk asked for %d states, the stage expanded %d, and the orders differ", label, len(rec.order), st.head)
	}
	if r.Holds && len(rec.order) != lz.NumStates() {
		t.Errorf("%s: holds but the walk expanded %d of %d TM states", label, len(rec.order), lz.NumStates())
	}
	return r.Holds, lz.NumStates()
}

// TestLazyWalkOrder checks the order argument the stage rests on: for
// every registry TM at (2,2), against both properties, the stage's
// expansion order is the order in which automata.Walk first calls
// Edges, with the stage on the walk's goroutine (w1) and on its own
// (w2), and the verdict and TM states counted do not depend on which.
func TestLazyWalkOrder(t *testing.T) {
	for _, name := range tm.AlgorithmNames() {
		t.Run(name, func(t *testing.T) {
			alg, err := tm.NewAlgorithm(name, 2, 2)
			if err != nil {
				t.Fatal(err)
			}
			type outcome struct {
				holds  bool
				states int
			}
			got := map[int][]outcome{}
			for _, workers := range []int{1, 2} {
				t.Run(fmt.Sprintf("w%d", workers), func(t *testing.T) {
					for _, prop := range []spec.Property{spec.StrictSerializability, spec.Opacity} {
						holds, states := checkWalkOrder(t, alg, nil, prop, workers)
						got[workers] = append(got[workers], outcome{holds, states})
					}
				})
			}
			if len(got[1]) == 2 && len(got[2]) == 2 && !slices.Equal(got[1], got[2]) {
				t.Errorf("(holds, TM states) for ss and op: %v at one worker, %v at two", got[1], got[2])
			}
		})
	}
}

// TestLazyWalkOrderDeepBug is TestLazyWalkOrder on modtl2+polite ss
// (2,3), whose walk stops at a violation after 223,110 pairs.
func TestLazyWalkOrderDeepBug(t *testing.T) {
	if testing.Short() {
		t.Skip("(2,3) product")
	}
	cm, err := tm.NewContentionManager("polite")
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2} {
		if holds, _ := checkWalkOrder(t, tm.NewTL2Mod(2, 3), cm, spec.StrictSerializability, workers); holds {
			t.Errorf("w=%d: modtl2+polite ss (2,3) holds", workers)
		}
	}
}

// TestLazyOutOfOrderPanics asks for the edges of unexpanded states that
// are not the next expansion — a queued state out of its turn, and a
// state not interned yet — and requires a panic, which guard.Capture
// turns into a LIMIT(panic), that consumes nothing: the next state
// still expands and the states counted stay.
func TestLazyOutOfOrderPanics(t *testing.T) {
	for _, workers := range []int{1, 2} {
		lz := NewLazyWorkers(tm.NewTL2(2, 2), nil, workers)
		var fresh []int32 // state 0's successors, in the order the walk meets them
		for _, e := range lz.Edges(0) {
			if e.To != 0 && !slices.Contains(fresh, e.To) {
				fresh = append(fresh, e.To)
			}
		}
		if len(fresh) < 2 {
			t.Fatalf("w=%d: state 0 has %d successors, want at least 2", workers, len(fresh))
		}
		n := lz.NumStates()
		for _, s := range []int32{fresh[1], int32(n)} {
			err := guard.Capture(func() error {
				lz.Edges(s)
				return nil
			})
			var le *guard.LimitError
			if !errors.As(err, &le) || le.Kind != guard.KindPanic {
				t.Errorf("w=%d: Edges(%d) out of order: err = %v, want a LIMIT(panic)", workers, s, err)
			}
		}
		if lz.NumStates() != n {
			t.Errorf("w=%d: %d states after the refused requests, want %d", workers, lz.NumStates(), n)
		}
		if es := lz.Edges(fresh[0]); len(es) == 0 || lz.NumStates() < n {
			t.Errorf("w=%d: the next state expanded to %d edges, %d states", workers, len(es), lz.NumStates())
		}
		lz.Close()
	}
}
