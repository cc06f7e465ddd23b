package space

import (
	"errors"
	"testing"

	"tmcheck/internal/guard"
)

// gridSpace is a toy implicit space: states are (x, y) points on a
// bounded grid, with a "right" edge emitting letter 0 and a "down" edge
// emitting Eps.
type gridSpace struct {
	w, h int
	in   *Interner[[2]int]
}

func newGrid(w, h int) *gridSpace {
	g := &gridSpace{w: w, h: h, in: NewInterner[[2]int]()}
	g.in.Intern([2]int{0, 0})
	return g
}

func (g *gridSpace) Init() State    { return 0 }
func (g *gridSpace) NumStates() int { return g.in.Len() }
func (g *gridSpace) Succ(s State, emit func(Letter, State)) {
	p := g.in.At(s)
	if p[0]+1 < g.w {
		emit(0, g.in.Intern([2]int{p[0] + 1, p[1]}))
	}
	if p[1]+1 < g.h {
		emit(Eps, g.in.Intern([2]int{p[0], p[1] + 1}))
	}
}

func TestScanReachesFixpoint(t *testing.T) {
	g := newGrid(4, 3)
	edges := 0
	n, err := Scan(g, nil, func(from State, l Letter, to State) { edges++ })
	if err != nil {
		t.Fatal(err)
	}
	if n != 12 {
		t.Errorf("states = %d, want 12", n)
	}
	// Each of the 12 cells has a right edge unless in the last column
	// (3*3 rows missing... rather: right edges = 3*3, down edges = 4*2).
	if want := 3*3 + 4*2; edges != want {
		t.Errorf("edges = %d, want %d", edges, want)
	}
}

func TestScanCanonicalNumbering(t *testing.T) {
	// Scan order from (0,0): BFS-as-scan interning means ids follow
	// first-sight order along the scan, identical on every run.
	g1 := newGrid(3, 3)
	var order1 []State
	Scan(g1, nil, func(_ State, _ Letter, to State) { order1 = append(order1, to) })
	g2 := newGrid(3, 3)
	var order2 []State
	Scan(g2, nil, func(_ State, _ Letter, to State) { order2 = append(order2, to) })
	if len(order1) != len(order2) {
		t.Fatalf("edge counts differ: %d vs %d", len(order1), len(order2))
	}
	for i := range order1 {
		if order1[i] != order2[i] {
			t.Fatalf("numbering diverges at edge %d: %d vs %d", i, order1[i], order2[i])
		}
	}
}

func TestScanBudget(t *testing.T) {
	g := newGrid(10, 10)
	n, err := Scan(g, guard.New(nil, 5, 0), func(State, Letter, State) {})
	if err == nil {
		t.Fatal("want budget error")
	}
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Errorf("errors.Is(err, ErrBudgetExceeded) = false for %v", err)
	}
	var be *BudgetError
	if !errors.As(err, &be) {
		t.Fatalf("error %v is not a *BudgetError", err)
	}
	if be.Budget != 5 || be.Visited <= 5 {
		t.Errorf("budget error reports budget=%d visited=%d", be.Budget, be.Visited)
	}
	if n != be.Visited {
		t.Errorf("Scan returned %d states, error says %d", n, be.Visited)
	}
}

func TestInternerDenseIDs(t *testing.T) {
	in := NewInterner[string]()
	if id := in.Intern("a"); id != 0 {
		t.Errorf("first id = %d", id)
	}
	if id, fresh := in.InternFresh("b"); id != 1 || !fresh {
		t.Errorf("second intern = (%d, %v)", id, fresh)
	}
	if id, fresh := in.InternFresh("a"); id != 0 || fresh {
		t.Errorf("re-intern = (%d, %v)", id, fresh)
	}
	if in.Len() != 2 || in.At(1) != "b" {
		t.Errorf("len=%d at(1)=%q", in.Len(), in.At(1))
	}
	snap := in.Snapshot()
	if len(snap) != 2 || snap[0] != "a" {
		t.Errorf("snapshot = %v", snap)
	}
}
