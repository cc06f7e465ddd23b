package automata

import (
	"slices"
	"time"

	"tmcheck/internal/guard"
	"tmcheck/internal/obs"
	"tmcheck/internal/pack"
)

// Edge is one transition of the left side of a product walk: the
// successor and its letter, or -1 for an ε-step.
type Edge struct {
	To   int32
	Emit int16
}

// SortEdges puts one state's edges in the order a product walk takes
// them: ε-steps first, then by ascending letter, stable within each
// group. It is an insertion sort, as edge lists are a few elements long.
func SortEdges(es []Edge) {
	for i := 1; i < len(es); i++ {
		e, j := es[i], i
		for ; j > 0 && es[j-1].Emit > e.Emit; j-- {
			es[j] = es[j-1]
		}
		es[j] = e
	}
}

// Edger is the left side of a product walk, the automaton whose
// language must be included: a TM product expanded on demand
// (explore.Lazy) or a built one (DenseNFA).
type Edger interface {
	// Edges lists the transitions of state s in SortEdges order. The
	// walk only reads the list.
	Edges(s int32) []Edge
	// NumStates is the number of states constructed so far.
	NumStates() int
}

// Stepper is the deterministic right side of a product walk: a
// specification stepped on demand (spec.Lazy) or an enumerated one
// (DFA).
type Stepper interface {
	// Step returns the successor of state s under letter l, or -1 when
	// s has no l-transition.
	Step(s int32, l int) int32
	// NumStates is the number of states constructed so far.
	NumStates() int
}

// walkChunk is a walk's unit of the pair queue: one EvProgress
// heartbeat per chunk.
const walkChunk = 4096

// Walk is the product inclusion walk of both safety engines: a BFS over
// pairs of a state of A and a state of D, from (A0, D0), that decides
// L(A) ⊆ L(D) for a deterministic, prefix-closed D. Pairs are numbered
// on first sight and processed in id order, each A state's edges in
// SortEdges order, so the verdict, the counterexample and the pair
// count depend only on the two automata — not on whether a side is
// built up front or on demand. The walk returns at the first letter D
// refuses.
type Walk struct {
	// A and D are the two sides, A0 and D0 their initial states.
	A      Edger
	D      Stepper
	A0, D0 int32
	// Guard is consulted once per pair with the pairs plus both sides'
	// states constructed so far; nil never trips.
	Guard *guard.Guard
	// Name labels the walk's level and progress events on the telemetry
	// bus; "" emits none.
	Name string
}

// WalkResult is the outcome of a Walk.
type WalkResult struct {
	// Holds reports L(A) ⊆ L(D); when it does not, Cex holds the
	// letters of a shortest counterexample.
	Holds bool
	Cex   []int
	// Stats counts the pairs constructed, also when the guard stopped
	// the walk, and the counterexample's length.
	Stats InclusionStats
	// FrontierPeak is the largest backlog of the pair queue.
	FrontierPeak int
}

// product is the pair table of one walk. A pair is the one-word key
// a<<32 | d, and its id is its first-sight index, so pairs.KeyAt is the
// pair queue. parent and letter hold the BFS tree (letter -1 for the
// root and ε-steps).
//
// first is the first-partner column: first[a] is one more than the D
// state of the first pair seen with A state a (0: none yet). That pair
// is stored by Append, outside the hash index, so a push whose D state
// matches the column, or whose A state has no pair yet, is answered
// without hashing; only an A state's later partners enter the hash
// index. Most TM states of a product pair with one spec state.
type product struct {
	a      Edger
	pairs  *pack.Map
	first  []int32
	parent []int32
	letter []int16
	key    [1]uint64
}

func (p *product) push(a, d, from int32, l int16) {
	if int(a) >= len(p.first) {
		p.first = append(p.first, make([]int32, p.a.NumStates()-len(p.first))...)
	}
	p.key[0] = uint64(a)<<32 | uint64(uint32(d))
	switch p.first[a] {
	case d + 1:
		return
	case 0:
		p.first[a] = d + 1
		p.pairs.Append(p.key[:])
	default:
		if _, fresh := p.pairs.Intern(p.key[:]); !fresh {
			return
		}
	}
	p.parent = append(p.parent, from)
	p.letter = append(p.letter, l)
}

func (p *product) at(id int32) (a, d int32) {
	k := p.pairs.KeyAt(id)[0]
	return int32(k >> 32), int32(uint32(k))
}

// word is the counterexample ending in letter last at pair id: the
// letters along the BFS tree from the root, then last.
func (p *product) word(id int32, last int16) []int {
	rev := []int{int(last)}
	for ; id > 0; id = p.parent[id] {
		if p.letter[id] >= 0 {
			rev = append(rev, int(p.letter[id]))
		}
	}
	slices.Reverse(rev)
	return rev
}

// Run walks the product. With the telemetry bus on and a Name set, each
// BFS level's end publishes an EvLevelDone and each chunk an EvProgress.
// A guard stop returns the guard's error with the pairs constructed so
// far in the result's Stats.
func (w *Walk) Run() (WalkResult, error) {
	p := &product{a: w.A, pairs: pack.NewMap(1, 0)}
	p.push(w.A0, w.D0, -1, -1)
	guarded, events := w.Guard.Active(), w.Name != "" && obs.EventsEnabled()
	states := func() int { return p.pairs.Len() + w.A.NumStates() + w.D.NumStates() }
	level, levelEnd, last := int32(0), int32(1), time.Now()
	levelDone := func(expanded int32) {
		now := time.Now()
		obs.Emit(obs.Event{
			Kind: obs.EvLevelDone, Name: w.Name, Level: level,
			States: int64(p.pairs.Len()), Frontier: int64(p.pairs.Len() - int(expanded)),
			HeapBytes: obs.SampledHeap(), DurNS: now.Sub(last).Nanoseconds(),
		})
		last, level = now, level+1
	}

	r := WalkResult{FrontierPeak: 1}
	a, d := w.A, w.D
	for qi := int32(0); int(qi) < p.pairs.Len(); qi++ {
		if events && qi == levelEnd {
			levelDone(qi)
			levelEnd = int32(p.pairs.Len())
		}
		if guarded {
			if err := w.Guard.Check(states()); err != nil {
				r.Stats.PairsVisited = p.pairs.Len()
				return r, err
			}
		}
		r.FrontierPeak = max(r.FrontierPeak, p.pairs.Len()-int(qi))
		if events && qi%walkChunk == 0 && qi > 0 {
			obs.Emit(obs.Event{
				Kind: obs.EvProgress, Name: w.Name,
				States: int64(p.pairs.Len()), Frontier: int64(p.pairs.Len() - int(qi)),
				HeapBytes: obs.SampledHeap(),
			})
		}
		s, sd := p.at(qi)
		for _, e := range a.Edges(s) {
			if e.Emit < 0 {
				p.push(e.To, sd, qi, -1)
				continue
			}
			d2 := d.Step(sd, int(e.Emit))
			if d2 < 0 {
				r.Cex = p.word(qi, e.Emit)
				r.Stats = InclusionStats{PairsVisited: p.pairs.Len(), CexLen: len(r.Cex)}
				return r, nil
			}
			p.push(e.To, d2, qi, e.Emit)
		}
	}
	if events {
		levelDone(int32(p.pairs.Len()))
	}
	r.Holds = true
	r.Stats.PairsVisited = p.pairs.Len()
	return r, nil
}
