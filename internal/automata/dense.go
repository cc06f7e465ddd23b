package automata

import (
	"fmt"
	"sync"

	"tmcheck/internal/guard"
	"tmcheck/internal/obs"
)

// DenseNFA is a compressed-sparse-row view of an NFA, built for the hot
// deterministic-inclusion walk: per state, the ε-successors and the
// letter transitions live in flat arrays, with the letter transitions
// grouped by ascending letter. Iterating a state touches only the
// letters it actually has — the boxed NFA walk scans the whole alphabet
// and chases a [][]int32 row per state — and the walk allocates nothing
// per pair.
//
// The successor enumeration order is exactly the boxed walk's: all
// ε-successors in edge-insertion order, then the letters ascending,
// each letter's successors in edge-insertion order. Counterexamples of
// the dense inclusion check are therefore bit-identical to
// IncludedInDFA's.
type DenseNFA struct {
	alphabet  int
	initial   int32
	numStates int
	// Letter transitions of state s occupy lets/tos[letOff[s]:letOff[s+1]],
	// sorted by letter (stable: insertion order within a letter).
	letOff []int32
	lets   []int16
	tos    []int32
	// ε-transitions of state s are epsTo[epsOff[s]:epsOff[s+1]], in
	// insertion order.
	epsOff []int32
	epsTo  []int32
}

// Alphabet returns the alphabet size.
func (a *DenseNFA) Alphabet() int { return a.alphabet }

// NumStates returns the number of states.
func (a *DenseNFA) NumStates() int { return a.numStates }

// Initial returns the initial state.
func (a *DenseNFA) Initial() int { return int(a.initial) }

// NumEdges returns the total transition count (letters plus ε).
func (a *DenseNFA) NumEdges() int { return len(a.tos) + len(a.epsTo) }

// DenseBuilder assembles a DenseNFA state by state in id order: call
// StartState for each state 0, 1, …, add that state's transitions with
// Edge and Eps (in any letter order — the builder counting-sorts each
// state's letter edges), then Finish.
type DenseBuilder struct {
	alphabet int
	n        int
	// Staged letter edges of the state currently open; flushed sorted at
	// the next StartState or Finish.
	stageLet []int16
	stageTo  []int32
	// counts is the per-letter bucket array of the counting sort, all
	// zero between flushes.
	counts []int32
	out    DenseNFA
}

// NewDenseBuilder returns a builder for automata over an alphabet of
// the given size.
func NewDenseBuilder(alphabet int) *DenseBuilder {
	if alphabet < 0 || alphabet > 1<<15-1 {
		panic(fmt.Sprintf("automata: alphabet %d out of range for dense letters", alphabet))
	}
	b := &DenseBuilder{alphabet: alphabet, counts: make([]int32, alphabet)}
	b.out.alphabet = alphabet
	b.out.letOff = append(b.out.letOff, 0)
	b.out.epsOff = append(b.out.epsOff, 0)
	return b
}

// StartState opens the next state (ids are assigned in call order,
// starting at 0) and returns its id.
func (b *DenseBuilder) StartState() int {
	b.flush()
	b.n++
	return b.n - 1
}

// Edge adds a transition of the open state on letter to state to.
func (b *DenseBuilder) Edge(letter, to int) {
	if letter < 0 || letter >= b.alphabet {
		panic(fmt.Sprintf("automata: letter %d out of range [0,%d)", letter, b.alphabet))
	}
	b.stageLet = append(b.stageLet, int16(letter))
	b.stageTo = append(b.stageTo, int32(to))
}

// Eps adds an ε-transition of the open state to state to.
func (b *DenseBuilder) Eps(to int) {
	b.out.epsTo = append(b.out.epsTo, int32(to))
}

// flush closes the open state: counting-sorts its staged letter edges
// into the flat arrays and records both offset fenceposts.
func (b *DenseBuilder) flush() {
	if b.n == 0 {
		return
	}
	if m := len(b.stageLet); m > 0 {
		base := int32(len(b.out.lets))
		b.out.lets = append(b.out.lets, b.stageLet...)
		b.out.tos = append(b.out.tos, b.stageTo...)
		for _, l := range b.stageLet {
			b.counts[l]++
		}
		pos := base
		for l := range b.counts {
			c := b.counts[l]
			if c == 0 {
				continue // keep the all-zero invariant for absent letters
			}
			b.counts[l] = pos
			pos += c
		}
		for i, l := range b.stageLet {
			p := b.counts[l]
			b.out.lets[p] = l
			b.out.tos[p] = b.stageTo[i]
			b.counts[l] = p + 1
		}
		for _, l := range b.stageLet {
			b.counts[l] = 0
		}
		b.stageLet = b.stageLet[:0]
		b.stageTo = b.stageTo[:0]
	}
	b.out.letOff = append(b.out.letOff, int32(len(b.out.lets)))
	b.out.epsOff = append(b.out.epsOff, int32(len(b.out.epsTo)))
}

// Finish closes the last state and returns the automaton with the
// given initial state. The builder must not be reused afterwards.
func (b *DenseBuilder) Finish(initial int) *DenseNFA {
	b.flush()
	if initial < 0 || initial >= b.n {
		panic(fmt.Sprintf("automata: initial state %d out of range [0,%d)", initial, b.n))
	}
	b.out.initial = int32(initial)
	b.out.numStates = b.n
	return &b.out
}

// DenseFromNFA converts a boxed NFA into its dense view, preserving the
// per-state successor enumeration order of the inclusion walk.
func DenseFromNFA(a *NFA) *DenseNFA {
	b := NewDenseBuilder(a.alphabet)
	for s := 0; s < a.NumStates(); s++ {
		b.StartState()
		for _, t := range a.eps[s] {
			b.Eps(int(t))
		}
		for l := 0; l < a.alphabet; l++ {
			for _, t := range a.trans[s][l] {
				b.Edge(l, int(t))
			}
		}
	}
	return b.Finish(a.initial)
}

// denseBitsLimit bounds the product size (NFA states × DFA states) for
// which the dense inclusion check keeps a one-bit-per-pair visited
// table; 2²⁸ bits = 32 MiB. Larger products fall back to a hash set.
const denseBitsLimit = 1 << 28

// denseBitsPool recycles the visited bitsets across checks. Every
// pooled slice upholds the all-zero invariant: users clear exactly the
// bits they set (those in their BFS queue) before returning it.
var denseBitsPool sync.Pool

func getDenseBits(words int) []uint64 {
	if v, ok := denseBitsPool.Get().(*[]uint64); ok && len(*v) >= words {
		return (*v)[:words]
	}
	return make([]uint64, words)
}

func putDenseBits(bits []uint64, touched []int64) {
	for _, pair := range touched {
		bits[pair>>6] &^= 1 << uint(pair&63)
	}
	full := bits[:cap(bits)]
	denseBitsPool.Put(&full)
}

// pnode is one search-tree node of the dense inclusion walk; node i
// corresponds to the pair at queue position i.
type pnode struct {
	parent int32
	letter int16 // -1 for the root and for ε-steps
}

// denseWalkBufs holds the reusable queue and parent-tree buffers of
// one dense inclusion walk.
type denseWalkBufs struct {
	nodes []pnode
	queue []int64
}

var denseWalkPool = sync.Pool{New: func() any { return new(denseWalkBufs) }}

// IncludedInDFADenseGuarded is the dense-array deterministic inclusion
// check: the same BFS over product pairs as IncludedInDFAStats —
// identical verdicts, counterexamples and pair counts — but walking CSR
// successor arrays with a pooled one-bit visited table, allocating only
// for queue growth. The guard's context, pair budget and heap watchdog
// are consulted once per dequeued product pair, so a -timeout or Ctrl-C
// interrupts even a long inclusion phase; the stats still report the
// truncated work.
func IncludedInDFADenseGuarded(a *DenseNFA, d *DFA, g *guard.Guard) (ok bool, cex []int, st InclusionStats, err error) {
	width := int64(d.NumStates() + 1)
	total := int64(a.numStates) * width
	w := denseWalkPool.Get().(*denseWalkBufs)
	nodes := append(w.nodes[:0], pnode{parent: -1, letter: -1})
	queue := w.queue[:0]

	var bits []uint64
	var seen map[int64]struct{}
	if total <= denseBitsLimit {
		bits = getDenseBits(int((total + 63) >> 6))
	} else {
		seen = make(map[int64]struct{})
	}

	// push marks a pair visited and enqueues it; node index == queue
	// position, so the dequeue loop never looks a pair's index up.
	push := func(pair int64, parent int32, letter int16) {
		if bits != nil {
			wi, bi := pair>>6, uint(pair&63)
			if bits[wi]>>bi&1 != 0 {
				return
			}
			bits[wi] |= 1 << bi
		} else {
			if _, dup := seen[pair]; dup {
				return
			}
			seen[pair] = struct{}{}
		}
		nodes = append(nodes, pnode{parent: parent, letter: letter})
		queue = append(queue, pair)
	}

	buildWord := func(idx int32, lastLetter int16) []int {
		rev := []int{int(lastLetter)}
		for idx > 0 {
			if nodes[idx].letter >= 0 {
				rev = append(rev, int(nodes[idx].letter))
			}
			idx = nodes[idx].parent
		}
		for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
			rev[i], rev[j] = rev[j], rev[i]
		}
		return rev
	}

	record := func(ok bool, cex []int, err error) (bool, []int, InclusionStats, error) {
		st = InclusionStats{PairsVisited: len(queue), CexLen: len(cex)}
		obs.Inc("automata.dfa_inclusion.checks", 1)
		obs.Inc("automata.dfa_inclusion.pairs", int64(st.PairsVisited))
		if bits != nil {
			putDenseBits(bits, queue)
		}
		w.nodes, w.queue = nodes, queue
		denseWalkPool.Put(w)
		return ok, cex, st, err
	}

	start := int64(a.initial)*width + int64(d.Initial())
	if bits != nil {
		bits[start>>6] |= 1 << uint(start&63)
	} else {
		seen[start] = struct{}{}
	}
	queue = append(queue, start)
	guarded := g.Active()
	for qi := 0; qi < len(queue); qi++ {
		if guarded {
			if gerr := g.Check(len(queue)); gerr != nil {
				return record(false, nil, gerr)
			}
		}
		pair := queue[qi]
		n := int32(pair / width)
		dd := int64(pair % width)
		for _, n2 := range a.epsTo[a.epsOff[n]:a.epsOff[n+1]] {
			push(int64(n2)*width+dd, int32(qi), -1)
		}
		row := d.trans[dd]
		end := a.letOff[n+1]
		for i := a.letOff[n]; i < end; {
			l := a.lets[i]
			d2 := row[l]
			if d2 < 0 {
				return record(false, buildWord(int32(qi), l), nil)
			}
			for ; i < end && a.lets[i] == l; i++ {
				push(int64(a.tos[i])*width+int64(d2), int32(qi), l)
			}
		}
	}
	return record(true, nil, nil)
}
