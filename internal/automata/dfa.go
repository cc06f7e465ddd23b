package automata

import "fmt"

// DFA is a deterministic finite automaton over {0, …, Alphabet()-1} with a
// partial transition function. Every state is accepting; a word is rejected
// exactly when it runs off the defined transitions.
type DFA struct {
	alphabet int
	initial  int
	trans    []int32 // trans[s*alphabet+l] = successor, or -1
}

// NewDFA returns a DFA over an alphabet of the given size with a single
// initial state 0 already allocated.
func NewDFA(alphabet int) *DFA {
	d := &DFA{alphabet: alphabet, initial: 0}
	d.AddState()
	return d
}

// NewDFATable returns the DFA with initial state 0 whose transition
// table is trans: one row of alphabet cells per state, each cell a
// successor or -1. The DFA takes trans over; the caller must not modify
// it afterwards.
func NewDFATable(alphabet int, trans []int32) *DFA {
	if alphabet < 1 || len(trans) == 0 || len(trans)%alphabet != 0 {
		panic(fmt.Sprintf("automata: %d table cells are not whole rows of %d", len(trans), alphabet))
	}
	return &DFA{alphabet: alphabet, trans: trans}
}

// Alphabet returns the alphabet size.
func (d *DFA) Alphabet() int { return d.alphabet }

// NumStates returns the number of allocated states.
func (d *DFA) NumStates() int { return len(d.trans) / d.alphabet }

// row returns the transition row of state s.
func (d *DFA) row(s int) []int32 { return d.trans[s*d.alphabet : (s+1)*d.alphabet] }

// Initial returns the initial state.
func (d *DFA) Initial() int { return d.initial }

// SetInitial designates s as the initial state.
func (d *DFA) SetInitial(s int) { d.initial = s }

// AddState allocates a fresh state with no outgoing transitions.
func (d *DFA) AddState() int {
	for range d.alphabet {
		d.trans = append(d.trans, -1)
	}
	return d.NumStates() - 1
}

// SetEdge defines the transition from --letter--> to, replacing any
// previous definition.
func (d *DFA) SetEdge(from, letter, to int) {
	if letter < 0 || letter >= d.alphabet {
		panic(fmt.Sprintf("automata: letter %d out of range [0,%d)", letter, d.alphabet))
	}
	d.row(from)[letter] = int32(to)
}

// Succ returns the successor of s on letter l, or -1 when undefined.
func (d *DFA) Succ(s, l int) int { return int(d.row(s)[l]) }

// Step is Succ on the int32 state ids of a product Walk.
func (d *DFA) Step(s int32, l int) int32 { return d.trans[int(s)*d.alphabet+l] }

// Accepts reports whether the word stays on defined transitions.
func (d *DFA) Accepts(word []int) bool {
	s := d.initial
	for _, l := range word {
		s = int(d.row(s)[l])
		if s < 0 {
			return false
		}
	}
	return true
}

// ToNFA views the DFA as an NFA (no ε-transitions).
func (d *DFA) ToNFA() *NFA {
	a := NewNFA(d.alphabet)
	for i := 1; i < d.NumStates(); i++ {
		a.AddState()
	}
	a.SetInitial(d.initial)
	for s := range d.NumStates() {
		for l, t := range d.row(s) {
			if t >= 0 {
				a.AddEdge(s, l, int(t))
			}
		}
	}
	return a
}

// Trim returns an equivalent DFA containing only states reachable from the
// initial state, renumbered in BFS order (the initial state becomes 0).
func (d *DFA) Trim() *DFA {
	id := make([]int32, d.NumStates())
	for i := range id {
		id[i] = -1
	}
	order := []int{d.initial}
	id[d.initial] = 0
	for i := 0; i < len(order); i++ {
		s := order[i]
		for l := 0; l < d.alphabet; l++ {
			t := d.row(s)[l]
			if t >= 0 && id[t] < 0 {
				id[t] = int32(len(order))
				order = append(order, int(t))
			}
		}
	}
	out := NewDFA(d.alphabet)
	for i := 1; i < len(order); i++ {
		out.AddState()
	}
	for ni, s := range order {
		for l := 0; l < d.alphabet; l++ {
			if t := d.row(s)[l]; t >= 0 {
				out.SetEdge(ni, l, int(id[t]))
			}
		}
	}
	return out
}

// Minimize returns the minimal DFA for the same prefix-closed language,
// computed by Moore partition refinement over the reachable part (with an
// implicit rejecting sink for undefined transitions).
func (d *DFA) Minimize() *DFA {
	t := d.Trim()
	n := t.NumStates()
	// block[s] is the current partition block of state s. Block -1 is the
	// implicit dead state. All states accept, so they start in one block.
	block := make([]int32, n)
	numBlocks := 1
	for {
		// Signature of a state: its block plus the blocks of its successors
		// (-1 encodes the dead state).
		type sigKey string
		sig := make([]byte, 0, 4*(t.alphabet+1))
		next := make([]int32, n)
		index := map[sigKey]int32{}
		fresh := 0
		for s := 0; s < n; s++ {
			sig = sig[:0]
			sig = appendInt32(sig, block[s])
			for l := 0; l < t.alphabet; l++ {
				succ := t.row(s)[l]
				if succ >= 0 {
					sig = appendInt32(sig, block[succ])
				} else {
					sig = appendInt32(sig, -1)
				}
			}
			k := sigKey(sig)
			id, ok := index[k]
			if !ok {
				id = int32(fresh)
				fresh++
				index[k] = id
			}
			next[s] = id
		}
		block = next
		if fresh == numBlocks {
			break
		}
		numBlocks = fresh
	}
	// Build the quotient automaton.
	out := NewDFA(t.alphabet)
	for i := 1; i < numBlocks; i++ {
		out.AddState()
	}
	// Renumber so the initial block is 0.
	ren := make([]int32, numBlocks)
	for i := range ren {
		ren[i] = -1
	}
	nextID := int32(0)
	assign := func(b int32) int32 {
		if ren[b] < 0 {
			ren[b] = nextID
			nextID++
		}
		return ren[b]
	}
	assign(block[t.initial])
	for s := 0; s < n; s++ {
		assign(block[s])
	}
	for s := 0; s < n; s++ {
		from := ren[block[s]]
		for l := 0; l < t.alphabet; l++ {
			if succ := t.row(s)[l]; succ >= 0 {
				out.SetEdge(int(from), l, int(ren[block[succ]]))
			}
		}
	}
	out.SetInitial(int(ren[block[t.initial]]))
	return out
}

func appendInt32(b []byte, v int32) []byte {
	u := uint32(v)
	return append(b, byte(u), byte(u>>8), byte(u>>16), byte(u>>24))
}
