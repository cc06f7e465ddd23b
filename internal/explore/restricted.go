package explore

import (
	"tmcheck/internal/core"
	"tmcheck/internal/tm"
)

// ThreadProgram restricts the commands one thread may issue: a finite
// automaton over commands. The most general program is the one-state
// automaton allowing everything; restricted programs model real workload
// classes — read-only threads, fixed transaction shapes, bounded
// transaction counts.
type ThreadProgram interface {
	// Initial returns the program's start state. States must be
	// comparable values.
	Initial() tm.State
	// Next returns the successor state if the command is allowed in p,
	// or ok = false if the program never issues c here.
	Next(p tm.State, c core.Command) (next tm.State, ok bool)
	// OnAbort returns the program state after the TM aborts the thread's
	// transaction — typically rewinding to the transaction's start to
	// model a retry loop.
	OnAbort(p tm.State) tm.State
}

// AnyProgram allows every command — the most general program.
type AnyProgram struct{}

type anyState struct{}

// Initial implements ThreadProgram.
func (AnyProgram) Initial() tm.State { return anyState{} }

// Next implements ThreadProgram.
func (AnyProgram) Next(p tm.State, c core.Command) (tm.State, bool) { return p, true }

// OnAbort implements ThreadProgram.
func (AnyProgram) OnAbort(p tm.State) tm.State { return p }

// ReadOnlyProgram allows reads and commits only.
type ReadOnlyProgram struct{}

// Initial implements ThreadProgram.
func (ReadOnlyProgram) Initial() tm.State { return anyState{} }

// Next implements ThreadProgram.
func (ReadOnlyProgram) Next(p tm.State, c core.Command) (tm.State, bool) {
	return p, c.Op != core.OpWrite
}

// OnAbort implements ThreadProgram.
func (ReadOnlyProgram) OnAbort(p tm.State) tm.State { return p }

// seqProgState tracks progress through a fixed command list, plus the
// index the current transaction started at (for retry after abort).
type seqProgState struct {
	At      uint8
	TxStart uint8
}

// FixedProgram issues a fixed command sequence, transaction by
// transaction, then stops. Aborted transactions are retried from their
// first command.
type FixedProgram struct {
	Commands []core.Command
}

// Initial implements ThreadProgram.
func (f *FixedProgram) Initial() tm.State { return seqProgState{} }

// Next implements ThreadProgram.
func (f *FixedProgram) Next(p tm.State, c core.Command) (tm.State, bool) {
	st := p.(seqProgState)
	if int(st.At) >= len(f.Commands) || f.Commands[st.At] != c {
		return p, false
	}
	st.At++
	if c.Op == core.OpCommit {
		st.TxStart = st.At
	}
	return st, true
}

// OnAbort implements ThreadProgram: rewind to the transaction's start.
func (f *FixedProgram) OnAbort(p tm.State) tm.State {
	st := p.(seqProgState)
	st.At = st.TxStart
	return st
}

// rstate is a restricted-exploration state: the TM product state plus the
// per-thread program states.
type rstate struct {
	Prod prodState
	Prog [tm.MaxThreads]tm.State
}

// BuildRestricted unfolds the TM against per-thread programs instead of
// the most general program. progs[t] restricts thread t; a nil entry means
// AnyProgram. The resulting transition system supports exactly the same
// analyses (safety inclusion, liveness loops) as Build's, so one can ask
// whether a TM is, say, obstruction free for read-only workloads even
// though it is not in general.
//
// Each state expands through the unfolding's forEachStep, for every
// command the thread's program enables (or its pending command); the
// program advances on the edge that completes the command and rewinds
// on an abort.
func BuildRestricted(alg tm.Algorithm, cm tm.ContentionManager, progs []ThreadProgram) *TS {
	u := newUnfolding(alg, cm)
	n := alg.Threads()
	filled := make([]ThreadProgram, n)
	init := rstate{Prod: u.initial()}
	for t := 0; t < n; t++ {
		filled[t] = AnyProgram{}
		if t < len(progs) && progs[t] != nil {
			filled[t] = progs[t]
		}
		init.Prog[t] = filled[t].Initial()
	}

	index := map[rstate]int32{init: 0}
	states := []rstate{init}
	prods := boxedStates{init.Prod}
	var out [][]Edge
	for qi := 0; qi < len(states); qi++ {
		q := states[qi]
		var es []Edge
		for t := core.Thread(0); int(t) < n; t++ {
			prog := filled[t]
			yield := func(next prodState, e Edge) {
				r := rstate{Prod: next, Prog: q.Prog}
				switch {
				case e.R == tm.Resp1:
					r.Prog[t], _ = prog.Next(q.Prog[t], e.Cmd)
				case e.X.Kind == tm.XAbort:
					r.Prog[t] = prog.OnAbort(q.Prog[t])
				}
				id, ok := index[r]
				if !ok {
					id = int32(len(states))
					index[r] = id
					states = append(states, r)
					prods = append(prods, r.Prod)
				}
				e.To = id
				es = append(es, e)
			}
			if q.Prod.Pending[t].Active {
				u.forEachStep(q.Prod, q.Prod.Pending[t].C, t, yield)
				continue
			}
			for _, c := range u.commands {
				if _, ok := prog.Next(q.Prog[t], c); ok {
					u.forEachStep(q.Prod, c, t, yield)
				}
			}
		}
		out = append(out, es)
	}
	return &TS{System: System{alg, cm}, Alphabet: u.ab, Out: out, states: prods}
}
