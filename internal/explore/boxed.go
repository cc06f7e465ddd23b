package explore

import (
	"tmcheck/internal/core"
	"tmcheck/internal/tm"
)

// The boxed core: the packedIface of every product packedFor rejects —
// tm.Opaque, examples/customtm, user-registered managers, and keys
// wider than pack.MaxWords. It numbers each boxed product state densely
// on first sight in its own map and hands that number out as a one-word
// key, so scanPacked and Lazy run these products on the same pack.Map
// loop as the packed ones. The numbers mean nothing outside the one
// core that assigned them: a boxed core has no clone (Lazy's stage
// runs it without a helper) and no snapshot form (errNotPackable).
type boxedCore struct {
	u      *unfolding
	index  map[prodState]int32
	states []prodState // by number
	key    [1]uint64
	yield  func(next []uint64, e Edge)
	yieldQ func(next prodState, e Edge)
}

func newBoxedCore(alg tm.Algorithm, cm tm.ContentionManager) *boxedCore {
	bc := &boxedCore{u: newUnfolding(alg, cm), index: map[prodState]int32{}}
	bc.yieldQ = func(next prodState, e Edge) {
		bc.key[0] = uint64(bc.number(next))
		bc.yield(bc.key[:], e)
	}
	return bc
}

// coreFor returns the packed core of the product, or its boxed core
// with packed == false when packedFor rejects it.
func coreFor(alg tm.Algorithm, cm tm.ContentionManager) (pc packedIface, packed bool) {
	if pc := packedFor(alg, cm); pc != nil {
		return pc, true
	}
	return newBoxedCore(alg, cm), false
}

// number returns q's number, assigning the next one on first sight.
func (bc *boxedCore) number(q prodState) int32 {
	id, ok := bc.index[q]
	if !ok {
		id = int32(len(bc.states))
		bc.index[q] = id
		bc.states = append(bc.states, q)
	}
	return id
}

func (bc *boxedCore) keyWords() int { return 1 }

func (bc *boxedCore) keyBits() int { return 32 }

func (bc *boxedCore) writeInit(key []uint64) { key[0] = uint64(bc.number(bc.u.initial())) }

func (bc *boxedCore) expandKey(key []uint64, yield func(next []uint64, e Edge)) {
	bc.yield = yield
	bc.u.expand(bc.states[key[0]], bc.yieldQ)
}

func (bc *boxedCore) clone() packedIface { panic("explore: a boxed core has no clone") }

func (bc *boxedCore) stateAt(key []uint64) prodState { return bc.states[key[0]] }

// unfolding is the boxed successor generator of the TM×CM×most-general-
// program product: it runs the TM semantics on boxed tm.State values.
// The boxed core and BuildRestricted expand through it. Every engine
// funnels through forEachEnabled/forEachStep (or the packed core's
// mirror of them), so per-state edge order — and hence every canonical
// numbering and every counterexample downstream — is bit-identical
// across engines by construction.
type unfolding struct {
	alg      tm.Algorithm
	cm       tm.ContentionManager // nil when the TM runs without a manager
	ab       core.Alphabet
	commands []core.Command
}

func newUnfolding(alg tm.Algorithm, cm tm.ContentionManager) *unfolding {
	ab := core.Alphabet{Threads: alg.Threads(), Vars: alg.Vars()}
	return &unfolding{alg: alg, cm: cm, ab: ab, commands: ab.Commands()}
}

// initial returns the product's initial state.
func (u *unfolding) initial() prodState {
	var cmInit tm.State
	if u.cm != nil {
		cmInit = u.cm.Initial()
	}
	return prodState{TM: u.alg.Initial(), CM: cmInit}
}

// expand enumerates the successors of product state q without interning
// anything: the edge templates are yielded with To unset.
func (u *unfolding) expand(q prodState, yield func(next prodState, e Edge)) {
	u.forEachEnabled(q, func(c core.Command, t core.Thread) {
		u.forEachStep(q, c, t, yield)
	})
}

// forEachEnabled calls yield for every (command, thread) pair the most
// general program may issue from q: everything when the thread has no
// pending command, only the pending command otherwise.
func (u *unfolding) forEachEnabled(q prodState, yield func(core.Command, core.Thread)) {
	n := u.alg.Threads()
	for t := core.Thread(0); int(t) < n; t++ {
		if q.Pending[t].Active {
			yield(q.Pending[t].C, t)
			continue
		}
		for _, c := range u.commands {
			yield(c, t)
		}
	}
}

// forEachStep enumerates every transition for command c by thread t from
// state q, calling yield with the successor product state and the edge
// template (To left unset — the caller interns the successor). Every
// engine funnels through this single enumerator, so their edge order
// agrees by construction.
func (u *unfolding) forEachStep(q prodState, c core.Command, t core.Thread, yield func(next prodState, e Edge)) {
	steps := u.alg.Steps(q.TM, c, t)
	conflict := u.alg.Conflict(q.TM, c, t)

	// cmStep resolves the contention-manager product for extended command
	// x: allowed reports whether the transition survives, and next is the
	// manager's state afterwards.
	cmStep := func(x tm.XCmd) (next tm.State, allowed bool) {
		if u.cm == nil {
			return q.CM, true
		}
		p2, has := u.cm.Step(q.CM, x, t)
		if conflict && !has {
			return nil, false
		}
		if has {
			return p2, true
		}
		return q.CM, true
	}

	for _, step := range steps {
		cmNext, ok := cmStep(step.X)
		if !ok {
			continue
		}
		next := prodState{TM: step.Next, Pending: q.Pending, CM: cmNext}
		emit := int16(-1)
		if step.R == tm.RespPending {
			next.Pending[t] = pending{Active: true, C: c}
		} else {
			next.Pending[t] = pending{}
			if step.R == tm.Resp1 {
				emit = int16(u.ab.Encode(core.St(c, t)))
			}
		}
		yield(next, Edge{Cmd: c, T: t, X: step.X, R: step.R, Emit: emit})
	}

	// Abort transitions exist when the command is abort enabled (no
	// extended-command step) or the conflict function is true.
	if len(steps) == 0 || conflict {
		if cmNext, ok := cmStep(tm.XCmd{Kind: tm.XAbort}); ok {
			next := prodState{TM: u.alg.AbortStep(q.TM, t), Pending: q.Pending, CM: cmNext}
			next.Pending[t] = pending{}
			emit := int16(u.ab.Encode(core.St(core.Abort(), t)))
			yield(next, Edge{
				Cmd: c, T: t,
				X: tm.XCmd{Kind: tm.XAbort}, R: tm.Resp0, Emit: emit,
			})
		}
	}
}
