package tm

import (
	"tmcheck/internal/core"

	"tmcheck/internal/pack"
)

// Packed is the opt-in typed extension of Algorithm for the
// zero-allocation state-space core: an algorithm whose concrete state
// type S is known supplies yield-style steppers (no []Step slices, no
// interface boxing) and a bit-packed fixed-width encoding of S. The
// explorer dispatches on this interface and runs registry TMs that
// don't implement it on its boxed core.
//
// Contract: the typed methods must agree exactly — same transitions in
// the same order — with the untyped Algorithm methods. The built-in
// TMs guarantee this by construction: their untyped Steps/Conflict/
// AbortStep/Initial are thin delegates to the typed forms, so there is
// a single copy of each algorithm's logic. Each Steps spells out the
// collect-into-a-slice adapter inline (rather than through a shared
// generic helper) so the yield closure is passed to a known concrete
// method and stays stack-allocated — the boxed core and the restricted
// explorer step through Steps.
//
// PackedFor returns the Name() of the algorithm the typed methods
// implement. It guards against Go's method promotion: a wrapper that
// embeds a built-in TM and overrides only the untyped Steps would
// silently inherit the parent's typed stepper with the wrong
// semantics. The explorer uses the packed path only when
// PackedFor() == Name(), so such a wrapper degrades to the generic
// path instead of silently exploring the parent's semantics. Every
// embedding variant in this package (TL2Mod, the buggy TMs) overrides
// both forms together.
type Packed[S comparable] interface {
	Algorithm
	// PackedFor names the algorithm the typed methods belong to; the
	// packed path is taken only when it equals Name().
	PackedFor() string
	// InitialP is Initial without boxing.
	InitialP() S
	// StepsP enumerates the transitions of Steps in identical order,
	// calling yield once per step, and returns the number of yields
	// (the abort rule needs the count even when the consumer filters).
	StepsP(q S, c core.Command, t core.Thread, yield func(x XCmd, r Resp, next S)) int
	// ConflictP is Conflict without boxing.
	ConflictP(q S, c core.Command, t core.Thread) bool
	// AbortStepP is AbortStep without boxing.
	AbortStepP(q S, t core.Thread) S
	// StateBits is the exact bit width of the encoding for this
	// instance's bounds (constant per algorithm value).
	StateBits() int
	// EncodeState writes exactly StateBits() bits for q.
	EncodeState(q S, w *pack.Writer)
	// DecodeState inverts EncodeState: DecodeState after EncodeState(q)
	// yields a state == q.
	DecodeState(r *pack.Reader) S
}

// PackedCM is the packed counterpart of ContentionManager: manager
// state is a word of CMBits() ≤ 64 bits. All built-in managers are
// tiny (aggressive and polite are stateless, karma is four 2-bit
// credits, timid one bit per thread), so the packed product keeps the
// manager inline in the state key. StepCM must agree exactly with
// Step, and DecodeCM must reproduce the boxed state Step would have
// produced (the fallback-equality tests check both).
type PackedCM interface {
	// CMBits is the exact encoding width (may be 0 for stateless
	// managers).
	CMBits() int
	// InitialCM encodes the initial state.
	InitialCM() uint64
	// StepCM mirrors ContentionManager.Step on encoded states.
	StepCM(p uint64, x XCmd, t core.Thread) (uint64, bool)
	// DecodeCM returns the boxed state encoded by p.
	DecodeCM(p uint64) State
}

// PackCM returns the packed counterpart of cm. A nil manager packs to
// (nil, true): the product simply has no manager factor. An unknown
// (user-registered) manager returns ok == false, sending the whole
// product to the generic path.
func PackCM(cm ContentionManager) (PackedCM, bool) {
	switch cm.(type) {
	case nil:
		return nil, true
	case Aggressive:
		return aggressivePacked{}, true
	case *Aggressive:
		return aggressivePacked{}, true
	case Polite:
		return politePacked{}, true
	case *Polite:
		return politePacked{}, true
	case Karma:
		return karmaPacked{}, true
	case *Karma:
		return karmaPacked{}, true
	case Timid:
		return timidPacked{}, true
	case *Timid:
		return timidPacked{}, true
	default:
		return nil, false
	}
}

type aggressivePacked struct{}

func (aggressivePacked) CMBits() int       { return 0 }
func (aggressivePacked) InitialCM() uint64 { return 0 }
func (aggressivePacked) StepCM(p uint64, x XCmd, t core.Thread) (uint64, bool) {
	return p, x.Kind != XAbort
}
func (aggressivePacked) DecodeCM(p uint64) State { return cmUnit{} }

type politePacked struct{}

func (politePacked) CMBits() int       { return 0 }
func (politePacked) InitialCM() uint64 { return 0 }
func (politePacked) StepCM(p uint64, x XCmd, t core.Thread) (uint64, bool) {
	return p, x.Kind == XAbort
}
func (politePacked) DecodeCM(p uint64) State { return cmUnit{} }

// karmaPacked packs the four bounded credits at 2 bits each
// (karmaMaxCredit = 2 < 4).
type karmaPacked struct{}

func (karmaPacked) CMBits() int { return 2 * MaxThreads }

func (karmaPacked) InitialCM() uint64 {
	var p uint64
	for t := 0; t < MaxThreads; t++ {
		p |= 1 << (2 * t)
	}
	return p
}

func (karmaPacked) StepCM(p uint64, x XCmd, t core.Thread) (uint64, bool) {
	sh := 2 * uint(t)
	credit := (p >> sh) & 3
	switch x.Kind {
	case XAbort:
		return p &^ (3 << sh), true
	case XRead, XWrite, XCommit:
		if credit < karmaMaxCredit {
			p += 1 << sh
		}
		return p, true
	default:
		if credit == 0 {
			return p, false
		}
		return p - 1<<sh, true
	}
}

func (karmaPacked) DecodeCM(p uint64) State {
	var s karmaState
	for t := 0; t < MaxThreads; t++ {
		s.Credit[t] = uint8((p >> (2 * uint(t))) & 3)
	}
	return s
}

// timidPacked packs the backed-off thread set at 1 bit per thread.
type timidPacked struct{}

func (timidPacked) CMBits() int       { return MaxThreads }
func (timidPacked) InitialCM() uint64 { return 0 }

func (timidPacked) StepCM(p uint64, x XCmd, t core.Thread) (uint64, bool) {
	bit := uint64(1) << uint(t)
	if x.Kind == XAbort {
		return p | bit, true
	}
	if p&bit != 0 {
		return p &^ bit, true
	}
	return p, false
}

func (timidPacked) DecodeCM(p uint64) State {
	return timidState{BackedOff: core.ThreadSet(p)}
}

// opaqueAlg hides everything but the Algorithm interface (embedding an
// interface promotes only its methods), so the explorer cannot see the
// typed extension and must take the generic path. Tests use it to pin
// packed/generic equivalence; it also models a registry TM that never
// opted in.
type opaqueAlg struct{ Algorithm }

// Opaque returns alg stripped to the plain Algorithm interface: the
// packed dispatch will not match it, forcing the explorer's boxed core
// with identical semantics.
func Opaque(alg Algorithm) Algorithm { return opaqueAlg{alg} }

// opaqueCM hides everything but the ContentionManager interface.
type opaqueCM struct{ ContentionManager }

// OpaqueCM returns cm stripped to the plain ContentionManager
// interface, forcing the generic path for the whole product.
func OpaqueCM(cm ContentionManager) ContentionManager {
	if cm == nil {
		return nil
	}
	return opaqueCM{cm}
}
