package explore

import (
	"fmt"

	"tmcheck/internal/pack"
	"tmcheck/internal/tm"
)

// The checkpoint/resume vocabulary of the packed scan. The persistence
// layer itself (internal/snap) lives above explore; this file defines
// only what the scan needs to see: a canonical prefix to seed from, a
// sink to stream level deltas into, and an optional spill-backed
// allocator for the flat key storage. Because the numbering is
// first-sight scan order, the interned prefix at any level barrier is
// canonical — a snapshot taken there resumes to the same states, edges,
// and verdicts no matter which check continues it.

// ResumeState is a canonical exploration prefix captured at a level
// barrier: all interned keys in id order (flat, stride = key words),
// the resolved adjacency of the expanded states, and the two barrier
// coordinates. Interned == Expanded means the scan had completed.
// The slices are owned by the snapshot layer and must not be mutated.
type ResumeState struct {
	Keys               []uint64
	Out                [][]Edge
	Interned, Expanded int
}

// LevelSink receives the delta of one level barrier: the keys of the
// states interned since the previous barrier (flat, id order) and the
// full adjacency slice, of which [prevExpanded, expanded) is new. The
// edge slices obey the Barrier stability contract (they never move),
// so a sink may retain them. AppendLevel is called with barriers in
// order; an error stops the scan and is returned verbatim.
type LevelSink interface {
	AppendLevel(newKeys []uint64, out [][]Edge, prevInterned, interned, prevExpanded, expanded int) error
}

// Persist bundles the checkpoint/resume/spill hooks of one build. Any
// field may be nil: Resume seeds the scan from a canonical prefix,
// Sink streams level deltas out, and Grow rebacks the intern table's
// flat key storage.
type Persist struct {
	Resume *ResumeState
	Sink   LevelSink
	Grow   pack.GrowFunc
}

// PersistProvider resolves the persistence hooks for one system of a
// run — the indirection that lets safety/liveness drivers thread
// checkpointing through without importing the snapshot layer.
type PersistProvider func(alg tm.Algorithm, cm tm.ContentionManager) (*Persist, error)

// PackedInfo reports the packed-key geometry of the product — key
// width in words and in bits — or ok == false when the system cannot
// run on the packed engines (and therefore cannot checkpoint or
// spill).
func PackedInfo(alg tm.Algorithm, cm tm.ContentionManager) (kw, keyBits int, ok bool) {
	pc := packedFor(alg, cm)
	if pc == nil {
		return 0, 0, false
	}
	return pc.keyWords(), pc.keyBits(), true
}

// errNotPackable is the loud refusal for checkpoint/spill on a system
// outside the packed engines (user-registered TM/CM or an oversized
// product key): silently exploring without persistence would discard
// exactly the work the caller asked to keep.
func errNotPackable(alg tm.Algorithm, cm tm.ContentionManager) error {
	return fmt.Errorf("explore: %s is not bit-packable; -checkpoint/-resume/-spill require a packed system", System{alg, cm}.Name())
}

// sinkFlusher tracks the barrier coordinates already persisted and
// appends each new delta exactly once; no-progress barriers are
// skipped so an idempotent sink never sees empty records.
type sinkFlusher struct {
	sink         LevelSink
	prevI, prevE int
	keyBuf       []uint64
}

func newSinkFlusher(p *Persist) *sinkFlusher {
	if p == nil || p.Sink == nil {
		return nil
	}
	f := &sinkFlusher{sink: p.Sink}
	if p.Resume != nil {
		f.prevI, f.prevE = p.Resume.Interned, p.Resume.Expanded
	}
	return f
}

// flush persists the delta up to (interned, expanded); keyAt yields
// the key of one interned state (the flusher copies it immediately).
func (f *sinkFlusher) flush(keyAt func(i int32) []uint64, out [][]Edge, interned, expanded int) error {
	if f == nil || (interned == f.prevI && expanded == f.prevE) {
		return nil
	}
	f.keyBuf = f.keyBuf[:0]
	for i := f.prevI; i < interned; i++ {
		f.keyBuf = append(f.keyBuf, keyAt(int32(i))...)
	}
	if err := f.sink.AppendLevel(f.keyBuf, out, f.prevI, interned, f.prevE, expanded); err != nil {
		return err
	}
	f.prevI, f.prevE = interned, expanded
	return nil
}
