// Package pack is the zero-allocation substrate of the state-space
// core: fixed-width bit-packed state keys and an open-addressing hash
// table that interns them.
//
// A TM-algorithm product state (TM state × pending commands × manager
// state) fits in a handful of machine words once each field is written
// at its exact bit width — a (2,2) TL2 product state is 34 bits, the
// worst bounded instance (4 threads, 16 variables) is 300 bits, under
// MaxWords×64. The Writer/Reader pair are LSB-first bit cursors over a
// caller-provided word buffer; the Map stores the packed words
// directly in one dense flat slice (stride = words per key) and probes
// linearly, so interning a state touches no pointers, no interface
// values, and no per-entry heap cells.
package pack

import "math/bits"

// MaxWords is the largest key width (in 64-bit words) the packed state
// path supports: 5×64 = 320 bits covers the worst bounded TM product
// (TL2/ETL at 4 threads and 16 variables needs 300).
const MaxWords = 5

// Writer is an LSB-first bit cursor over a word buffer. The zero
// Writer over a zeroed buffer is ready to use; Put appends fields at
// increasing bit offsets.
type Writer struct {
	W   []uint64
	off uint
}

// Put appends the low width bits of v at the cursor. width must be in
// [0,64] and the buffer must have room; the caller guarantees both
// (widths are fixed per instance at construction time).
func (w *Writer) Put(v uint64, width uint) {
	if width == 0 {
		return
	}
	i, sh := w.off>>6, w.off&63
	w.W[i] |= v << sh
	if sh+width > 64 {
		w.W[i+1] |= v >> (64 - sh)
	}
	w.off += width
}

// Bits returns the number of bits written so far.
func (w *Writer) Bits() int { return int(w.off) }

// Reset points the cursor at the start of buf. Hot paths keep one
// Writer alive and Reset it per key, so taking its address for an
// interface call never allocates.
func (w *Writer) Reset(buf []uint64) { w.W, w.off = buf, 0 }

// Reader is the matching LSB-first bit cursor for decoding.
type Reader struct {
	W   []uint64
	off uint
}

// Reset points the cursor at the start of buf.
func (r *Reader) Reset(buf []uint64) { r.W, r.off = buf, 0 }

// Get reads the next width bits. width must be in [1,64].
func (r *Reader) Get(width uint) uint64 {
	i, sh := r.off>>6, r.off&63
	v := r.W[i] >> sh
	if sh+width > 64 {
		v |= r.W[i+1] << (64 - sh)
	}
	r.off += width
	if width == 64 {
		return v
	}
	return v & (1<<width - 1)
}

// Hash mixes the kw words of a key into a 64-bit hash. It is a fixed
// (seedless) multiply-xor mixer: canonical numbering never depends on
// hash values, so determinism across processes is free and useful.
func Hash(key []uint64) uint64 {
	const m = 0x9e3779b97f4a7c15
	h := uint64(len(key)) * m
	for _, w := range key {
		h ^= w
		h *= m
		h ^= h >> 29
	}
	h ^= h >> 32
	return h
}

// GrowFunc reallocates a flat key slice to capacity ≥ need words,
// preserving its contents and length. The disk-spill layer
// (internal/snap) supplies mmap-backed growers so visited sets larger
// than RAM stay addressable; the returned slice replaces cur, which
// must not be used afterwards.
type GrowFunc func(need int, cur []uint64) []uint64

// Map interns fixed-width keys: an open-addressing hash table that
// numbers each distinct key densely in first-sight order, so KeyAt(id)
// inverts Intern. Key storage is one flat []uint64 at stride kw — no
// per-entry allocation, no interface boxing — and a slot holds its
// entry's id, so there is no value array.
//
// The zero Map is not ready; use NewMap. Map is not safe for
// concurrent use; callers lock.
type Map struct {
	kw       int
	n        int32 // entries
	mask     uint64
	slots    []int32 // entry id + 1; 0 = empty
	keys     []uint64
	growKeys GrowFunc // nil: plain append growth
}

// SetKeyBacking installs a custom allocator for the flat key storage.
// All subsequent key-array growth goes through grow instead of append's
// heap doubling; existing keys migrate on the first growth. The slot
// array (4 bytes per slot) stays on the heap.
func (m *Map) SetKeyBacking(grow GrowFunc) { m.growKeys = grow }

// appendKey appends one key to the dense storage, honoring the custom
// backing when one is installed.
func (m *Map) appendKey(key []uint64) {
	if m.growKeys != nil {
		if need := len(m.keys) + len(key); need > cap(m.keys) {
			m.keys = m.growKeys(need, m.keys)
		}
	}
	m.keys = append(m.keys, key...)
}

// NewMap returns an empty map for keys of kw words, sized for about
// hint entries.
func NewMap(kw, hint int) *Map {
	if kw < 1 {
		kw = 1
	}
	n := uint64(16)
	for int(n)*3 < hint*4 { // capacity ≥ 4/3·hint keeps load ≤ 0.75
		n <<= 1
	}
	return &Map{kw: kw, mask: n - 1, slots: make([]int32, n)}
}

// Len returns the number of entries.
func (m *Map) Len() int { return int(m.n) }

// KeyAt returns the key with id i, aliasing the map's storage; the
// caller must not modify it and must copy it before the next Intern (a
// grow may move the backing array).
func (m *Map) KeyAt(i int32) []uint64 {
	off := int(i) * m.kw
	return m.keys[off : off+m.kw : off+m.kw]
}

func (m *Map) equalAt(e int32, key []uint64) bool {
	off := int(e) * m.kw
	for j, w := range key {
		if m.keys[off+j] != w {
			return false
		}
	}
	return true
}

// Get returns the id of key, if it is interned.
func (m *Map) Get(key []uint64) (int32, bool) {
	i := Hash(key) & m.mask
	for {
		s := m.slots[i]
		if s == 0 {
			return 0, false
		}
		if m.equalAt(s-1, key) {
			return s - 1, true
		}
		i = (i + 1) & m.mask
	}
}

// Intern returns the dense id of key, assigning the next one
// (== Len() before the call) on first sight and copying the key into
// the map's storage.
func (m *Map) Intern(key []uint64) (id int32, fresh bool) {
	i := Hash(key) & m.mask
	for {
		s := m.slots[i]
		if s == 0 {
			break
		}
		if m.equalAt(s-1, key) {
			return s - 1, false
		}
		i = (i + 1) & m.mask
	}
	id = m.n
	m.appendKey(key)
	m.n++
	m.slots[i] = m.n
	if uint64(m.n)*4 > (m.mask+1)*3 {
		m.grow()
	}
	return id, true
}

// grow doubles the slot array and rehashes every entry (the dense key
// storage is untouched).
func (m *Map) grow() {
	n := (m.mask + 1) << 1
	m.mask = n - 1
	m.slots = make([]int32, n)
	for e := int32(0); e < m.n; e++ {
		i := Hash(m.KeyAt(e)) & m.mask
		for m.slots[i] != 0 {
			i = (i + 1) & m.mask
		}
		m.slots[i] = e + 1
	}
}

// WordsFor returns the number of 64-bit words needed for a key of the
// given bit width (at least 1).
func WordsFor(bitWidth int) int {
	if bitWidth <= 0 {
		return 1
	}
	return (bitWidth + 63) / 64
}

// BitsFor returns the width in bits needed to store values 0..n-1
// (0 for n ≤ 1: a single possible value needs no bits).
func BitsFor(n int) int {
	if n <= 1 {
		return 0
	}
	return bits.Len(uint(n - 1))
}
