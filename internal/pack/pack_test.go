package pack

import (
	"math/rand"
	"testing"
)

func TestWriterReaderRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		var widths []uint
		var vals []uint64
		total := 0
		for total < MaxWords*64-64 {
			w := uint(rng.Intn(64) + 1)
			widths = append(widths, w)
			var v uint64
			if w == 64 {
				v = rng.Uint64()
			} else {
				v = rng.Uint64() & (1<<w - 1)
			}
			vals = append(vals, v)
			total += int(w)
		}
		var buf [MaxWords]uint64
		wr := Writer{W: buf[:]}
		for i, w := range widths {
			wr.Put(vals[i], w)
		}
		if wr.Bits() != total {
			t.Fatalf("Bits() = %d, want %d", wr.Bits(), total)
		}
		rd := Reader{W: buf[:]}
		for i, w := range widths {
			if got := rd.Get(w); got != vals[i] {
				t.Fatalf("trial %d field %d (width %d): got %#x, want %#x", trial, i, w, got, vals[i])
			}
		}
	}
}

func TestWriterZeroWidth(t *testing.T) {
	var buf [1]uint64
	wr := Writer{W: buf[:]}
	wr.Put(0, 0)
	wr.Put(5, 3)
	wr.Put(99, 0)
	wr.Put(1, 1)
	rd := Reader{W: buf[:]}
	if got := rd.Get(3); got != 5 {
		t.Fatalf("after zero-width put: got %d, want 5", got)
	}
	if got := rd.Get(1); got != 1 {
		t.Fatalf("second field: got %d, want 1", got)
	}
}

func TestMapInternDenseIDs(t *testing.T) {
	for _, kw := range []int{1, 2, 5} {
		m := NewMap(kw, 0)
		rng := rand.New(rand.NewSource(int64(kw)))
		keys := make([][]uint64, 0, 3000)
		seen := map[[MaxWords]uint64]int32{}
		for i := 0; i < 3000; i++ {
			k := make([]uint64, kw)
			// Small value range forces duplicates.
			for j := range k {
				k[j] = uint64(rng.Intn(40))
			}
			keys = append(keys, k)
			var arr [MaxWords]uint64
			copy(arr[:], k)
			id, fresh := m.Intern(k)
			if want, ok := seen[arr]; ok {
				if fresh || id != want {
					t.Fatalf("kw=%d: re-intern gave (%d,%v), want (%d,false)", kw, id, fresh, want)
				}
			} else {
				if !fresh || int(id) != len(seen) {
					t.Fatalf("kw=%d: first intern gave (%d,%v), want (%d,true)", kw, id, fresh, len(seen))
				}
				seen[arr] = id
			}
		}
		if m.Len() != len(seen) {
			t.Fatalf("kw=%d: Len=%d, want %d", kw, m.Len(), len(seen))
		}
		// Every distinct key must be retrievable, and KeyAt must invert.
		for arr, id := range seen {
			got, ok := m.Get(arr[:kw])
			if !ok || got != id {
				t.Fatalf("kw=%d: Get = (%d,%v), want (%d,true)", kw, got, ok, id)
			}
			stored := m.KeyAt(id)
			for j := 0; j < kw; j++ {
				if stored[j] != arr[j] {
					t.Fatalf("kw=%d: KeyAt(%d) mismatch", kw, id)
				}
			}
		}
		_ = keys
	}
}

func TestMapPutOverwriteAndReset(t *testing.T) {
	m := NewMap(2, 4)
	k1 := []uint64{1, 2}
	k2 := []uint64{3, 4}
	m.Put(k1, 10)
	m.Put(k2, 20)
	m.Put(k1, 11)
	if v, ok := m.Get(k1); !ok || v != 11 {
		t.Fatalf("overwrite: got (%d,%v)", v, ok)
	}
	if m.Len() != 2 {
		t.Fatalf("Len = %d, want 2", m.Len())
	}
	m.Reset()
	if m.Len() != 0 {
		t.Fatalf("after Reset: Len = %d", m.Len())
	}
	if _, ok := m.Get(k1); ok {
		t.Fatal("after Reset: stale key still present")
	}
	m.Put(k1, 7)
	if v, ok := m.Get(k1); !ok || v != 7 {
		t.Fatalf("reuse after Reset: got (%d,%v)", v, ok)
	}
}

func TestGetOrPutMinUpdatePattern(t *testing.T) {
	// GetOrPut inserts on first sight and reports the stored value on
	// every later hit, without overwriting it.
	m := NewMap(1, 0)
	idx, fresh := m.GetOrPut([]uint64{42}, int32(m.Len()))
	if !fresh || idx != 0 {
		t.Fatalf("first GetOrPut: (%d,%v)", idx, fresh)
	}
	idx2, fresh2 := m.GetOrPut([]uint64{42}, int32(m.Len()))
	if fresh2 || idx2 != 0 {
		t.Fatalf("second GetOrPut: (%d,%v)", idx2, fresh2)
	}
}

func TestBitsForWordsFor(t *testing.T) {
	cases := []struct{ n, want int }{{0, 0}, {1, 0}, {2, 1}, {3, 2}, {4, 2}, {5, 3}, {16, 4}, {17, 5}}
	for _, c := range cases {
		if got := BitsFor(c.n); got != c.want {
			t.Errorf("BitsFor(%d) = %d, want %d", c.n, got, c.want)
		}
	}
	if WordsFor(0) != 1 || WordsFor(64) != 1 || WordsFor(65) != 2 || WordsFor(300) != 5 {
		t.Errorf("WordsFor wrong: %d %d %d %d", WordsFor(0), WordsFor(64), WordsFor(65), WordsFor(300))
	}
}

func TestMapGrowKeepsEntries(t *testing.T) {
	m := NewMap(1, 0)
	for i := 0; i < 10000; i++ {
		m.Put([]uint64{uint64(i)}, int32(i))
	}
	for i := 0; i < 10000; i++ {
		if v, ok := m.Get([]uint64{uint64(i)}); !ok || v != int32(i) {
			t.Fatalf("after grow: Get(%d) = (%d,%v)", i, v, ok)
		}
	}
}
