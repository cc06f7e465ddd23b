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
		if id, fresh := m.Intern([]uint64{uint64(i)}); !fresh || id != int32(i) {
			t.Fatalf("Intern(%d) = (%d,%v)", i, id, fresh)
		}
	}
	for i := 0; i < 10000; i++ {
		if v, ok := m.Get([]uint64{uint64(i)}); !ok || v != int32(i) {
			t.Fatalf("after grow: Get(%d) = (%d,%v)", i, v, ok)
		}
	}
}

// TestMapAppendUnhashed pins Append: an appended key takes the next id
// and KeyAt returns it, but Get and Intern never find it; growth keeps
// every hashed entry findable under its id; and only hashed entries
// count towards the load factor.
func TestMapAppendUnhashed(t *testing.T) {
	key := func(i int) []uint64 { return []uint64{uint64(i), uint64(i) * 7} }
	m := NewMap(2, 0)
	const n = 3000
	for i := 0; i < n; i++ {
		if i%3 == 0 {
			if id, fresh := m.Intern(key(i)); !fresh || id != int32(i) {
				t.Fatalf("Intern(%d) = (%d,%v), want (%d,true)", i, id, fresh, i)
			}
		} else if id := m.Append(key(i)); id != int32(i) {
			t.Fatalf("Append(%d) = %d", i, id)
		}
	}
	if m.Len() != n {
		t.Fatalf("Len = %d, want %d", m.Len(), n)
	}
	for i := 0; i < n; i++ {
		if got := m.KeyAt(int32(i)); got[0] != key(i)[0] || got[1] != key(i)[1] {
			t.Fatalf("KeyAt(%d) = %v, want %v", i, got, key(i))
		}
		id, ok := m.Get(key(i))
		if i%3 == 0 && (!ok || id != int32(i)) {
			t.Fatalf("hashed key %d: Get = (%d,%v), want (%d,true)", i, id, ok, i)
		}
		if i%3 != 0 && ok {
			t.Fatalf("appended key %d: Get found it at %d", i, id)
		}
	}
	// 1000 hashed entries fit 2048 slots at load ≤ 0.75; all 3000 would
	// need 4096.
	if len(m.slots) != 2048 {
		t.Errorf("%d slots for 1000 hashed of %d entries, want 2048", len(m.slots), n)
	}
	if id, fresh := m.Intern(key(1)); !fresh || id != n {
		t.Fatalf("Intern of appended key 1 = (%d,%v), want a fresh entry %d", id, fresh, n)
	}
	if id, ok := m.Get(key(1)); !ok || id != n {
		t.Fatalf("Get(key 1) after Intern = (%d,%v), want (%d,true)", id, ok, n)
	}

	// Appends alone never grow the slot array.
	m = NewMap(1, 0)
	for i := 0; i < 100; i++ {
		m.Append([]uint64{uint64(i)})
	}
	for i := 100; i < 112; i++ {
		m.Intern([]uint64{uint64(i)})
	}
	if len(m.slots) != 16 {
		t.Errorf("12 hashed of 112 entries: %d slots, want 16", len(m.slots))
	}
	m.Intern([]uint64{112})
	if len(m.slots) != 32 {
		t.Errorf("13 hashed entries: %d slots, want 32", len(m.slots))
	}
}

// TestMapWidensIDField interns and appends past 2^16 and 2^17 ids,
// interleaved as the product walk's pair table does (most keys
// appended, a quarter interned, every interned key looked up again as a
// duplicate), and checks every id and every Get/Intern/KeyAt round trip
// just before and after each widening of the slots' id field.
func TestMapWidensIDField(t *testing.T) {
	key := func(i int) []uint64 { return []uint64{uint64(i) * 0x9e3779b9, uint64(i)} }
	hashed := func(i int) bool { return i%4 == 1 }
	m := NewMap(2, 0)
	verify := func(n int) {
		t.Helper()
		if m.Len() != n {
			t.Fatalf("Len = %d, want %d", m.Len(), n)
		}
		for i := 0; i < n; i++ {
			if got := m.KeyAt(int32(i)); got[0] != key(i)[0] || got[1] != key(i)[1] {
				t.Fatalf("after %d ids: KeyAt(%d) = %v, want %v", n, i, got, key(i))
			}
			id, ok := m.Get(key(i))
			if !hashed(i) {
				if ok {
					t.Fatalf("after %d ids: appended key %d found at %d", n, i, id)
				}
				continue
			}
			if !ok || id != int32(i) {
				t.Fatalf("after %d ids: Get(key %d) = (%d,%v), want (%d,true)", n, i, id, ok, i)
			}
			if id, fresh := m.Intern(key(i)); fresh || id != int32(i) {
				t.Fatalf("after %d ids: Intern(key %d) = (%d,%v), want (%d,false)", n, i, id, fresh, i)
			}
		}
	}
	const n = 1<<17 + 4096
	checks := map[int]bool{1<<16 - 2: true, 1<<16 - 1: true, 1 << 16: true, 1<<16 + 1: true,
		1<<17 - 2: true, 1<<17 - 1: true, 1 << 17: true, 1<<17 + 1: true, n: true}
	for i := 0; i < n; i++ {
		if checks[i] {
			verify(i)
		}
		if hashed(i) {
			if id, fresh := m.Intern(key(i)); !fresh || id != int32(i) {
				t.Fatalf("Intern(key %d) = (%d,%v), want (%d,true)", i, id, fresh, i)
			}
			j := i/2&^3 | 1 // an earlier interned key
			if id, fresh := m.Intern(key(j)); fresh || id != int32(j) {
				t.Fatalf("re-Intern(key %d) = (%d,%v), want (%d,false)", j, id, fresh, j)
			}
		} else if id := m.Append(key(i)); id != int32(i) {
			t.Fatalf("Append(key %d) = %d", i, id)
		}
	}
	verify(n)
	if m.idBits != 18 {
		t.Errorf("id field of %d bits for %d ids, want 18", m.idBits, n)
	}
}
