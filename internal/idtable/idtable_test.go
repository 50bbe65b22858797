package idtable

import (
	"math"
	"math/rand"
	"testing"
	"unsafe"
)

// checkSet compares the set with its reference on the reference's own
// members and on a spread of keys that may or may not be members.
func checkSet[K Key](t *testing.T, s *Set[K], ref map[K]bool, rng *rand.Rand) {
	t.Helper()
	if s.m.n != len(ref) {
		t.Fatalf("set holds %d keys, reference %d", s.m.n, len(ref))
	}
	for k := range ref {
		if !s.Has(k) {
			t.Fatalf("member %d missing", k)
		}
	}
	for i := 0; i < 2000; i++ {
		k := K(rng.Uint64() >> uint(rng.Intn(64)))
		if s.Has(k) != ref[k] {
			t.Fatalf("Has(%d) = %v, reference says %v", k, s.Has(k), ref[k])
		}
	}
}

// testSetAgainstMap drives Add/Has/Reset with random keys — dense runs,
// sparse draws, repeats — against a Go map, over rounds of different sizes
// so the table grows in some rounds and is reused (larger than needed) in
// others.
func testSetAgainstMap[K Key](t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	var s Set[K]
	if s.Has(0) || s.Has(7) {
		t.Fatal("zero-value set has members")
	}
	for round, size := range []int{10, 1000, 3, 0, 40_000, 500, 40_001} {
		s.Reset()
		ref := map[K]bool{}
		base := K(rng.Uint64())
		for i := 0; i < size; i++ {
			k := base + K(i) // a run of consecutive keys
			if i%3 == 0 {
				k = K(rng.Uint64() >> uint(rng.Intn(64)))
			}
			s.Add(k)
			s.Add(k)
			ref[k] = true
		}
		checkSet(t, &s, ref, rng)
		if 4*s.m.n > 3*len(s.m.slots) {
			t.Fatalf("round %d: %d keys in %d slots: load above 3/4", round, s.m.n, len(s.m.slots))
		}
	}
}

func TestSetAgainstMap(t *testing.T) {
	t.Run("uint32", testSetAgainstMap[uint32])
	t.Run("uint64", testSetAgainstMap[uint64])
}

// testSetGrowsAcrossReset: keys added before a Reset must not reappear when
// a later, larger round rehashes the table.
func testSetGrowsAcrossReset[K Key](t *testing.T) {
	var s Set[K]
	for k := K(0); k < 30; k++ {
		s.Add(k)
	}
	slots := len(s.m.slots)
	s.Reset()
	for k := K(1000); k < 1100; k++ {
		s.Add(k)
	}
	if len(s.m.slots) <= slots {
		t.Fatalf("table did not grow: %d slots before, %d after", slots, len(s.m.slots))
	}
	for k := K(0); k < 30; k++ {
		if s.Has(k) {
			t.Fatalf("key %d of the previous epoch survived the rehash", k)
		}
	}
	for k := K(1000); k < 1100; k++ {
		if !s.Has(k) {
			t.Fatalf("key %d lost in the rehash", k)
		}
	}
	if s.m.n != 100 {
		t.Fatalf("set holds %d keys, want 100", s.m.n)
	}
}

func TestSetGrowsAcrossReset(t *testing.T) {
	t.Run("uint32", testSetGrowsAcrossReset[uint32])
	t.Run("uint64", testSetGrowsAcrossReset[uint64])
}

// TestMapGetPut: a value reads back after Put, a second Put overwrites it,
// an absent key misses, and Reset hides every entry even across a later
// growth that rehashes the table.
func TestMapGetPut(t *testing.T) {
	var m Map[uint64, int32]
	if _, ok := m.Get(0); ok {
		t.Fatal("zero-value map has key 0")
	}
	key := func(i int) uint64 { return uint64(i)<<40 | uint64(i) } // high bits set
	for i := 0; i < 40; i++ {
		m.Put(key(i), int32(i))
	}
	for i := 0; i < 40; i++ {
		if v, ok := m.Get(key(i)); !ok || v != int32(i) {
			t.Fatalf("Get(%#x) = %d, %v; want %d, true", key(i), v, ok, i)
		}
	}
	m.Put(key(7), -7)
	if v, ok := m.Get(key(7)); !ok || v != -7 {
		t.Fatalf("after overwrite Get = %d, %v; want -7, true", v, ok)
	}
	if m.n != 40 {
		t.Fatalf("overwrite changed the count: %d entries, want 40", m.n)
	}
	for _, k := range []uint64{1, 40, key(40), math.MaxUint64} {
		if v, ok := m.Get(k); ok || v != 0 {
			t.Fatalf("absent key %#x reads %d, %v", k, v, ok)
		}
	}

	slots := len(m.slots)
	m.Reset()
	m.Put(key(1000), 1000) // a live entry, so Get probes instead of answering from n == 0
	for i := 0; i < 40; i++ {
		if _, ok := m.Get(key(i)); ok {
			t.Fatalf("key %#x survived Reset", key(i))
		}
	}
	for i := 1001; i < 1500; i++ {
		m.Put(key(i), int32(i))
	}
	if len(m.slots) <= slots {
		t.Fatalf("table did not grow: %d slots before, %d after", slots, len(m.slots))
	}
	for i := 0; i < 40; i++ {
		if _, ok := m.Get(key(i)); ok {
			t.Fatalf("key %#x of the previous epoch survived the rehash", key(i))
		}
	}
	for i := 1000; i < 1500; i++ {
		if v, ok := m.Get(key(i)); !ok || v != int32(i) {
			t.Fatalf("Get(%#x) = %d, %v after growth; want %d, true", key(i), v, ok, i)
		}
	}
}

// TestEpochWrap: when the stamp wraps, stale stamps are cleared rather than
// read as live entries of the new epoch.
func TestEpochWrap(t *testing.T) {
	var m Map[uint32, int32]
	for k := uint32(0); k < 20; k++ {
		m.Put(k, int32(k)) // stamped 1
	}
	m.gen = math.MaxUint32
	m.Reset() // wraps: stamp 1 again
	if m.gen != 1 {
		t.Fatalf("stamp after the wrap = %d, want 1", m.gen)
	}
	m.Put(100, 100) // a live entry, so Get probes instead of answering from n == 0
	for k := uint32(0); k < 20; k++ {
		if v, ok := m.Get(k); ok {
			t.Fatalf("key %d of the first epoch 1 reads live (%d) after the wrap", k, v)
		}
	}
	if v, ok := m.Get(100); !ok || v != 100 || m.n != 1 {
		t.Fatalf("map unusable after the wrap: Get(100) = %d, %v with %d entries", v, ok, m.n)
	}

	var s Set[uint64]
	s.Add(5)
	s.m.gen = math.MaxUint32
	s.Reset()
	s.Add(9)
	if s.Has(5) || !s.Has(9) {
		t.Fatal("set: a stamp of the first epoch 1 reads as a member after the wrap")
	}
}

// TestSlotSizes pins the slot layout: one stamp, the value, then the key,
// with no padding after a zero-size value.
func TestSlotSizes(t *testing.T) {
	for _, c := range []struct {
		name      string
		got, want uintptr
	}{
		{"Map[uint32, int32]", unsafe.Sizeof(slot[uint32, int32]{}), 12},
		{"Map[uint64, int32]", unsafe.Sizeof(slot[uint64, int32]{}), 16},
		{"Set[uint32]", unsafe.Sizeof(slot[uint32, struct{}]{}), 8},
	} {
		if c.got != c.want {
			t.Errorf("%s slot is %d bytes, want %d", c.name, c.got, c.want)
		}
	}
}

// BenchmarkGet times hits and misses on the two shapes the hot path probes:
// a result set of object IDs (Set[uint32], mostly clustered IDs) and a
// world-keyed cell directory (Map[uint64, int32], packed lattice keys along
// voxel walks). ns/op is per probe.
func BenchmarkGet(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	ids := make([]uint32, 4096)
	for i := range ids {
		ids[i] = uint32(rng.Intn(1 << 20))
	}
	var set Set[uint32]
	for _, id := range ids[:2048] {
		set.Add(id)
	}
	b.Run("set-uint32", func(b *testing.B) {
		hits := 0
		for i := 0; i < b.N; i++ {
			if set.Has(ids[i&4095]) {
				hits++
			}
		}
		sinkInt = hits
	})
	keys := make([]uint64, 4096)
	for i := range keys {
		x, y, z := uint64(rng.Intn(32)), uint64(rng.Intn(32)), uint64(rng.Intn(32))
		keys[i] = (x+1<<20)<<42 | (y+1<<20)<<21 | (z + 1<<20)
	}
	var cells Map[uint64, int32]
	for i, k := range keys[:2048] {
		cells.Put(k, int32(i))
	}
	b.Run("map-uint64", func(b *testing.B) {
		sum := int32(0)
		for i := 0; i < b.N; i++ {
			if v, ok := cells.Get(keys[i&4095]); ok {
				sum += v
			}
		}
		sinkInt = int(sum)
	})
}

var sinkInt int
