package core

import (
	"math"
	"math/rand"
	"testing"
)

// checkIDSet compares the set with its reference on the reference's own
// members and on a spread of IDs that may or may not be members.
func checkIDSet(t *testing.T, s *idSet, ref map[uint32]bool, rng *rand.Rand) {
	t.Helper()
	if s.n != len(ref) {
		t.Fatalf("set holds %d IDs, reference %d", s.n, len(ref))
	}
	for id := range ref {
		if !s.has(id) {
			t.Fatalf("member %d missing", id)
		}
	}
	for i := 0; i < 2000; i++ {
		id := rng.Uint32() >> uint(rng.Intn(32))
		if s.has(id) != ref[id] {
			t.Fatalf("has(%d) = %v, reference says %v", id, s.has(id), ref[id])
		}
	}
}

// TestIDSetAgainstMap drives add/has/reset with random IDs — dense runs,
// sparse draws, repeats — against a Go map, over rounds of different sizes so
// the table grows in some rounds and is reused (larger than needed) in others.
func TestIDSetAgainstMap(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	var s idSet
	if s.has(0) || s.has(7) {
		t.Fatal("zero-value set has members")
	}
	for round, size := range []int{10, 1000, 3, 0, 40_000, 500, 40_001} {
		s.reset()
		ref := map[uint32]bool{}
		base := rng.Uint32()
		for i := 0; i < size; i++ {
			id := base + uint32(i) // a run of consecutive IDs
			if i%3 == 0 {
				id = rng.Uint32() >> uint(rng.Intn(32))
			}
			s.add(id)
			s.add(id)
			ref[id] = true
		}
		checkIDSet(t, &s, ref, rng)
		if 2*s.n > len(s.slots) {
			t.Fatalf("round %d: %d IDs in %d slots: load above 1/2", round, s.n, len(s.slots))
		}
	}
}

// TestIDSetGrowsAcrossReset: entries added before a reset must not reappear
// when a later, larger round rehashes the table.
func TestIDSetGrowsAcrossReset(t *testing.T) {
	var s idSet
	for id := uint32(0); id < 30; id++ {
		s.add(id)
	}
	slots := len(s.slots)
	s.reset()
	for id := uint32(1000); id < 1100; id++ {
		s.add(id)
	}
	if len(s.slots) <= slots {
		t.Fatalf("table did not grow: %d slots before, %d after", slots, len(s.slots))
	}
	for id := uint32(0); id < 30; id++ {
		if s.has(id) {
			t.Fatalf("ID %d of the previous epoch survived the rehash", id)
		}
	}
	for id := uint32(1000); id < 1100; id++ {
		if !s.has(id) {
			t.Fatalf("ID %d lost in the rehash", id)
		}
	}
	if s.n != 100 {
		t.Fatalf("set holds %d IDs, want 100", s.n)
	}
}

// TestIDSetEpochWrap: when the epoch counter wraps, stale stamps are cleared
// rather than read as members of the new epoch.
func TestIDSetEpochWrap(t *testing.T) {
	var s idSet
	s.add(5) // epoch 1
	s.epoch = math.MaxUint32
	s.reset() // wraps: epoch 1 again
	if s.epoch != 1 {
		t.Fatalf("epoch after the wrap = %d, want 1", s.epoch)
	}
	if s.has(5) || s.n != 0 {
		t.Fatal("a stamp of the first epoch 1 reads as a member after the wrap")
	}
	s.add(9)
	if !s.has(9) || s.has(5) {
		t.Fatal("set unusable after the wrap")
	}
}
