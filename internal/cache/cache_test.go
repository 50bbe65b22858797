package cache

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"scout/internal/pagestore"
)

func TestCacheBasicHitMiss(t *testing.T) {
	c := New(4)
	if c.Lookup(1) {
		t.Error("hit on empty cache")
	}
	c.Insert(1)
	if !c.Lookup(1) {
		t.Error("miss after insert")
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Inserted != 1 {
		t.Errorf("stats = %+v", st)
	}
	if got := st.HitRate(); got != 0.5 {
		t.Errorf("HitRate = %v", got)
	}
}

func TestCacheLRUEviction(t *testing.T) {
	c := New(3)
	c.Insert(1)
	c.Insert(2)
	c.Insert(3)
	// Touch 1 so 2 becomes LRU.
	if !c.Lookup(1) {
		t.Fatal("1 missing")
	}
	c.Insert(4) // evicts 2
	if c.Contains(2) {
		t.Error("2 not evicted")
	}
	for _, p := range []pagestore.PageID{1, 3, 4} {
		if !c.Contains(p) {
			t.Errorf("%d missing", p)
		}
	}
	if c.Stats().Evictions != 1 {
		t.Errorf("Evictions = %d", c.Stats().Evictions)
	}
}

func TestCacheInsertRefreshesRecency(t *testing.T) {
	c := New(2)
	c.Insert(1)
	c.Insert(2)
	c.Insert(1) // refresh, not duplicate
	if c.Len() != 2 {
		t.Fatalf("Len = %d", c.Len())
	}
	c.Insert(3) // evicts 2 (LRU), not 1
	if !c.Contains(1) || c.Contains(2) || !c.Contains(3) {
		t.Error("refresh on insert did not update recency")
	}
}

func TestCacheZeroCapacity(t *testing.T) {
	c := New(0)
	if c.Insert(1) {
		t.Error("insert succeeded at capacity 0")
	}
	if c.Lookup(1) {
		t.Error("hit at capacity 0")
	}
	if c.Len() != 0 {
		t.Errorf("Len = %d", c.Len())
	}
}

func TestCacheNegativeCapacityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative capacity did not panic")
		}
	}()
	New(-1)
}

func TestCacheClearKeepsStats(t *testing.T) {
	c := New(4)
	c.Insert(1)
	c.Lookup(1)
	c.Lookup(99)
	c.Clear()
	if c.Len() != 0 || c.Contains(1) {
		t.Error("Clear left pages behind")
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 {
		t.Errorf("Clear dropped stats: %+v", st)
	}
	c.ResetStats()
	if c.Stats() != (Stats{}) {
		t.Error("ResetStats did not zero stats")
	}
	// Cache still works after Clear.
	c.Insert(5)
	if !c.Lookup(5) {
		t.Error("cache broken after Clear")
	}
}

func TestCacheContainsDoesNotCount(t *testing.T) {
	c := New(4)
	c.Insert(1)
	c.Contains(1)
	c.Contains(2)
	if st := c.Stats(); st.Hits != 0 || st.Misses != 0 {
		t.Errorf("Contains counted: %+v", st)
	}
}

// shadow is the reference LRU the cache is compared against: the cached
// pages as a plain slice in recency order, most recent first.
type shadow struct {
	capacity int
	pages    []pagestore.PageID
	stats    Stats
}

func (s *shadow) index(p pagestore.PageID) int {
	for i, q := range s.pages {
		if q == p {
			return i
		}
	}
	return -1
}

// toFront moves pages[i] to the front; i == len(pages) prepends p instead.
func (s *shadow) toFront(i int, p pagestore.PageID) {
	if i == len(s.pages) {
		s.pages = append(s.pages, p)
	}
	copy(s.pages[1:i+1], s.pages[:i])
	s.pages[0] = p
}

func (s *shadow) contains(p pagestore.PageID) bool { return s.index(p) >= 0 }

func (s *shadow) lookup(p pagestore.PageID) bool {
	i := s.index(p)
	if i < 0 {
		s.stats.Misses++
		return false
	}
	s.stats.Hits++
	s.toFront(i, p)
	return true
}

func (s *shadow) insert(p pagestore.PageID) bool {
	if s.capacity == 0 {
		return false
	}
	if i := s.index(p); i >= 0 {
		s.toFront(i, p)
		return true
	}
	if len(s.pages) == s.capacity {
		s.pages = s.pages[:len(s.pages)-1]
		s.stats.Evictions++
	}
	s.toFront(len(s.pages), p)
	s.stats.Inserted++
	return true
}

func (s *shadow) clear() { s.pages = s.pages[:0] }

// Operations of the shadow-model tests; the fuzz target decodes the first
// four from its byte stream.
const (
	opInsert = iota
	opLookup
	opContains
	opClear
	opResetStats
)

// applyOp runs one operation on the cache and on the shadow and compares
// everything observable — the answer, Len, Stats, the whole recency order —
// plus the cache's structural invariants.
func applyOp(c *Cache, s *shadow, op int, p pagestore.PageID) error {
	var got, want bool
	switch op {
	case opInsert:
		got, want = c.Insert(p), s.insert(p)
	case opLookup:
		got, want = c.Lookup(p), s.lookup(p)
	case opContains:
		got, want = c.Contains(p), s.contains(p)
	case opClear:
		c.Clear()
		s.clear()
	case opResetStats:
		c.ResetStats()
		s.stats = Stats{}
	}
	if got != want {
		return fmt.Errorf("answer %v, shadow %v", got, want)
	}
	if c.Len() != len(s.pages) {
		return fmt.Errorf("Len = %d, shadow %d", c.Len(), len(s.pages))
	}
	if c.Stats() != s.stats {
		return fmt.Errorf("Stats = %+v, shadow %+v", c.Stats(), s.stats)
	}
	if order := c.order(); !slices.Equal(order, s.pages) {
		return fmt.Errorf("recency order %v, shadow %v", order, s.pages)
	}
	return c.check()
}

// clusterKeys returns n keys, found by search, whose home slots in a table
// of tableSize slots are its last three slots and its first two, round
// robin. Smaller tables see the same homes (a home is the hash's low bits),
// so at every size the keys form one probe run that wraps around the end of
// the array, and evicting from it shifts slots backwards across index 0 —
// past keys whose home is slot 0 or 1 and which must not cross.
func clusterKeys(n, tableSize int) []pagestore.PageID {
	mask := uint32(tableSize - 1)
	homes := []uint32{mask - 2, mask - 1, mask, 0, 1}
	keys := make([]pagestore.PageID, 0, n)
	next := make([]pagestore.PageID, len(homes)) // where each home's search resumes
	for len(keys) < n {
		h := len(keys) % len(homes)
		for hashPage(next[h])&mask != homes[h] {
			next[h]++
		}
		keys = append(keys, next[h])
		next[h]++
	}
	return keys
}

// The cache agrees with the reference LRU after every operation, for
// capacities on both sides of every table size and key sets chosen for what
// an open-addressed table can get wrong.
func TestCacheRandomizedInvariants(t *testing.T) {
	universes := []struct {
		name string
		keys func(capacity int) []pagestore.PageID
	}{
		{"dense", func(capacity int) []pagestore.PageID {
			keys := make([]pagestore.PageID, max(64, 2*capacity))
			for i := range keys {
				keys[i] = pagestore.PageID(i)
			}
			return keys
		}},
		{"sparse", func(capacity int) []pagestore.PageID {
			// Both ends and the middle of uint32, key 0 included.
			keys := make([]pagestore.PageID, max(64, 2*capacity))
			for i := range keys {
				switch k := uint32(i / 3); i % 3 {
				case 0:
					keys[i] = pagestore.PageID(k)
				case 1:
					keys[i] = pagestore.PageID(math.MaxUint32 - k)
				default:
					keys[i] = pagestore.PageID(1<<31 + k*0x10001)
				}
			}
			return keys
		}},
		{"adversarial", func(capacity int) []pagestore.PageID {
			// 8192 slots is beyond what any capacity below grows to.
			return clusterKeys(max(64, 2*capacity), 8192)
		}},
	}
	for _, capacity := range []int{1, 2, 16, 100, 1893} {
		for _, u := range universes {
			t.Run(fmt.Sprintf("cap=%d/%s", capacity, u.name), func(t *testing.T) {
				keys := u.keys(capacity)
				c := New(capacity)
				s := &shadow{capacity: capacity}
				rng := rand.New(rand.NewSource(77))
				// Long enough to fill the cache, evict for a while, be
				// cleared (only ever from full) and start over.
				ops := 3000 + 4*capacity
				filled, clears, wrapped := false, 0, false
				for i := 0; i < ops; i++ {
					p := keys[rng.Intn(len(keys))]
					op := opInsert
					switch r := rng.Intn(100); {
					case c.Len() == capacity && rng.Intn(capacity/4+50) == 0:
						op = opClear
						clears++
					case r < 50:
					case r < 80:
						op = opLookup
					case r < 98:
						op = opContains
					default:
						op = opResetStats
					}
					if err := applyOp(c, s, op, p); err != nil {
						t.Fatalf("op %d (kind %d, page %d): %v", i, op, p, err)
					}
					filled = filled || c.Len() == capacity
					wrapped = wrapped || (c.Len() > 1 && c.table[0].ref != 0 && c.table[len(c.table)-1].ref != 0)
				}
				// The workload must have reached what it is here to test.
				if !filled || clears == 0 {
					t.Errorf("cache filled: %v, clears: %d", filled, clears)
				}
				if u.name == "adversarial" && capacity > 1 && !wrapped {
					t.Error("no probe run ever wrapped around the end of the table")
				}
			})
		}
	}
}

func TestStatsHitRateEmpty(t *testing.T) {
	if (Stats{}).HitRate() != 0 {
		t.Error("empty HitRate != 0")
	}
}
