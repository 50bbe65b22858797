package cache

import (
	"testing"

	"scout/internal/pagestore"
)

func TestShardedPowerOfTwo(t *testing.T) {
	for _, tc := range []struct{ ask, want int }{
		{0, 16}, {1, 1}, {2, 2}, {3, 4}, {5, 8}, {16, 16}, {17, 32},
	} {
		if got := NewSharded(128, tc.ask).ShardCount(); got != tc.want {
			t.Errorf("NewSharded(_, %d).ShardCount() = %d, want %d", tc.ask, got, tc.want)
		}
	}
}

func TestShardedCapacitySplitsExactly(t *testing.T) {
	for _, capacity := range []int{0, 1, 7, 100, 1000} {
		c := NewSharded(capacity, 8)
		if got := c.Capacity(); got != capacity {
			t.Errorf("capacity %d split to %d", capacity, got)
		}
	}
}

// TestShardedNoZeroCapacityShards: a shard count above the capacity is
// halved until every shard can hold a page — otherwise the empty shards'
// slice of the key space would be silently uncacheable.
func TestShardedNoZeroCapacityShards(t *testing.T) {
	c := NewSharded(40, 64)
	if got := c.ShardCount(); got != 32 {
		t.Errorf("ShardCount = %d, want 32 (halved until 40/n ≥ 1)", got)
	}
	if got := c.Capacity(); got != 40 {
		t.Errorf("Capacity = %d, want 40", got)
	}
	for i, s := range c.core.stripes {
		if s.Capacity() == 0 {
			t.Fatalf("shard %d has zero capacity", i)
		}
	}
	// Every page must be cacheable somewhere.
	for p := 0; p < 256; p++ {
		if !c.Insert(pagestore.PageID(p)) {
			t.Fatalf("page %d uncacheable", p)
		}
	}
}

// TestShardedMatchesCacheSingleShard pins the semantic contract: a Sharded
// cache with one shard is exactly the single-threaded LRU under any
// operation sequence.
func TestShardedMatchesCacheSingleShard(t *testing.T) {
	plain := New(8)
	shard := NewSharded(8, 1)
	// A deterministic mixed workload with reuse and eviction pressure.
	for i := 0; i < 500; i++ {
		p := pagestore.PageID((i * 7) % 23)
		switch i % 3 {
		case 0:
			if a, b := plain.Insert(p), shard.Insert(p); a != b {
				t.Fatalf("op %d: Insert(%d) %v vs %v", i, p, a, b)
			}
		case 1:
			if a, b := plain.Lookup(p), shard.Lookup(p); a != b {
				t.Fatalf("op %d: Lookup(%d) %v vs %v", i, p, a, b)
			}
		default:
			if a, b := plain.Contains(p), shard.Contains(p); a != b {
				t.Fatalf("op %d: Contains(%d) %v vs %v", i, p, a, b)
			}
		}
	}
	if plain.Len() != shard.Len() {
		t.Errorf("Len %d vs %d", plain.Len(), shard.Len())
	}
	ps, ss := plain.Stats(), shard.Stats().Stats
	if ps != ss {
		t.Errorf("stats diverge: %+v vs %+v", ps, ss)
	}
}

// TestStripedMatchesSharded pins that the lock-free core and the locked
// wrapper are one cache: under the same operation stream — clears and stat
// resets included — they answer every call alike and end with the same
// contents, statistics and epoch.
func TestStripedMatchesSharded(t *testing.T) {
	for _, tc := range []struct{ capacity, shards int }{{0, 4}, {1, 16}, {7, 4}, {40, 64}, {64, 0}, {300, 8}} {
		core, locked := NewStriped(tc.capacity, tc.shards), NewSharded(tc.capacity, tc.shards)
		if core.ShardCount() != locked.ShardCount() || core.Capacity() != locked.Capacity() {
			t.Fatalf("%+v: %d stripes / capacity %d vs %d / %d", tc, core.ShardCount(), core.Capacity(), locked.ShardCount(), locked.Capacity())
		}
		x := uint32(tc.capacity*31 + tc.shards + 1)
		for i := 0; i < 4000; i++ {
			x = x*1664525 + 1013904223
			p := pagestore.PageID(x % 512)
			var a, b bool
			switch x >> 28 {
			case 0:
				if i%7 == 0 {
					core.Clear()
					locked.Clear()
				}
			case 1:
				if i%5 == 0 {
					core.ResetStats()
					locked.ResetStats()
				}
			case 2, 3:
				a, b = core.Contains(p), locked.Contains(p)
			case 4, 5, 6, 7, 8, 9:
				a, b = core.Insert(p), locked.Insert(p)
			default:
				a, b = core.Lookup(p), locked.Lookup(p)
			}
			if a != b || core.ShardIndex(p) != locked.ShardIndex(p) {
				t.Fatalf("%+v: op %d on page %d: striped %v, sharded %v", tc, i, p, a, b)
			}
		}
		if core.Len() != locked.Len() || core.Stats() != locked.Stats() || core.Epoch() != locked.Epoch() {
			t.Errorf("%+v: striped Len %d %+v, sharded Len %d %+v", tc, core.Len(), core.Stats(), locked.Len(), locked.Stats())
		}
		for p := pagestore.PageID(0); p < 512; p++ {
			if core.Contains(p) != locked.Contains(p) {
				t.Fatalf("%+v: page %d cached on one side only", tc, p)
			}
		}
	}
}

func TestShardedBasicsAndStats(t *testing.T) {
	// Saturate a 64-page cache with 256 distinct pages: every shard sees
	// far more pages than its slice of the capacity, so the cache ends
	// exactly full and the overflow shows up as evictions.
	c := NewSharded(64, 4)
	for i := 0; i < 256; i++ {
		c.Insert(pagestore.PageID(i))
	}
	if c.Len() != 64 {
		t.Fatalf("Len = %d after saturating inserts, want 64", c.Len())
	}
	hits := 0
	for i := 0; i < 256; i++ {
		if c.Lookup(pagestore.PageID(i)) {
			hits++
		}
	}
	if hits != 64 {
		t.Errorf("%d of 256 pages hit, want exactly the 64 resident", hits)
	}
	st := c.Stats()
	if st.Hits != 64 || st.Misses != 192 {
		t.Errorf("stats = %+v, want 64 hits / 192 misses", st.Stats)
	}
	if st.Inserted != 256 || st.Evictions != 192 {
		t.Errorf("stats = %+v, want 256 inserted / 192 evictions", st.Stats)
	}
	if st.Shards != 4 {
		t.Errorf("snapshot shards = %d", st.Shards)
	}
}

func TestShardedEpochStamping(t *testing.T) {
	c := NewSharded(16, 2)
	before := c.Stats()
	if before.Epoch != 0 {
		t.Fatalf("fresh epoch = %d", before.Epoch)
	}
	c.Insert(1)
	c.Clear()
	after := c.Stats()
	if after.Epoch != before.Epoch+1 {
		t.Errorf("epoch after Clear = %d, want %d", after.Epoch, before.Epoch+1)
	}
	if c.Epoch() != after.Epoch {
		t.Errorf("Epoch() = %d, snapshot = %d", c.Epoch(), after.Epoch)
	}
	if c.Len() != 0 {
		t.Errorf("Len after Clear = %d", c.Len())
	}
	if after.Inserted != 1 {
		t.Errorf("Clear dropped stats: %+v", after.Stats)
	}
	c.ResetStats()
	if got := c.Stats(); got.Stats != (Stats{}) {
		t.Errorf("ResetStats left %+v", got.Stats)
	}
}

func TestShardedZeroCapacity(t *testing.T) {
	c := NewSharded(0, 4)
	if c.Insert(3) {
		t.Error("capacity-0 cache accepted a page")
	}
	if c.Lookup(3) {
		t.Error("capacity-0 cache hit")
	}
	if st := c.Stats(); st.Misses != 1 {
		t.Errorf("stats = %+v", st.Stats)
	}
}
