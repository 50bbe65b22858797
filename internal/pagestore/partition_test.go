package pagestore

import (
	"math/rand"
	"testing"
	"time"

	"scout/internal/geom"
)

// partitionStore builds a paginated store of n small random objects.
func partitionStore(t *testing.T, n int, seed int64) *Store {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	objs := make([]Object, n)
	for i := range objs {
		a := geom.V(rng.Float64()*100, rng.Float64()*100, rng.Float64()*100)
		objs[i] = Object{Seg: geom.Seg(a, a.Add(geom.V(1, 0, 0))), Radius: 0.5}
	}
	s := NewStore(objs)
	order := make([]ObjectID, n)
	for i := range order {
		order[i] = ObjectID(i)
	}
	if err := s.Paginate(order, 8); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestPartitionCoversExactly: for a spread of shard counts — including more
// shards than pages — the ranges are contiguous, disjoint, cover [0, n)
// exactly, differ in size by at most one page, and ShardOfPhysical agrees
// with the bounds for every slot.
func TestPartitionCoversExactly(t *testing.T) {
	s := partitionStore(t, 1000, 1)
	n := s.NumPages()
	for _, shards := range []int{1, 2, 3, 5, 8, 16, 64, n, n + 7} {
		p := NewPartition(s, shards)
		if p.Shards() != shards {
			t.Fatalf("shards %d: got %d", shards, p.Shards())
		}
		prevHi := PageID(0)
		minSz, maxSz := n, 0
		for i := 0; i < shards; i++ {
			lo, hi := p.Bounds(i)
			if lo != prevHi {
				t.Fatalf("shards %d: range %d starts at %d, want %d", shards, i, lo, prevHi)
			}
			if hi < lo {
				t.Fatalf("shards %d: range %d inverted [%d,%d)", shards, i, lo, hi)
			}
			if sz := int(hi - lo); sz < minSz {
				minSz = sz
			} else if sz > maxSz {
				maxSz = sz
			}
			prevHi = hi
		}
		if int(prevHi) != n {
			t.Fatalf("shards %d: ranges end at %d, want %d", shards, prevHi, n)
		}
		if shards <= n && maxSz-minSz > 1 {
			t.Fatalf("shards %d: range sizes spread %d..%d", shards, minSz, maxSz)
		}
		for phys := 0; phys < n; phys++ {
			i := p.ShardOfPhysical(PageID(phys))
			lo, hi := p.Bounds(i)
			if PageID(phys) < lo || PageID(phys) >= hi {
				t.Fatalf("shards %d: slot %d mapped to shard %d [%d,%d)", shards, phys, i, lo, hi)
			}
		}
	}
}

// TestPartitionFollowsLayout: ShardOf routes by PHYSICAL slot, so
// relayouting the store reassigns logical pages to shards while the
// partition object itself is unchanged — and under the hilbert layout each
// shard's logical pages are exactly a contiguous run of the hilbert-sorted
// permutation (a Hilbert range of the layout key).
func TestPartitionFollowsLayout(t *testing.T) {
	s := partitionStore(t, 2000, 2)
	p := NewPartition(s, 8)

	before := make([]int, s.NumPages())
	for pg := 0; pg < s.NumPages(); pg++ {
		before[pg] = p.ShardOf(s, PageID(pg))
	}
	if err := s.Relayout(HilbertLayout()); err != nil {
		t.Fatal(err)
	}
	defer s.Relayout(InsertionLayout())

	moved := 0
	for pg := 0; pg < s.NumPages(); pg++ {
		if p.ShardOf(s, PageID(pg)) != before[pg] {
			moved++
		}
	}
	if moved == 0 {
		t.Fatal("hilbert relayout moved no pages across shards")
	}
	// Physical contiguity: walking slots in physical order never revisits a
	// shard after leaving it.
	seen := map[int]bool{}
	last := -1
	for phys := 0; phys < s.NumPages(); phys++ {
		i := p.ShardOfPhysical(PageID(phys))
		if i != last {
			if seen[i] {
				t.Fatalf("shard %d revisited at slot %d", i, phys)
			}
			seen[i] = true
			last = i
		}
	}
}

// TestDiskStatsAdd: Add folds every field and saturates monotone counters
// instead of wrapping.
func TestDiskStatsAdd(t *testing.T) {
	a := DiskStats{PagesRead: 5, Seeks: 2, SimulatedIO: time.Second, BridgedPages: 1,
		FaultRetries: 3, TimedOutReads: 1,
		CorruptPages: 2, RepairedPages: 1,
		ScrubbedPages: 7, ScrubIO: 2 * time.Second, WallRead: 3 * time.Second}
	b := a
	b.Add(a)
	want := DiskStats{PagesRead: 10, Seeks: 4, SimulatedIO: 2 * time.Second, BridgedPages: 2,
		FaultRetries: 6, TimedOutReads: 2,
		CorruptPages: 4, RepairedPages: 2,
		ScrubbedPages: 14, ScrubIO: 4 * time.Second, WallRead: 6 * time.Second}
	if b != want {
		t.Fatalf("Add: got %+v want %+v", b, want)
	}
	c := DiskStats{PagesRead: 1<<63 - 2}
	c.Add(DiskStats{PagesRead: 5})
	if c.PagesRead != 1<<63-1 {
		t.Fatalf("Add did not saturate: %d", c.PagesRead)
	}
}
