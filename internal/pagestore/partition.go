package pagestore

// Partition splits the physical address space [0, NumPages) into S
// contiguous ranges of near-equal size (±1 page). Physical order IS layout
// order — under the hilbert layout the installed permutation sorts pages by
// the Hilbert key of their centroid (layout.go), so each range is a Hilbert
// range of the layout key and spatially close pages land on the same shard.
// Under the insertion layout the ranges are insertion-order stripes, which
// is exactly the locality-oblivious baseline the shard1 experiment
// contrasts against.
//
// A Partition is immutable after construction and safe for concurrent use;
// it depends only on the page count and shard count, never on which layout
// is installed, so relayouting a store reassigns pages to shards without
// rebuilding the partition.
type Partition struct {
	shards   int
	replicas int
	n        int
	// bounds[i] is the first physical slot of shard i; bounds[shards] == n.
	// Shard i owns physical [bounds[i], bounds[i+1]).
	bounds []PageID
}

// NewPartition builds an S-way partition over the store's physical slots.
// Shard counts below 1 are clamped to 1. When S exceeds the page count the
// trailing shards own empty ranges and never receive pages.
func NewPartition(s *Store, shards int) *Partition {
	return NewReplicatedPartition(s, shards, 1)
}

// NewReplicatedPartition is NewPartition with K-way chained range
// replication (DESIGN.md §13): each shard's range is also readable from the
// next replicas-1 shards in index order (mod S), so shard j's replica chain
// is j, (j+1)%S, ..., (j+R-1)%S. Replication degrees are clamped to
// [1, shards]; replicas == 1 is exactly the unreplicated partition.
func NewReplicatedPartition(s *Store, shards, replicas int) *Partition {
	if shards < 1 {
		shards = 1
	}
	if replicas < 1 {
		replicas = 1
	}
	if replicas > shards {
		replicas = shards
	}
	n := s.NumPages()
	p := &Partition{shards: shards, replicas: replicas, n: n, bounds: make([]PageID, shards+1)}
	for i := 0; i <= shards; i++ {
		p.bounds[i] = PageID(i * n / shards)
	}
	return p
}

// Shards returns the shard count.
func (p *Partition) Shards() int { return p.shards }

// Replicas returns the replication degree (1 = unreplicated).
func (p *Partition) Replicas() int { return p.replicas }

// ReplicaShard returns the k-th member of home's replica chain: home itself
// for k == 0, then the next shards in index order mod S. k must be below
// Replicas().
func (p *Partition) ReplicaShard(home, k int) int { return (home + k) % p.shards }

// Bounds returns shard i's half-open physical range [lo, hi).
func (p *Partition) Bounds(i int) (lo, hi PageID) { return p.bounds[i], p.bounds[i+1] }

// ShardOfPhysical maps a physical slot to its owning shard. The guess
// phys·S/n is exact for uniform ranges; the fix-up loops absorb the ±1
// rounding of the floor bounds and never move more than one step.
func (p *Partition) ShardOfPhysical(phys PageID) int {
	i := int(uint64(phys) * uint64(p.shards) / uint64(p.n))
	if i >= p.shards {
		i = p.shards - 1
	}
	for i > 0 && phys < p.bounds[i] {
		i--
	}
	for i+1 < p.shards && phys >= p.bounds[i+1] {
		i++
	}
	return i
}

// ShardOf maps a logical page to its owning shard via the store's installed
// layout permutation.
func (p *Partition) ShardOf(s *Store, page PageID) int {
	return p.ShardOfPhysical(s.PhysicalPage(page))
}
