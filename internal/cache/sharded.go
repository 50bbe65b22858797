package cache

import (
	"sync"
	"sync/atomic"

	"scout/internal/pagestore"
)

// Striped is a page cache of a power-of-two number of independent LRU
// stripes, with pages spread across stripes by a multiplicative hash.
// Recency and eviction are per stripe, which approximates global LRU the way
// any sharded cache does (a stripe evicts its own least-recent page, not the
// globally least-recent one).
//
// Striped is not safe for concurrent use: it is the cache one coordinator
// owns — the serving commit loop, which runs on one goroutine, holds one per
// shard of its fleet and pays no locks. Sharded wraps the same stripes with a
// mutex each for callers on several goroutines; the two behave identically
// under any one sequence of calls.
//
// Stats are epoch-stamped: Clear advances the cache's epoch, and every
// StatsSnapshot carries the epoch it was taken in, so readers aggregating
// across a Clear can detect that their window spans two cache generations.
type Striped struct {
	stripes []*Cache
	mask    uint32
	// epoch counts Clear generations; see StatsSnapshot.Epoch.
	epoch uint64
}

// StatsSnapshot is an aggregated, epoch-stamped view of a striped cache's
// activity.
type StatsSnapshot struct {
	Stats
	// Epoch is the Clear generation the snapshot was taken in. Two
	// snapshots with different epochs straddle a Clear and must not be
	// differenced.
	Epoch uint64
	// Shards is the stripe count, for reporting.
	Shards int
}

func (s *StatsSnapshot) add(st Stats) {
	s.Hits += st.Hits
	s.Misses += st.Misses
	s.Inserted += st.Inserted
	s.Evictions += st.Evictions
}

// NewStriped creates a striped cache holding at most capacity pages in
// total, split across stripes ±1 page (the count is rounded up to the next
// power of two; 0 picks a default of 16, and the count is halved until every
// stripe holds at least one page — a zero-capacity stripe would silently make
// its slice of the key space uncacheable). Capacity 0 yields a cache that
// holds nothing.
func NewStriped(capacity, shards int) *Striped {
	if capacity < 0 {
		panic("cache: negative capacity")
	}
	n := nextPow2(shards)
	for n > 1 && capacity/n == 0 {
		n /= 2
	}
	c := &Striped{stripes: make([]*Cache, n), mask: uint32(n - 1)}
	base, extra := capacity/n, capacity%n
	for i := range c.stripes {
		sc := base
		if i < extra {
			sc++
		}
		c.stripes[i] = New(sc)
	}
	return c
}

func nextPow2(n int) int {
	if n <= 0 {
		n = 16
	}
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// ShardCount returns the number of stripes.
func (c *Striped) ShardCount() int { return len(c.stripes) }

// ShardIndex returns the stripe page p maps to. Physically adjacent pages
// land in different stripes (Fibonacci hashing), so a sequential prefetch run
// does not serialize on one lock of a Sharded cache. It is also the fault
// layer's stalled-shard injection point: the serving loop asks which stripe a
// lookup touches and charges the injector's stall penalty for that (stripe,
// virtual-time window) pair, without the cache knowing anything about faults
// or virtual time.
func (c *Striped) ShardIndex(p pagestore.PageID) int {
	h := uint64(p) * 0x9E3779B97F4A7C15
	return int(uint32(h>>33) & c.mask)
}

// Capacity returns the total page capacity across stripes.
func (c *Striped) Capacity() int {
	total := 0
	for _, s := range c.stripes {
		total += s.Capacity()
	}
	return total
}

// Len returns the number of pages currently cached.
func (c *Striped) Len() int {
	total := 0
	for _, s := range c.stripes {
		total += s.Len()
	}
	return total
}

// Contains reports whether the page is cached, without recording a hit or
// miss and without touching recency.
func (c *Striped) Contains(p pagestore.PageID) bool { return c.stripes[c.ShardIndex(p)].Contains(p) }

// Lookup records a user access to page p: a hit refreshes the page's
// recency within its stripe and returns true. Misses do NOT insert, exactly
// like Cache.Lookup.
func (c *Striped) Lookup(p pagestore.PageID) bool { return c.stripes[c.ShardIndex(p)].Lookup(p) }

// Insert adds page p, evicting its stripe's least recently used page when
// the stripe is at capacity. It reports whether the page is cached
// afterwards.
func (c *Striped) Insert(p pagestore.PageID) bool { return c.stripes[c.ShardIndex(p)].Insert(p) }

// Clear drops every cached page, keeps statistics, and advances the epoch.
func (c *Striped) Clear() {
	for _, s := range c.stripes {
		s.Clear()
	}
	c.epoch++
}

// Epoch returns the current Clear generation.
func (c *Striped) Epoch() uint64 { return c.epoch }

// Stats aggregates the per-stripe statistics into an epoch-stamped snapshot.
func (c *Striped) Stats() StatsSnapshot {
	snap := StatsSnapshot{Epoch: c.epoch, Shards: len(c.stripes)}
	for _, s := range c.stripes {
		snap.add(s.Stats())
	}
	return snap
}

// ResetStats zeroes the statistics without touching cached pages.
func (c *Striped) ResetStats() {
	for _, s := range c.stripes {
		s.ResetStats()
	}
}

// Sharded is the concurrency-safe Striped: each stripe guarded by its own
// mutex, padded onto its own cache line so the locks do not false-share.
// Contended multi-session callers mostly touch distinct stripes, so they
// rarely wait on each other.
type Sharded struct {
	core  *Striped
	locks []stripeLock
	// epoch counts Clear generations; the core's own counter is not touched,
	// since concurrent Clears would race on it.
	epoch atomic.Uint64
}

type stripeLock struct {
	sync.Mutex
	_ [56]byte
}

// NewSharded creates a concurrency-safe striped cache; capacity and shards
// are as for NewStriped.
func NewSharded(capacity, shards int) *Sharded {
	core := NewStriped(capacity, shards)
	return &Sharded{core: core, locks: make([]stripeLock, len(core.stripes))}
}

// stripe returns page p's stripe with its lock held.
func (c *Sharded) stripe(p pagestore.PageID) (*Cache, *stripeLock) {
	i := c.core.ShardIndex(p)
	l := &c.locks[i]
	l.Lock()
	return c.core.stripes[i], l
}

// ShardCount returns the number of stripes.
func (c *Sharded) ShardCount() int { return c.core.ShardCount() }

// ShardIndex returns the stripe page p maps to (Striped.ShardIndex).
func (c *Sharded) ShardIndex(p pagestore.PageID) int { return c.core.ShardIndex(p) }

// Capacity returns the total page capacity across stripes.
func (c *Sharded) Capacity() int { return c.core.Capacity() }

// Len returns the number of pages currently cached, summed under the stripe
// locks (a point-in-time value only when no writer is active).
func (c *Sharded) Len() int {
	total := 0
	for i, s := range c.core.stripes {
		c.locks[i].Lock()
		total += s.Len()
		c.locks[i].Unlock()
	}
	return total
}

// Contains is Striped.Contains under the stripe's lock.
func (c *Sharded) Contains(p pagestore.PageID) bool {
	s, l := c.stripe(p)
	ok := s.Contains(p)
	l.Unlock()
	return ok
}

// Lookup is Striped.Lookup under the stripe's lock.
func (c *Sharded) Lookup(p pagestore.PageID) bool {
	s, l := c.stripe(p)
	ok := s.Lookup(p)
	l.Unlock()
	return ok
}

// Insert is Striped.Insert under the stripe's lock.
func (c *Sharded) Insert(p pagestore.PageID) bool {
	s, l := c.stripe(p)
	ok := s.Insert(p)
	l.Unlock()
	return ok
}

// Clear drops every cached page, keeps statistics, and advances the epoch.
func (c *Sharded) Clear() {
	for i, s := range c.core.stripes {
		c.locks[i].Lock()
		s.Clear()
		c.locks[i].Unlock()
	}
	c.epoch.Add(1)
}

// Epoch returns the current Clear generation.
func (c *Sharded) Epoch() uint64 { return c.epoch.Load() }

// Stats aggregates the per-stripe statistics into an epoch-stamped snapshot.
func (c *Sharded) Stats() StatsSnapshot {
	snap := StatsSnapshot{Epoch: c.epoch.Load(), Shards: len(c.core.stripes)}
	for i, s := range c.core.stripes {
		c.locks[i].Lock()
		snap.add(s.Stats())
		c.locks[i].Unlock()
	}
	return snap
}

// ResetStats zeroes the statistics without touching cached pages.
func (c *Sharded) ResetStats() {
	for i, s := range c.core.stripes {
		c.locks[i].Lock()
		s.ResetStats()
		c.locks[i].Unlock()
	}
}
