package cache

import (
	"sync"
	"sync/atomic"

	"scout/internal/pagestore"
)

// Sharded is a concurrency-safe page cache: a power-of-two number of
// independent LRU shards, each guarded by its own mutex, with pages spread
// across shards by a multiplicative hash. Contended multi-session serving
// mostly touches distinct shards, so sessions rarely wait on each other;
// recency and eviction are per shard, which approximates global LRU the way
// any sharded cache does (a shard evicts its own least-recent page, not the
// globally least-recent one).
//
// Stats are epoch-stamped: Clear advances the cache's epoch, and every
// StatsSnapshot carries the epoch it was taken in, so readers aggregating
// across a Clear can detect that their window spans two cache generations.
type Sharded struct {
	shards []shard
	mask   uint32
	// epoch counts Clear generations; see StatsSnapshot.Epoch.
	epoch atomic.Uint64
}

// shard is one LRU slice of the key space. The embedded Cache is the same
// single-threaded LRU the single-session engine uses; the mutex makes it
// safe under concurrent sessions. The pad keeps hot shards on separate
// cache lines so per-shard locks do not false-share.
type shard struct {
	mu  sync.Mutex
	lru *Cache
	_   [64]byte
}

// StatsSnapshot is an aggregated, epoch-stamped view of a Sharded cache's
// activity.
type StatsSnapshot struct {
	Stats
	// Epoch is the Clear generation the snapshot was taken in. Two
	// snapshots with different epochs straddle a Clear and must not be
	// differenced.
	Epoch uint64
	// Shards is the shard count, for reporting.
	Shards int
}

// NewSharded creates a sharded cache holding at most capacity pages in
// total, split evenly across shards (rounded up to the next power of two;
// 0 picks a default of 16, and the count is halved until every shard holds
// at least one page — a zero-capacity shard would silently make its slice
// of the key space uncacheable). Capacity 0 yields a cache that holds
// nothing.
func NewSharded(capacity, shards int) *Sharded {
	if capacity < 0 {
		panic("cache: negative capacity")
	}
	n := nextPow2(shards)
	for n > 1 && capacity/n == 0 {
		n /= 2
	}
	c := &Sharded{shards: make([]shard, n), mask: uint32(n - 1)}
	// Distribute capacity so shard capacities sum exactly to capacity.
	base, extra := capacity/n, capacity%n
	for i := range c.shards {
		sc := base
		if i < extra {
			sc++
		}
		c.shards[i].lru = New(sc)
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

// shardFor spreads page IDs across shards. Physically adjacent pages land
// in different shards (Fibonacci hashing), so a sequential prefetch run
// does not serialize on one lock.
func (c *Sharded) shardFor(p pagestore.PageID) *shard {
	return &c.shards[c.ShardIndex(p)]
}

// ShardCount returns the number of shards.
func (c *Sharded) ShardCount() int { return len(c.shards) }

// ShardIndex returns the shard index page p maps to. It is the fault
// layer's stalled-shard injection point: the serving loop asks which
// shard a lookup touches and charges the injector's stall penalty for
// that (shard, virtual-time window) pair, so a stalled shard slows every
// session whose working set hashes into it — without the cache itself
// knowing anything about faults or virtual time.
func (c *Sharded) ShardIndex(p pagestore.PageID) int {
	h := uint64(p) * 0x9E3779B97F4A7C15
	return int(uint32(h>>33) & c.mask)
}

// Capacity returns the total page capacity across shards.
func (c *Sharded) Capacity() int {
	total := 0
	for i := range c.shards {
		total += c.shards[i].lru.Capacity()
	}
	return total
}

// Len returns the number of pages currently cached, summed under the shard
// locks (a point-in-time value only when no writer is active).
func (c *Sharded) Len() int {
	total := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		total += s.lru.Len()
		s.mu.Unlock()
	}
	return total
}

// Contains reports whether the page is cached, without recording a hit or
// miss and without touching recency.
func (c *Sharded) Contains(p pagestore.PageID) bool {
	s := c.shardFor(p)
	s.mu.Lock()
	ok := s.lru.Contains(p)
	s.mu.Unlock()
	return ok
}

// Lookup records a user access to page p: a hit refreshes the page's
// recency within its shard and returns true. Misses do NOT insert, exactly
// like Cache.Lookup.
func (c *Sharded) Lookup(p pagestore.PageID) bool {
	s := c.shardFor(p)
	s.mu.Lock()
	ok := s.lru.Lookup(p)
	s.mu.Unlock()
	return ok
}

// Insert adds page p, evicting its shard's least recently used page when
// the shard is at capacity. It reports whether the page is cached
// afterwards.
func (c *Sharded) Insert(p pagestore.PageID) bool {
	s := c.shardFor(p)
	s.mu.Lock()
	ok := s.lru.Insert(p)
	s.mu.Unlock()
	return ok
}

// Clear drops every cached page, keeps statistics, and advances the epoch.
func (c *Sharded) Clear() {
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		s.lru.Clear()
		s.mu.Unlock()
	}
	c.epoch.Add(1)
}

// Epoch returns the current Clear generation.
func (c *Sharded) Epoch() uint64 { return c.epoch.Load() }

// Stats aggregates the per-shard statistics into an epoch-stamped snapshot.
func (c *Sharded) Stats() StatsSnapshot {
	snap := StatsSnapshot{Epoch: c.epoch.Load(), Shards: len(c.shards)}
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		st := s.lru.Stats()
		s.mu.Unlock()
		snap.Hits += st.Hits
		snap.Misses += st.Misses
		snap.Inserted += st.Inserted
		snap.Evictions += st.Evictions
	}
	return snap
}

// ResetStats zeroes the statistics without touching cached pages.
func (c *Sharded) ResetStats() {
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		s.lru.ResetStats()
		s.mu.Unlock()
	}
}
