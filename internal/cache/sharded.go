package cache

import (
	"sync"

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
type Striped struct {
	stripes []*Cache
	mask    uint32
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

// Clear drops every cached page and keeps statistics.
func (c *Striped) Clear() {
	for _, s := range c.stripes {
		s.Clear()
	}
}

// Stats sums the per-stripe statistics.
func (c *Striped) Stats() Stats {
	var sum Stats
	for _, s := range c.stripes {
		sum.Add(s.Stats())
	}
	return sum
}

// Sharded is the concurrency-safe Striped: each stripe guarded by its own
// mutex, padded onto its own cache line so the locks do not false-share.
// Contended multi-session callers mostly touch distinct stripes, so they
// rarely wait on each other.
type Sharded struct {
	core  *Striped
	locks []stripeLock
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

// Clear drops every cached page and keeps statistics.
func (c *Sharded) Clear() {
	for i, s := range c.core.stripes {
		c.locks[i].Lock()
		s.Clear()
		c.locks[i].Unlock()
	}
}
