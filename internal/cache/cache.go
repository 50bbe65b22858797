// Package cache implements the prefetch cache: a page-granular,
// capacity-bounded cache with LRU eviction and hit/miss accounting.
//
// The paper allows "4GB of memory to cache prefetched data" (§7.1) and
// measures prediction accuracy as the cache hit rate, "the percentage of
// data read from the prefetch cache rather than from disk" (§3.3). Pages are
// fixed-size, so page-granular hit accounting equals byte-granular
// accounting.
package cache

import "scout/internal/pagestore"

// Stats aggregates cache activity. Hits and Misses are counted by Lookup
// (i.e., by user queries), not by prefetch insertions.
type Stats struct {
	Hits      int64
	Misses    int64
	Inserted  int64
	Evictions int64
}

// Add folds another cache's counters into s.
func (s *Stats) Add(o Stats) {
	s.Hits += o.Hits
	s.Misses += o.Misses
	s.Inserted += o.Inserted
	s.Evictions += o.Evictions
}

// slot is one entry of the open-addressed page table: the page and where
// its node is. ref is the node's index + 1, so the zero slot is empty and
// clear() empties a table. A probe reads one 8-byte slot per step.
type slot struct {
	key pagestore.PageID
	ref int32
}

// node is one cached page in the recency list. prev and next are indices
// into Cache.nodes, none meaning no neighbour.
type node struct {
	page       pagestore.PageID
	prev, next int32
}

const (
	// none is the absent node index: a list end, or a page not cached.
	none = -1
	// minTable is the table's first size; it doubles from there.
	minTable = 64
)

// Cache is a fixed-capacity page cache with LRU eviction. It stores only
// page identities: the simulation never materializes page bytes, so "holding
// a page" means remembering that its content would be in memory. Cache is
// not safe for concurrent use.
//
// Storage is sized by what the cache has held, not by its capacity: New
// allocates nothing but the struct, table and nodes grow as pages arrive,
// and Clear keeps both. A serving session's private cache that sees 300
// pages pays for 300, and a cache cleared between sequences pays once.
type Cache struct {
	capacity int
	// table maps page → node by linear probing from hashPage; its length is
	// a power of two (or 0 before the first insert) and at least twice
	// len(nodes), so a probe run always ends at an empty slot.
	table []slot
	// nodes holds the cached pages and nothing else: len(nodes) is the
	// cached page count.
	// The only removal is the eviction an insert at capacity performs, and
	// the inserted page takes the victim's node in place, so there are no
	// holes and no free list.
	nodes []node
	// head is most recently used, tail least recently used.
	head, tail int32
	stats      Stats
}

// New creates a cache holding at most capacity pages. Capacity 0 yields a
// cache that holds nothing (useful as the no-prefetch baseline).
func New(capacity int) *Cache {
	if capacity < 0 {
		panic("cache: negative capacity")
	}
	return &Cache{capacity: capacity, head: none, tail: none}
}

// Capacity returns the maximum number of pages the cache can hold.
func (c *Cache) Capacity() int { return c.capacity }

// Contains reports whether the page is cached, without recording a hit or
// a miss and without touching recency. Prefetchers use it to avoid
// re-requesting pages.
func (c *Cache) Contains(p pagestore.PageID) bool {
	return c.find(p) != none
}

// Lookup records a user access to page p: a hit refreshes the page's
// recency and returns true; a miss returns false. Misses do NOT insert the
// page — residual I/O goes straight to the user in this model, mirroring
// the paper's cache-of-prefetched-data design.
func (c *Cache) Lookup(p pagestore.PageID) bool {
	n := c.find(p)
	if n == none {
		c.stats.Misses++
		return false
	}
	c.stats.Hits++
	c.moveToFront(n)
	return true
}

// Insert adds page p to the cache (refreshing recency if already present),
// evicting the least recently used page when at capacity. It reports whether
// the page is cached afterwards (false only for capacity 0).
func (c *Cache) Insert(p pagestore.PageID) bool {
	if c.capacity == 0 {
		return false
	}
	if n := c.find(p); n != none {
		c.moveToFront(n)
		return true
	}
	var n int32
	if len(c.nodes) >= c.capacity {
		// Evict: p takes the victim's node, which moves from tail to head.
		n = c.tail
		c.removeKey(c.nodes[n].page)
		c.nodes[n].page = p
		c.moveToFront(n)
		c.stats.Evictions++
	} else {
		if 2*(len(c.nodes)+1) > len(c.table) {
			c.grow()
		}
		n = int32(len(c.nodes))
		c.nodes = append(c.nodes, node{page: p, prev: none, next: c.head})
		if c.head != none {
			c.nodes[c.head].prev = n
		} else {
			c.tail = n
		}
		c.head = n
	}
	c.addKey(p, n)
	c.stats.Inserted++
	return true
}

// Clear drops every cached page, keeping statistics and storage. The engine
// calls this between query sequences (§7.1).
func (c *Cache) Clear() {
	clear(c.table)
	c.nodes = c.nodes[:0]
	c.head, c.tail = none, none
}

// Stats returns accumulated statistics.
func (c *Cache) Stats() Stats { return c.stats }

// ResetStats zeroes the statistics without touching cached pages.
func (c *Cache) ResetStats() { c.stats = Stats{} }

// hashPage spreads page IDs over the table: Fibonacci multiply + fold, the
// mix idtable uses for 32-bit keys, so the physically sequential pages of a
// prefetch run do not share a probe run.
func hashPage(p pagestore.PageID) uint32 {
	h := uint32(p) * 2654435769
	return h ^ (h >> 16)
}

// find returns the node holding page p, or none.
func (c *Cache) find(p pagestore.PageID) int32 {
	if len(c.nodes) == 0 {
		return none // also covers the table New has not allocated yet
	}
	mask := uint32(len(c.table) - 1)
	for i := hashPage(p) & mask; ; i = (i + 1) & mask {
		s := c.table[i]
		if s.ref == 0 {
			return none
		}
		if s.key == p {
			return s.ref - 1
		}
	}
}

// addKey stores p → node n in the first empty slot of p's probe run. The
// caller has checked that p is absent and that the load stays ≤ ½.
func (c *Cache) addKey(p pagestore.PageID, n int32) {
	mask := uint32(len(c.table) - 1)
	i := hashPage(p) & mask
	for c.table[i].ref != 0 {
		i = (i + 1) & mask
	}
	c.table[i] = slot{key: p, ref: n + 1}
}

// removeKey deletes cached page p from the table by backward shift: every
// later slot of the probe run that may legally sit in the hole moves into
// it, and the hole that remains at the end is emptied. Tombstones would
// instead pile up under the steady one-eviction-per-insert load of a full
// cache and stretch every probe run until a rehash; this way a run holds
// live keys only, and a full cache never rehashes.
func (c *Cache) removeKey(p pagestore.PageID) {
	mask := uint32(len(c.table) - 1)
	hole := hashPage(p) & mask
	for c.table[hole].key != p { // p is cached: no empty slot before it
		hole = (hole + 1) & mask
	}
	for j := (hole + 1) & mask; c.table[j].ref != 0; j = (j + 1) & mask {
		// The slot at j may move back to hole unless its home lies
		// cyclically in (hole, j]: a probe from there would never reach
		// hole. Distances are taken backwards from j, modulo the table.
		home := hashPage(c.table[j].key) & mask
		if (j-home)&mask >= (j-hole)&mask {
			c.table[hole] = c.table[j]
			hole = j
		}
	}
	c.table[hole] = slot{}
}

// grow doubles the table (or allocates its first minTable slots) and
// re-enters every cached page from nodes; the old table is not read.
func (c *Cache) grow() {
	c.table = make([]slot, max(minTable, 2*len(c.table)))
	for i := range c.nodes {
		c.addKey(c.nodes[i].page, int32(i))
	}
}

// moveToFront makes node n the most recently used.
func (c *Cache) moveToFront(n int32) {
	if c.head == n {
		return
	}
	// n is not the head, so it has a predecessor.
	nd := &c.nodes[n]
	c.nodes[nd.prev].next = nd.next
	if nd.next != none {
		c.nodes[nd.next].prev = nd.prev
	} else {
		c.tail = nd.prev
	}
	nd.prev, nd.next = none, c.head
	c.nodes[c.head].prev = n
	c.head = n
}
