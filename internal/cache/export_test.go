package cache

import (
	"fmt"

	"scout/internal/pagestore"
)

// order returns the cached pages from most to least recently used.
func (c *Cache) order() []pagestore.PageID {
	out := make([]pagestore.PageID, 0, len(c.nodes))
	for n := c.head; n != none && len(out) <= len(c.nodes); n = c.nodes[n].next {
		out = append(out, c.nodes[n].page)
	}
	return out
}

// totals returns the stripes' summed capacity and cached page count.
func (c *Striped) totals() (capacity, pages int) {
	for _, s := range c.stripes {
		capacity += s.capacity
		pages += len(s.nodes)
	}
	return capacity, pages
}

// check verifies the structure behind the answers: the recency list threads
// every node exactly once, the table holds exactly the listed pages, and
// every key is reachable from its home slot. It costs O(len(table)), so the
// tests can afford it after every operation.
func (c *Cache) check() error {
	n := len(c.nodes)
	if n > c.capacity {
		return fmt.Errorf("%d pages cached, capacity %d", n, c.capacity)
	}
	size := len(c.table)
	if size&(size-1) != 0 || 2*n > size {
		return fmt.Errorf("table of %d slots for %d pages", size, n)
	}

	// The list: head → tail visits each node once, with matching back links.
	listed := make([]bool, n)
	prev, count := int32(none), 0
	for i := c.head; i != none; prev, i = i, c.nodes[i].next {
		if i < 0 || int(i) >= n {
			return fmt.Errorf("list index %d out of range [0,%d)", i, n)
		}
		if listed[i] {
			return fmt.Errorf("node %d listed twice", i)
		}
		listed[i] = true
		count++
		if c.nodes[i].prev != prev {
			return fmt.Errorf("node %d: prev = %d, reached from %d", i, c.nodes[i].prev, prev)
		}
	}
	if c.tail != prev {
		return fmt.Errorf("tail = %d, list ends at %d", c.tail, prev)
	}
	if count != n {
		return fmt.Errorf("list holds %d nodes, %d cached", count, n)
	}
	if n == 0 {
		for i, s := range c.table {
			if s.ref != 0 {
				return fmt.Errorf("slot %d live in an empty cache", i)
			}
		}
		return nil
	}

	// The table: every live slot points at the node holding its key, and no
	// node is pointed at twice, so live slots = nodes = distinct pages.
	mask := uint32(size - 1)
	owned := make([]bool, n)
	live, empty := 0, -1
	for i, s := range c.table {
		if s.ref == 0 {
			empty = i
			continue
		}
		live++
		if s.ref < 1 || int(s.ref) > n {
			return fmt.Errorf("slot %d: ref %d out of range [1,%d]", i, s.ref, n)
		}
		if c.nodes[s.ref-1].page != s.key {
			return fmt.Errorf("slot %d: key %d, its node holds %d", i, s.key, c.nodes[s.ref-1].page)
		}
		if owned[s.ref-1] {
			return fmt.Errorf("node %d referenced twice", s.ref-1)
		}
		owned[s.ref-1] = true
	}
	if live != n {
		return fmt.Errorf("%d live slots, %d cached", live, n)
	}

	// Reachability: a key at distance d from its home needs the d slots
	// before it live, i.e. the run of live slots ending at it longer than d.
	// Start behind an empty slot (load ≤ ½ guarantees one) and go round.
	run := uint32(0)
	for k := 1; k <= size; k++ {
		i := uint32(empty+k) & mask
		s := c.table[i]
		if s.ref == 0 {
			run = 0
			continue
		}
		run++
		if d := (i - hashPage(s.key)) & mask; d >= run {
			return fmt.Errorf("slot %d: key %d is %d past its home across an empty slot", i, s.key, d)
		}
	}
	return nil
}

// check verifies every stripe's structure under its lock.
func (c *Sharded) check() error {
	for i, s := range c.core.stripes {
		c.locks[i].Lock()
		err := s.check()
		c.locks[i].Unlock()
		if err != nil {
			return fmt.Errorf("stripe %d: %w", i, err)
		}
	}
	return nil
}
