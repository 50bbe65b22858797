// Package idtable is the per-query ID table SCOUT clears in O(1): grid
// hashing's object → vertex table and world-keyed cell directory (§4.2),
// candidate pruning's result set (§4.3), and SCOUT-OPT's candidate-page and
// seen-page sets (§6.2).
//
// A table is linear-probed and open-addressed over one array of
// {stamp, value, key} slots, so a probe reads one slot. It is kept at most
// ¾ full and doubles from 64 slots with the keys actually put, so it costs
// memory in proportion to the query, never to the store. Reset invalidates
// every entry by bumping the table's stamp instead of clearing memory, and
// keeps the capacity for the next query.
package idtable

import "math/bits"

// Key is a table's key: an object, page or packed grid-cell ID.
type Key interface{ ~uint32 | ~uint64 }

// slot puts the value before the key: Go pads a trailing zero-size field,
// so a Set[uint32] slot is 8 bytes here and would be 12 as {key, gen, val}.
type slot[K Key, V any] struct {
	gen uint32
	val V
	key K
}

// Map is an epoch-stamped table from K to V. The zero value is empty.
type Map[K Key, V any] struct {
	slots []slot[K, V]
	gen   uint32
	n     int
	mask  uint  // len(slots) − 1
	shift uint8 // 64 − log₂ len(slots): home keeps the product's top bits
}

// home is k's first probe slot, by Fibonacci hashing: the top log₂ len(slots)
// bits of k·2⁶⁴/φ. The top bits of the product depend on every bit of the
// key, so clustered keys (consecutive object IDs, the packed cells along a
// voxel walk, whose x field sits 42 bits up) spread across the table. One
// multiply and one shift, and the mask kept beside them, hold Get (and Set's
// Has through it) within the compiler's inlining budget; CI's Inlining step
// fails unless -gcflags=-m reports Get (both key shapes) and Set.Has
// inlinable.
func (m *Map[K, V]) home(k K) uint {
	return uint(uint64(k) * 0x9e3779b97f4a7c15 >> m.shift)
}

// Reset empties the table in O(1), keeping its capacity.
func (m *Map[K, V]) Reset() {
	m.n = 0
	m.gen++
	if m.gen == 0 { // wrapped: stale stamps could collide with a live epoch
		for i := range m.slots {
			m.slots[i].gen = 0
		}
		m.gen = 1
	}
}

// Get returns the value stored under k. An empty table (n 0) probes no
// slot, so the zero value needs no array.
func (m *Map[K, V]) Get(k K) (v V, ok bool) {
	for i := m.home(k); m.n > 0 && m.slots[i].gen == m.gen; i = (i + 1) & m.mask {
		if m.slots[i].key == k {
			return m.slots[i].val, true
		}
	}
	return
}

// Put inserts or overwrites the value under k.
func (m *Map[K, V]) Put(k K, v V) {
	if 4*(m.n+1) > 3*len(m.slots) {
		m.grow()
	}
	for i := m.home(k); ; i = (i + 1) & m.mask {
		s := &m.slots[i]
		if s.gen != m.gen {
			*s = slot[K, V]{gen: m.gen, val: v, key: k}
			m.n++
			return
		}
		if s.key == k {
			s.val = v
			return
		}
	}
}

// grow doubles the table (min 64 slots) and rehashes the live entries.
func (m *Map[K, V]) grow() {
	if m.gen == 0 { // a fresh table's zero stamps must not read as live
		m.gen = 1
	}
	old := m.slots
	m.slots = make([]slot[K, V], max(2*len(old), 64))
	m.mask = uint(len(m.slots) - 1)
	m.shift = uint8(64 - bits.Len(m.mask))
	for _, s := range old {
		if s.gen != m.gen {
			continue
		}
		i := m.home(s.key)
		for m.slots[i].gen == m.gen {
			i = (i + 1) & m.mask
		}
		m.slots[i] = s
	}
}

// Set is an epoch-stamped membership set over K. The zero value is empty.
type Set[K Key] struct {
	m Map[K, struct{}]
}

// Reset empties the set in O(1), keeping its capacity.
func (s *Set[K]) Reset() { s.m.Reset() }

// Add inserts k (idempotently).
func (s *Set[K]) Add(k K) { s.m.Put(k, struct{}{}) }

// Has reports whether k is in the set.
func (s *Set[K]) Has(k K) (ok bool) {
	_, ok = s.m.Get(k)
	return
}
