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

import "unsafe"

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
}

// hash spreads clustered keys (consecutive object IDs, cells along a voxel
// walk) across the table: Fibonacci multiply + fold for 32-bit keys, the
// fmix64 half (splitmix64's finalizer) for 64-bit ones. Each instantiation
// folds the width test to a constant.
func hash[K Key](k K) uint {
	if unsafe.Sizeof(k) == 8 {
		x := uint64(k)
		x ^= x >> 33
		x *= 0xff51afd7ed558ccd
		x ^= x >> 33
		return uint(x)
	}
	h := uint32(k) * 2654435769
	return uint(h ^ (h >> 16))
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

// Get returns the value stored under k.
func (m *Map[K, V]) Get(k K) (V, bool) {
	if m.n > 0 {
		mask := uint(len(m.slots) - 1)
		for i := hash(k) & mask; ; i = (i + 1) & mask {
			s := &m.slots[i]
			if s.gen != m.gen {
				break
			}
			if s.key == k {
				return s.val, true
			}
		}
	}
	var zero V
	return zero, false
}

// Put inserts or overwrites the value under k.
func (m *Map[K, V]) Put(k K, v V) {
	if 4*(m.n+1) > 3*len(m.slots) {
		m.grow()
	}
	mask := uint(len(m.slots) - 1)
	for i := hash(k) & mask; ; i = (i + 1) & mask {
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
	slots := make([]slot[K, V], max(2*len(m.slots), 64))
	mask := uint(len(slots) - 1)
	for _, s := range m.slots {
		if s.gen != m.gen {
			continue
		}
		i := hash(s.key) & mask
		for slots[i].gen == m.gen {
			i = (i + 1) & mask
		}
		slots[i] = s
	}
	m.slots = slots
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
func (s *Set[K]) Has(k K) bool {
	_, ok := s.m.Get(k)
	return ok
}
