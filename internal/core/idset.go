package core

// idSet is a reusable membership set over integer IDs (object IDs, page IDs):
// a linear-probed open-addressed table of (key, epoch stamp) slots — one
// cache line per probe — kept at most half full. reset is O(1): bumping the
// epoch invalidates every entry. The table grows by doubling with the IDs
// actually added, so a per-query result/candidate set costs memory in
// proportion to the result, never to the store, and stops allocating once it
// has reached the workload's largest query. It replaces the
// map[ObjectID]bool / map[PageID]bool sets the hot path once rebuilt and
// discarded every query.
type idSet struct {
	slots []idSlot
	epoch uint32
	n     int
}

type idSlot struct {
	key, gen uint32
}

// hashID mixes the ID so runs of consecutive IDs spread across the table:
// Fibonacci multiply + fold (the mix of sgraph's intMap).
func hashID(id uint32) uint32 {
	h := id * 2654435769
	return h ^ (h >> 16)
}

// reset empties the set in O(1), keeping its capacity.
func (s *idSet) reset() {
	s.n = 0
	s.epoch++
	if s.epoch == 0 { // wrapped: stale stamps could collide with a live epoch
		for i := range s.slots {
			s.slots[i].gen = 0
		}
		s.epoch = 1
	}
}

// add inserts id (idempotently).
func (s *idSet) add(id uint32) {
	if 2*(s.n+1) > len(s.slots) {
		s.grow()
	}
	mask := uint32(len(s.slots) - 1)
	for i := hashID(id) & mask; ; i = (i + 1) & mask {
		sl := &s.slots[i]
		if sl.gen != s.epoch {
			*sl = idSlot{key: id, gen: s.epoch}
			s.n++
			return
		}
		if sl.key == id {
			return
		}
	}
}

// has reports membership.
func (s *idSet) has(id uint32) bool {
	if s.n == 0 {
		return false
	}
	mask := uint32(len(s.slots) - 1)
	for i := hashID(id) & mask; ; i = (i + 1) & mask {
		sl := s.slots[i]
		if sl.gen != s.epoch {
			return false
		}
		if sl.key == id {
			return true
		}
	}
}

// grow doubles the table (min 64 slots) and rehashes the live entries.
func (s *idSet) grow() {
	size := 2 * len(s.slots)
	if size < 64 {
		size = 64
	}
	slots := make([]idSlot, size)
	if s.epoch == 0 { // a fresh table's zero stamps must not read as live
		s.epoch = 1
	}
	mask := uint32(size - 1)
	for _, sl := range s.slots {
		if sl.gen != s.epoch {
			continue
		}
		j := hashID(sl.key) & mask
		for slots[j].gen == s.epoch {
			j = (j + 1) & mask
		}
		slots[j] = sl
	}
	s.slots = slots
}
