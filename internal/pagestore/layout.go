package pagestore

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"scout/internal/geom"
)

// Physical page layout. The bulk loader paginates objects in STR order and
// assigns logical PageIDs in that order; those IDs are what indexes, the
// spatial graph and the cache speak. A Layout decides where each logical
// page physically lives on the (simulated) platter: Store.Relayout installs
// a logical→physical permutation, and the cost model charges seeks on
// PHYSICAL discontinuities. Layout is therefore a pure I/O-cost
// optimization axis — result sets, indexes and the prefetcher are untouched
// (property-tested in engine's layout tests), only Seeks/SimulatedIO move.
//
// Three policies ship:
//
//   - insertion: physical == logical, the seed's behavior and the default.
//   - hilbert: pages packed along a 3D Hilbert curve over their centroids,
//     so physically adjacent pages are spatially close in every axis.
//   - str: Sort-Tile-Recursive tiling of page centroids — STR applied a
//     second time at page granularity.

// Layout computes a physical placement for a paginated store's pages.
type Layout interface {
	// Name identifies the layout in flags and tables.
	Name() string
	// Permutation returns perm with perm[logical] = physical slot. It must
	// be a bijection over [0, s.NumPages()).
	Permutation(s *Store) []PageID
}

// InsertionLayout is the identity layout: physical address == logical
// PageID, exactly the seed's behavior.
func InsertionLayout() Layout { return insertionLayout{} }

type insertionLayout struct{}

func (insertionLayout) Name() string { return "insertion" }

func (insertionLayout) Permutation(s *Store) []PageID {
	perm := make([]PageID, s.NumPages())
	for i := range perm {
		perm[i] = PageID(i)
	}
	return perm
}

// HilbertLayout orders pages by the Hilbert index of their centroid, so
// physical neighbors are spatial neighbors in all three axes (logical STR
// order is only contiguous within a Z-run of one Y-tile of one X-slab).
func HilbertLayout() Layout { return hilbertLayout{bits: geom.HilbertBits} }

type hilbertLayout struct{ bits int }

func (hilbertLayout) Name() string { return "hilbert" }

func (l hilbertLayout) Permutation(s *Store) []PageID {
	n := s.NumPages()
	world := geom.EmptyAABB()
	for p := 0; p < n; p++ {
		world = world.Union(s.PageBounds(PageID(p)))
	}
	keys := make([]uint64, n)
	order := make([]PageID, n)
	for p := 0; p < n; p++ {
		keys[p] = geom.HilbertKeyBits(s.PageBounds(PageID(p)).Center(), world, l.bits)
		order[p] = PageID(p)
	}
	// Logical ID breaks Hilbert-key ties (pages sharing a grid cell), so the
	// permutation is deterministic and, on already-coherent data, tied pages
	// keep their STR-relative order.
	sort.Slice(order, func(a, b int) bool {
		if keys[order[a]] != keys[order[b]] {
			return keys[order[a]] < keys[order[b]]
		}
		return order[a] < order[b]
	})
	return invert(order)
}

// STRLayout re-tiles page centroids with Sort-Tile-Recursive: sort by x,
// cut into slabs, sort slabs by y, cut into runs, sort runs by z — the same
// recursion the object bulk loader uses, applied at page granularity.
func STRLayout() Layout { return strLayout{} }

type strLayout struct{}

func (strLayout) Name() string { return "str" }

func (strLayout) Permutation(s *Store) []PageID {
	n := s.NumPages()
	order := make([]PageID, n)
	cent := make([]geom.Vec3, n)
	for p := 0; p < n; p++ {
		order[p] = PageID(p)
		cent[p] = s.PageBounds(PageID(p)).Center()
	}
	if n == 0 {
		return order
	}
	slabs := int(math.Ceil(math.Cbrt(float64(n))))
	// Remaining axes (then logical ID) break ties so degenerate data —
	// planar road grids, collinear chains — still gets a deterministic,
	// locality-preserving order.
	less := func(a, b PageID, axes [3]int) bool {
		for _, ax := range axes {
			u, v := cent[a].Component(ax), cent[b].Component(ax)
			if u != v {
				return u < v
			}
		}
		return a < b
	}
	sort.Slice(order, func(a, b int) bool { return less(order[a], order[b], [3]int{0, 1, 2}) })
	slabSize := (n + slabs - 1) / slabs
	for xs := 0; xs < n; xs += slabSize {
		xe := xs + slabSize
		if xe > n {
			xe = n
		}
		slab := order[xs:xe]
		sort.Slice(slab, func(a, b int) bool { return less(slab[a], slab[b], [3]int{1, 2, 0}) })
		runSize := (len(slab) + slabs - 1) / slabs
		for ys := 0; ys < len(slab); ys += runSize {
			ye := ys + runSize
			if ye > len(slab) {
				ye = len(slab)
			}
			run := slab[ys:ye]
			sort.Slice(run, func(a, b int) bool { return less(run[a], run[b], [3]int{2, 0, 1}) })
		}
	}
	return invert(order)
}

// invert turns a physical-order listing (order[slot] = logical page) into
// the logical→physical permutation Relayout installs.
func invert(order []PageID) []PageID {
	perm := make([]PageID, len(order))
	for slot, logical := range order {
		perm[logical] = PageID(slot)
	}
	return perm
}

// LayoutNames lists the valid layout names in declaration order.
func LayoutNames() []string { return []string{"insertion", "hilbert", "str"} }

// ParseLayout resolves a layout name. The empty string means insertion
// (the default).
func ParseLayout(name string) (Layout, error) {
	switch name {
	case "", "insertion":
		return InsertionLayout(), nil
	case "hilbert":
		return HilbertLayout(), nil
	case "str":
		return STRLayout(), nil
	}
	return nil, fmt.Errorf("pagestore: unknown layout %q (want %s)",
		name, strings.Join(LayoutNames(), ", "))
}

// Relayout installs the layout's physical-page permutation. Logical PageIDs
// — everything indexes, caches and prefetchers hold — are unchanged; only
// the cost model's notion of adjacency moves. The identity permutation
// drops the translation table entirely, restoring the seed's exact fast
// path. Relayout is cheap (one sort) and reversible; it must not run
// concurrently with readers.
func (s *Store) Relayout(l Layout) error {
	if !s.Paginated() {
		return fmt.Errorf("pagestore: Relayout requires a paginated store")
	}
	perm := l.Permutation(s)
	n := s.NumPages()
	if len(perm) != n {
		return fmt.Errorf("pagestore: layout %s returned %d slots for %d pages",
			l.Name(), len(perm), n)
	}
	seen := make([]bool, n)
	identity := true
	for logical, phys := range perm {
		if int(phys) >= n {
			return fmt.Errorf("pagestore: layout %s maps page %d to invalid slot %d",
				l.Name(), logical, phys)
		}
		if seen[phys] {
			return fmt.Errorf("pagestore: layout %s maps two pages to slot %d",
				l.Name(), phys)
		}
		seen[phys] = true
		identity = identity && int(phys) == logical
	}
	if identity {
		s.physOf = nil
	} else {
		s.physOf = perm
	}
	s.layout = l.Name()
	return nil
}

// LayoutName returns the installed layout's name ("insertion" before any
// Relayout).
func (s *Store) LayoutName() string {
	if s.layout == "" {
		return "insertion"
	}
	return s.layout
}

// PhysicalPage translates a logical PageID to its physical address.
func (s *Store) PhysicalPage(p PageID) PageID {
	if s.physOf == nil {
		return p
	}
	return s.physOf[p]
}

// ElevatorSort sorts pages in place into ascending PHYSICAL order — the
// order one disk-arm sweep would service them. With the identity layout
// this is plain ascending PageID order (sortPageIDs).
func (s *Store) ElevatorSort(pages []PageID) {
	if s.physOf == nil {
		sortPageIDs(pages)
		return
	}
	sortByKey(pages, s.physOf)
}

// Runs partitions a physically sorted, duplicate-free batch into maximal
// elevator runs and calls fn for each, in sweep order. A run extends
// through exact physical adjacency and through forward gaps of up to
// maxGap pages (the batched elevator bridges those by streaming past
// them; see CostModel.MaxBridge). fn returning false stops the sweep (the
// batched prefetch flush stops when its budget closes). Each run is a
// subslice of pages; one elevator read of a run costs one seek plus one
// transfer per page read or bridged.
func (s *Store) Runs(pages []PageID, maxGap PageID, fn func(run []PageID) bool) {
	if len(pages) == 0 {
		return
	}
	start := 0
	last := s.PhysicalPage(pages[0])
	for i := 1; i < len(pages); i++ {
		phys := s.PhysicalPage(pages[i])
		if phys-last > maxGap+1 {
			if !fn(pages[start:i]) {
				return
			}
			start = i
		}
		last = phys
	}
	fn(pages[start:])
}

// sortByKey sorts pages ascending by key[page] in place: the same
// insertion/quick hybrid as sortPageIDs, with a translation-table lookup as
// the sort key (ties are impossible — key is a permutation). slices.SortFunc
// with the same lookup took 1.9–4× as long on the sets sortPageIDs was
// measured on.
func sortByKey(p []PageID, key []PageID) {
	if len(p) < 24 {
		for i := 1; i < len(p); i++ {
			v := p[i]
			kv := key[v]
			j := i - 1
			for j >= 0 && key[p[j]] > kv {
				p[j+1] = p[j]
				j--
			}
			p[j+1] = v
		}
		return
	}
	pivot := key[p[len(p)/2]]
	lo, hi := 0, len(p)-1
	for lo <= hi {
		for key[p[lo]] < pivot {
			lo++
		}
		for key[p[hi]] > pivot {
			hi--
		}
		if lo <= hi {
			p[lo], p[hi] = p[hi], p[lo]
			lo++
			hi--
		}
	}
	sortByKey(p[:hi+1], key)
	sortByKey(p[lo:], key)
}
