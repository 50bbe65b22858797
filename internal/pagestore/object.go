// Package pagestore models the on-disk representation of a spatial dataset:
// fixed-size pages of spatial objects plus a deterministic disk cost model.
//
// The paper stores 450M cylinders on a 4-disk SAS array in 4 KB pages holding
// 87 objects each (§7.1). This package reproduces that layout in memory, with
// 64 of its 64-byte objects per 4 KB page (DefaultObjectsPerPage), and
// replaces the physical disks with a virtual-clock cost model so experiments
// are deterministic and machine-independent (see DESIGN.md §2). All times
// returned by Disk methods are simulated, never wall-clock.
package pagestore

import (
	"fmt"
	"runtime"
	"sync"

	"scout/internal/geom"
)

// ObjectID identifies a spatial object within a Store.
type ObjectID uint32

// PageID identifies a disk page within a Store.
type PageID uint32

// InvalidPage marks an object not yet assigned to any page.
const InvalidPage = PageID(^uint32(0))

// Object is one stored spatial object. All dataset geometries are reduced to
// a line segment plus radius, following the paper's geometry-simplification
// rule (§4.2: "a minimum bounding rectangle ..., a straight line or a point
// can be used"): cylinders keep their axis and maximum radius, mesh
// triangles keep their longest edge, road segments are stored as-is.
//
// The field order packs the struct into 64 bytes with no padding — one cache
// line per object, 64 objects per 4 KB page (TestObjectLayout pins it).
type Object struct {
	Seg geom.Segment
	// Radius inflates the segment into the object's true extent; zero for
	// line data such as road networks.
	Radius float64
	ID     ObjectID
	// Struct is the ground-truth structure identifier assigned by the
	// dataset generator (a neuron branch, an artery, a road). It exists so
	// workload generators can walk real structures; prefetchers MUST NOT
	// read it — SCOUT infers structure from geometry alone.
	Struct int32
}

// Bounds returns the conservative axis-aligned bounding box of the object.
func (o Object) Bounds() geom.AABB {
	return o.Seg.Bounds().Inflate(o.Radius)
}

// Centroid returns the midpoint of the object's segment.
func (o Object) Centroid() geom.Vec3 { return o.Seg.Midpoint() }

// IntersectsBox conservatively reports whether the object intersects box b.
func (o Object) IntersectsBox(b geom.AABB) bool {
	if o.Radius == 0 {
		return o.Seg.IntersectsAABB(b)
	}
	return o.Seg.IntersectsAABB(b.Inflate(o.Radius))
}

// Store holds a dataset's objects and their assignment to pages. Pages are
// clustered: once paginated, the objects of page p are the contiguous run
// objects[p·perPage : (p+1)·perPage], as they would be in the 4 KB disk page
// the store models. A Store is immutable after pagination and safe for
// concurrent readers; the exceptions are Paginate, which moves objects, and
// Relayout (layout.go), which swaps the physical-page placement — neither
// may run concurrently with readers.
type Store struct {
	// objects holds every object, in storage order once paginated.
	objects []Object
	// order[slot] is the ID of objects[slot]; PageObjects sub-slices it.
	order []ObjectID
	// slotOf[id] is the position of object id in objects. IDs are the
	// positions the objects had when the store was created and never change;
	// only slots do.
	slotOf []uint32
	// pageBounds[p] is the MBR of page p's objects.
	pageBounds []geom.AABB
	perPage    int
	// physOf[p] is the physical address of logical page p, installed by
	// Relayout (see layout.go). Nil means the identity layout — physical ==
	// logical — which keeps the seed's exact cost path.
	physOf []PageID
	// layout names the installed Layout ("" == "insertion").
	layout string
}

// PageSizeBytes is the modeled page size (§7.1: "4KB page size").
const PageSizeBytes = 4096

// DefaultObjectsPerPage is the modeled page fanout. The paper stores 87
// objects per 4 KB page (§7.1, ≈47 bytes each including attributes); this
// reproduction's Object is 64 bytes (two endpoints, radius, ids), so a 4 KB
// page holds exactly 64 of them, contiguously.
const DefaultObjectsPerPage = 64

// NewStore creates a store over the given objects. Pages are not assigned
// until Paginate is called (normally by an index bulk-loader, which chooses
// the storage order).
//
// The store takes ownership of the slice: object IDs are rewritten to their
// slice positions here, and Paginate later reorders the slice in place into
// storage order. After pagination objects[i].ID == i no longer holds, so the
// caller must reach objects through the store (Object, PageSlice), never by
// indexing its own slice, and two stores must never share a backing slice.
func NewStore(objects []Object) *Store {
	s := &Store{
		objects: objects,
		order:   make([]ObjectID, len(objects)),
		slotOf:  make([]uint32, len(objects)),
	}
	for i := range s.objects {
		s.objects[i].ID = ObjectID(i)
		s.order[i] = ObjectID(i)
		s.slotOf[i] = uint32(i)
	}
	return s
}

// NumObjects returns the number of stored objects.
func (s *Store) NumObjects() int { return len(s.objects) }

// NumPages returns the number of pages (0 before pagination).
func (s *Store) NumPages() int { return len(s.pageBounds) }

// ObjectsPerPage returns the pagination fanout (0 before pagination).
func (s *Store) ObjectsPerPage() int { return s.perPage }

// Object returns the object with the given ID.
func (s *Store) Object(id ObjectID) Object { return s.objects[s.slotOf[id]] }

// PageOf returns the page holding the given object (InvalidPage before
// pagination).
func (s *Store) PageOf(id ObjectID) PageID {
	if s.perPage == 0 {
		return InvalidPage
	}
	return PageID(int(s.slotOf[id]) / s.perPage)
}

// pageSpan returns the slot range [lo, hi) of page p.
func (s *Store) pageSpan(p PageID) (lo, hi int) {
	lo = int(p) * s.perPage
	hi = lo + s.perPage
	if hi > len(s.objects) {
		hi = len(s.objects)
	}
	return lo, hi
}

// PageObjects returns the IDs of the objects in page p, in storage order.
// Callers must not modify the returned slice.
func (s *Store) PageObjects(p PageID) []ObjectID {
	lo, hi := s.pageSpan(p)
	return s.order[lo:hi:hi]
}

// PageSlice returns the objects of page p, in storage order: the page's
// contiguous run of the object array, so PageSlice(p)[i].ID ==
// PageObjects(p)[i]. Callers must not modify the returned slice.
func (s *Store) PageSlice(p PageID) []Object {
	lo, hi := s.pageSpan(p)
	return s.objects[lo:hi:hi]
}

// PageBounds returns the MBR of page p's objects.
func (s *Store) PageBounds(p PageID) geom.AABB { return s.pageBounds[int(p)] }

// Paginate assigns objects to pages of perPage objects each, in the given
// storage order, and moves the objects into that order in place. The order
// slice must be a permutation of all object IDs; the bulk loader of the
// index decides it (STR order in this reproduction, matching the paper's
// "STR Bulkloaded" R-tree with 100% fill factor). Object IDs do not change.
// Paginate may be called again on a paginated store; pages, indexes and
// disks built over the earlier pagination are then stale.
func (s *Store) Paginate(order []ObjectID, perPage int) error {
	if perPage < 1 {
		return fmt.Errorf("pagestore: perPage %d < 1", perPage)
	}
	if len(order) != len(s.objects) {
		return fmt.Errorf("pagestore: order has %d ids, store has %d objects",
			len(order), len(s.objects))
	}
	seen := make([]uint64, (len(s.objects)+63)/64) // a bit per ID
	for _, id := range order {
		if int(id) >= len(s.objects) {
			return fmt.Errorf("pagestore: order contains unknown object %d", id)
		}
		word, bit := id/64, uint64(1)<<(id%64)
		if seen[word]&bit != 0 {
			return fmt.Errorf("pagestore: order contains object %d twice", id)
		}
		seen[word] |= bit
	}

	// src[k] is the slot that holds, now, the object slot k receives. It is
	// computed in one in-order pass, into s.order: that is rebuilt below
	// from the moved objects, and reading order[k] before writing src[k]
	// keeps this right even when order is s.order itself.
	src := s.order
	for k, id := range order {
		src[k] = ObjectID(s.slotOf[id])
	}
	// Permute objects into storage order by following cycles: slot k
	// receives objs[src[k]]. One object is held aside per cycle, so no
	// second copy of the array ever exists. A filled slot becomes a fixed
	// point of src, so the walk's only dependent load is the next src[k].
	objs := s.objects
	for j := range objs {
		if int(src[j]) == j {
			continue
		}
		held := objs[j]
		k := j
		for {
			from := int(src[k])
			src[k] = ObjectID(k)
			if from == j {
				objs[k] = held
				break
			}
			objs[k] = objs[from]
			k = from
		}
	}

	// Each page's pass rebuilds order and slotOf for its own slots, from the
	// IDs the moved objects carry, and computes the page's bounds. Pages
	// share nothing, so they run on GOMAXPROCS goroutines, each over a
	// contiguous run of pages.
	s.perPage = perPage
	pages := len(objs) / perPage // len(objs)+perPage-1 could overflow
	if len(objs)%perPage != 0 {
		pages++
	}
	s.pageBounds = make([]geom.AABB, pages)
	workers := min(runtime.GOMAXPROCS(0), pages)
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for p := w * pages / workers; p < (w+1)*pages/workers; p++ {
				lo, hi := s.pageSpan(PageID(p))
				mbr := geom.EmptyAABB()
				for slot := lo; slot < hi; slot++ {
					o := &objs[slot]
					s.order[slot] = o.ID
					s.slotOf[o.ID] = uint32(slot)
					mbr = mbr.Union(o.Bounds())
				}
				s.pageBounds[p] = mbr
			}
		}()
	}
	wg.Wait()
	return nil
}

// Paginated reports whether pages have been assigned.
func (s *Store) Paginated() bool { return len(s.pageBounds) > 0 }

// TotalBytes returns the modeled on-disk size of the dataset.
func (s *Store) TotalBytes() int64 {
	return int64(s.NumPages()) * PageSizeBytes
}
