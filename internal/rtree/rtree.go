// Package rtree implements the STR bulk-loaded R-tree the paper couples
// SCOUT with ("the widely used R-Tree (STR Bulkloaded) spatial index for
// accessing data", §7.1; Leutenegger et al., ICDE 1997).
//
// Bulk loading does double duty: the Sort-Tile-Recursive order it computes
// becomes the physical storage order of the pagestore (fill factor 100%, as
// in §7.1, with pagestore.DefaultObjectsPerPage objects per leaf page: 64 of
// this reproduction's objects fill the paper's 4 KB page, where the paper's
// own hold 87), and the leaf pages become the R-tree's leaf level. Inner
// nodes are modeled as memory-resident — the paper charges I/O for data
// pages, and SCOUT treats index traversal cost as CPU time.
//
// The tree is stored as an implicit structure-of-arrays layout: one
// contiguous MBR slice per level, with arithmetic child addressing. STR
// packing makes every parent's children a consecutive run of exactly Fanout
// nodes (the last parent per level may be partial), so the children of node
// i at level l are nodes [i·Fanout, (i+1)·Fanout) of level l+1, and leaf
// node i IS page i. There are no per-node heap objects and no pointers to
// chase, and queries allocate nothing beyond the caller's result slice.
package rtree

import (
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"scout/internal/geom"
	"scout/internal/pagestore"
)

// Tree is an immutable STR bulk-loaded R-tree over a paginated store. Safe
// for concurrent readers.
type Tree struct {
	store  *pagestore.Store
	fanout int
	height int
	// levels[l] holds the MBRs of every node at depth l, root first
	// (len(levels[0]) == 1) down to levels[height-1], the leaf level, where
	// node i is page i. Children of node i at level l are the consecutive
	// run levels[l+1][i*fanout : min((i+1)*fanout, len(levels[l+1]))].
	levels [][]geom.AABB
	// nodesVisited counts inner+leaf node inspections across all queries,
	// for cost accounting experiments. Atomic so concurrent experiment
	// workers sharing one tree do not race; queries accumulate locally and
	// publish once per call.
	nodesVisited atomic.Int64
}

// Config controls bulk loading.
type Config struct {
	// ObjectsPerPage is the leaf fanout; defaults to
	// pagestore.DefaultObjectsPerPage (64: a 4 KB page of 64-byte objects).
	ObjectsPerPage int
	// Fanout is the inner-node fanout; defaults to ObjectsPerPage, matching
	// the paper's uniform fanout.
	Fanout int
}

func (c Config) withDefaults() Config {
	if c.ObjectsPerPage <= 0 {
		c.ObjectsPerPage = pagestore.DefaultObjectsPerPage
	}
	if c.Fanout <= 0 {
		c.Fanout = c.ObjectsPerPage
	}
	return c
}

// BulkLoad paginates the store in Sort-Tile-Recursive order and builds an
// R-tree over the resulting pages. It must be called exactly once per store,
// before any disks or other indexes are created over it.
func BulkLoad(store *pagestore.Store, cfg Config) (*Tree, error) {
	cfg = cfg.withDefaults()
	order := STROrder(store, cfg.ObjectsPerPage)
	if err := store.Paginate(order, cfg.ObjectsPerPage); err != nil {
		return nil, err
	}
	return Build(store, cfg)
}

// Build constructs an R-tree over an already-paginated store, reusing its
// page assignment. FLAT and the R-tree share pages this way, so hit-rate
// comparisons between SCOUT and SCOUT-OPT see identical physical layouts.
func Build(store *pagestore.Store, cfg Config) (*Tree, error) {
	cfg = cfg.withDefaults()
	t := &Tree{store: store, fanout: cfg.Fanout}
	if store.NumPages() == 0 {
		return t, nil
	}

	leaves := make([]geom.AABB, store.NumPages())
	for p := range leaves {
		leaves[p] = store.PageBounds(pagestore.PageID(p))
	}
	// Pack consecutive runs of children into parents. Children are already
	// in STR order, so consecutive grouping preserves spatial locality —
	// this is the standard second phase of STR packing. Building bottom-up
	// and reversing afterwards keeps levels[0] the root.
	t.levels = [][]geom.AABB{leaves}
	for level := leaves; len(level) > 1; {
		parents := make([]geom.AABB, 0, (len(level)+cfg.Fanout-1)/cfg.Fanout)
		for start := 0; start < len(level); start += cfg.Fanout {
			end := min(start+cfg.Fanout, len(level))
			mbr := geom.EmptyAABB()
			for _, c := range level[start:end] {
				mbr = mbr.Union(c)
			}
			parents = append(parents, mbr)
		}
		t.levels = append(t.levels, parents)
		level = parents
	}
	for i, j := 0, len(t.levels)-1; i < j; i, j = i+1, j-1 {
		t.levels[i], t.levels[j] = t.levels[j], t.levels[i]
	}
	t.height = len(t.levels)
	return t, nil
}

// STROrder computes the Sort-Tile-Recursive storage order of the store's
// objects by centroid: sort by x, cut into vertical slabs, sort each slab by
// y, cut into runs, sort each run by z. Objects that end up consecutive are
// spatially close, which is what gives STR-packed trees their tight leaves.
//
// Objects are read by ID, so a store that is already paginated gets the
// same order as a fresh one. Each object is sorted as one 32-byte record,
// its centroid beside its ID, by sortRecs: a copy of Go 1.24's pdqsort with
// the compares inlined and its large recursions on their own goroutines.
// The slabs are sorted on GOMAXPROCS goroutines; each slab's sorts depend on
// nothing outside it, and sortRecs leaves the same permutation at any
// GOMAXPROCS, so the order does not depend on the number of workers. Exact
// duplicate centroids end where that pdqsort puts them. The copy fixes the
// order whatever the toolchain's sort package does; on go1.24
// TestSTROrderMatchesSortSlice holds it to its sort.Slice form, ties
// included.
func STROrder(store *pagestore.Store, perPage int) []pagestore.ObjectID {
	n := store.NumObjects()
	recs := make([]strRec, n)
	for i := range recs {
		id := pagestore.ObjectID(i)
		recs[i] = strRec{c: store.Object(id).Centroid(), id: id}
	}
	ids := make([]pagestore.ObjectID, n)
	if n == 0 {
		return ids
	}

	pages := (n-1)/perPage + 1
	s := int(math.Ceil(math.Cbrt(float64(pages)))) // slabs per axis

	sortRecs(recs)
	slabSize := (n + s - 1) / s
	parallelFor((n+slabSize-1)/slabSize, func(slab int) {
		xs := slab * slabSize
		xe := min(xs+slabSize, n)
		// The y and z sorts compare the rotated centroids (y, z, x) and then
		// (z, x, y) with the same comparator.
		rotate(recs[xs:xe])
		sortRecs(recs[xs:xe])
		rotate(recs[xs:xe])
		runSize := (xe - xs + s - 1) / s
		for ys := xs; ys < xe; ys += runSize {
			ye := min(ys+runSize, xe)
			sortRecs(recs[ys:ye])
		}
		for i := xs; i < xe; i++ {
			ids[i] = recs[i].id
		}
	})
	return ids
}

// rotate turns every record's centroid (x, y, z) into (y, z, x).
func rotate(recs []strRec) {
	for i := range recs {
		c := &recs[i].c
		*c = geom.Vec3{X: c.Y, Y: c.Z, Z: c.X}
	}
}

// parallelFor calls fn(i) for every i in [0, n) on up to GOMAXPROCS
// goroutines and returns when all calls have.
func parallelFor(n int, fn func(i int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := min(runtime.GOMAXPROCS(0), n); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// Height returns the number of levels, leaves included.
func (t *Tree) Height() int { return t.height }

// QueryPages appends to dst the IDs of all leaf pages whose MBR intersects
// the region — the pages a real system would read from disk to answer the
// query. Pages are appended in ascending page-ID order (the tree's implicit
// layout is the STR storage order), which is also ascending physical order.
func (t *Tree) QueryPages(r geom.Region, dst []pagestore.PageID) []pagestore.PageID {
	if t.height == 0 {
		return dst
	}
	// The region's type and emptiness are settled here, once per query, so
	// the per-node test is six compares plus, for a frustum and the few nodes
	// that pass them, the plane test. Any other region is its bounds box and
	// needs no more. An empty region intersects nothing: it inspects the root
	// and stops there.
	visited := int64(1)
	if box := r.Bounds(); !box.IsEmpty() {
		var frustum *geom.Frustum
		switch q := r.(type) {
		case geom.Frustum:
			frustum = &q
		}
		dst, visited = t.sweep(&box, frustum, dst)
	}
	t.nodesVisited.Add(visited)
	return dst
}

// frontierStack is the capacity of sweep's two on-stack frontier buffers. A
// frontier holds the surviving nodes of one inner level: with the default
// fanout the widest inner level of a 1M-object tree has 245 nodes. Wider
// frontiers (tiny fanouts, huge regions) spill to the heap.
const frontierStack = 256

// sweep probes the tree level by level. The frontier — the nodes of level
// l-1 that intersect the region, in ascending order — expands into their
// contiguous child runs at level l, so the inner loop is a linear walk over a
// []geom.AABB and the leaves come out in ascending page-ID order. A node
// intersects the region when its MBR overlaps box, the region's bounds, and
// passes the frustum's plane test when one is given. sweep returns the grown
// result slice and the number of nodes inspected: the root plus every child
// of every intersecting inner node.
func (t *Tree) sweep(box *geom.AABB, frustum *geom.Frustum, dst []pagestore.PageID) ([]pagestore.PageID, int64) {
	var bufA, bufB [frontierStack]uint32
	// The root is the one-node run of a parent 0 above the tree.
	cur, next := append(bufA[:0], 0), bufB[:0]
	var visited int64
	for l, level := range t.levels {
		leaf := l == t.height-1
		for _, parent := range cur {
			lo := int(parent) * t.fanout
			run := level[lo:min(lo+t.fanout, len(level))]
			visited += int64(len(run))
			for c := range run {
				mbr := &run[c]
				if !overlaps(box, mbr) || (frustum != nil && !frustum.Overlaps(mbr)) {
					continue
				}
				if leaf {
					dst = append(dst, pagestore.PageID(lo+c))
				} else {
					next = append(next, uint32(lo+c))
				}
			}
		}
		cur, next = next, cur[:0]
	}
	return dst, visited
}

// overlaps is AABB.Intersects for two non-empty boxes, by reference (touching
// counts). QueryPages has checked the query box; a node MBR is a union of
// non-empty boxes, and an EmptyAABB or a NaN corner fails the compares anyway.
func overlaps(a, b *geom.AABB) bool {
	return a.Min.X <= b.Max.X && a.Max.X >= b.Min.X &&
		a.Min.Y <= b.Max.Y && a.Max.Y >= b.Min.Y &&
		a.Min.Z <= b.Max.Z && a.Max.Z >= b.Min.Z
}

// QueryObjects appends to dst the IDs of all objects matching the region,
// by refining every candidate page (pagestore.Store.AppendMatches). The page
// scan reuses a stack buffer for typical result sizes, so steady-state
// queries allocate only when dst grows.
func (t *Tree) QueryObjects(r geom.Region, dst []pagestore.ObjectID) []pagestore.ObjectID {
	var pageArr [512]pagestore.PageID
	return t.store.AppendMatches(dst, r, t.QueryPages(r, pageArr[:0]))
}

// NodesVisited returns the cumulative number of nodes inspected by queries.
func (t *Tree) NodesVisited() int64 { return t.nodesVisited.Load() }

// ResetNodesVisited zeroes the node-visit counter.
func (t *Tree) ResetNodesVisited() { t.nodesVisited.Store(0) }
