// Package flatindex implements a FLAT-like spatial index (Tauheed et al.,
// "Accelerating range queries for brain simulations", ICDE 2012 — the
// paper's reference [27]). FLAT's two properties matter to SCOUT-OPT (§6):
//
//  1. ordered retrieval — query results can be read page-by-page starting
//     from a chosen location, expanding through page neighborhood links, so
//     graph construction can begin at the previous query's exit locations
//     (sparse graph construction, §6.2);
//  2. neighborhood information — from any page, the physically adjacent
//     pages in space are known, so the structure can be followed page by
//     page across the gap between queries (gap traversal, §6.3).
//
// The index shares the store pagination (and therefore the physical layout)
// with the R-tree: it adds a page-adjacency graph on top. Queries return
// exactly the same page set as the R-tree — only the retrieval order
// differs — so hit-rate comparisons between SCOUT and SCOUT-OPT are
// layout-for-layout fair.
package flatindex

import (
	"runtime"
	"sort"
	"sync"

	"scout/internal/geom"
	"scout/internal/pagestore"
	"scout/internal/rtree"
)

// Index is an immutable FLAT-like index over a paginated store. Safe for
// concurrent readers.
type Index struct {
	store *pagestore.Store
	// seed locates candidate pages; it reuses the shared R-tree machinery
	// over the same pages (FLAT's "first find an arbitrary object inside
	// the query region" seed lookup).
	seed *rtree.Tree
	// neighbors[p] lists pages whose MBR intersects page p's MBR, in the
	// seed tree's ascending page-ID order. This is the precomputed spatial
	// neighborhood information.
	neighbors [][]pagestore.PageID
}

// Build constructs the index over an already-paginated store. The epsilon
// inflates page MBRs before the adjacency test, connecting pages separated
// by small empty gaps; zero connects only overlapping/touching MBRs.
func Build(store *pagestore.Store, cfg rtree.Config, epsilon float64) (*Index, error) {
	seed, err := rtree.Build(store, cfg)
	if err != nil {
		return nil, err
	}
	idx := &Index{
		store:     store,
		seed:      seed,
		neighbors: make([][]pagestore.PageID, store.NumPages()),
	}
	// Each goroutine probes a contiguous range of pages and writes only
	// those pages' lists, so the lists do not depend on the worker count.
	pages := store.NumPages()
	workers := min(runtime.GOMAXPROCS(0), pages)
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			var buf []pagestore.PageID
			for p := lo; p < hi; p++ {
				pid := pagestore.PageID(p)
				buf = idx.seed.QueryPages(store.PageBounds(pid).Inflate(epsilon), buf[:0])
				ns := make([]pagestore.PageID, 0, len(buf))
				for _, q := range buf {
					if q != pid {
						ns = append(ns, q)
					}
				}
				idx.neighbors[p] = ns
			}
		}(w*pages/workers, (w+1)*pages/workers)
	}
	wg.Wait()
	return idx, nil
}

// Store returns the store this index serves.
func (x *Index) Store() *pagestore.Store { return x.store }

// Neighbors returns the pages spatially adjacent to p. Callers must not
// modify the returned slice.
func (x *Index) Neighbors(p pagestore.PageID) []pagestore.PageID {
	return x.neighbors[p]
}

// QueryPages appends the candidate pages of the region: the R-tree's result
// set, in its ascending page-ID order.
func (x *Index) QueryPages(r geom.Region, dst []pagestore.PageID) []pagestore.PageID {
	return x.seed.QueryPages(r, dst)
}

// QueryPagesFrom returns the candidate pages of the region in ordered-
// retrieval order: a breadth-first expansion through neighborhood links,
// starting at the candidate page closest to `from` (typically the previous
// query's exit location). Candidate pages unreachable through candidate-to-
// candidate links are appended afterwards, ordered by distance from `from`,
// so the result set always equals the R-tree's.
func (x *Index) QueryPagesFrom(r geom.Region, from geom.Vec3) []pagestore.PageID {
	candidates := x.seed.QueryPages(r, nil)
	if len(candidates) == 0 {
		return nil
	}
	inCand := make(map[pagestore.PageID]bool, len(candidates))
	for _, p := range candidates {
		inCand[p] = true
	}
	// Seed: candidate page whose MBR is closest to the start point.
	seed := candidates[0]
	best := x.store.PageBounds(seed).DistSq(from)
	for _, p := range candidates[1:] {
		if d := x.store.PageBounds(p).DistSq(from); d < best {
			best = d
			seed = p
		}
	}
	ordered := make([]pagestore.PageID, 0, len(candidates))
	visited := make(map[pagestore.PageID]bool, len(candidates))
	queue := []pagestore.PageID{seed}
	visited[seed] = true
	for len(queue) > 0 {
		p := queue[0]
		queue = queue[1:]
		ordered = append(ordered, p)
		for _, q := range x.neighbors[p] {
			if inCand[q] && !visited[q] {
				visited[q] = true
				queue = append(queue, q)
			}
		}
	}
	if len(ordered) < len(candidates) {
		// Disconnected candidates: append by distance from the start.
		rest := make([]pagestore.PageID, 0, len(candidates)-len(ordered))
		for _, p := range candidates {
			if !visited[p] {
				rest = append(rest, p)
			}
		}
		sort.Slice(rest, func(a, b int) bool {
			return x.store.PageBounds(rest[a]).DistSq(from) <
				x.store.PageBounds(rest[b]).DistSq(from)
		})
		ordered = append(ordered, rest...)
	}
	return ordered
}

// QueryObjects returns the IDs of all objects matching the region.
func (x *Index) QueryObjects(r geom.Region, dst []pagestore.ObjectID) []pagestore.ObjectID {
	return x.seed.QueryObjects(r, dst)
}

// SeedPage returns the page whose MBR is nearest to the given point
// (containing it if possible). ok is false for an empty store. This is the
// entry point of gap traversal: from the exit location of the last query,
// SCOUT-OPT loads the neighboring pages and follows the structure.
func (x *Index) SeedPage(p geom.Vec3) (pagestore.PageID, bool) {
	n := x.store.NumPages()
	if n == 0 {
		return 0, false
	}
	// Fast path: pages containing the point, via a degenerate box query.
	hits := x.seed.QueryPages(geom.AABB{Min: p, Max: p}, nil)
	if len(hits) > 0 {
		best := hits[0]
		bestVol := x.store.PageBounds(best).Volume()
		for _, h := range hits[1:] {
			if v := x.store.PageBounds(h).Volume(); v < bestVol {
				bestVol = v
				best = h
			}
		}
		return best, true
	}
	// Fallback: nearest page by expanding search radius.
	for radius := x.searchSeedRadius(); ; radius *= 2 {
		hits = x.seed.QueryPages(geom.CubeAt(p, radius*radius*radius), nil)
		if len(hits) > 0 {
			best := hits[0]
			bestD := x.store.PageBounds(best).DistSq(p)
			for _, h := range hits[1:] {
				if d := x.store.PageBounds(h).DistSq(p); d < bestD {
					bestD = d
					best = h
				}
			}
			return best, true
		}
	}
}

// searchSeedRadius returns an initial nearest-page search radius: the mean
// page MBR side length.
func (x *Index) searchSeedRadius() float64 {
	n := x.store.NumPages()
	sample := n
	if sample > 64 {
		sample = 64
	}
	var sum float64
	for i := 0; i < sample; i++ {
		s := x.store.PageBounds(pagestore.PageID(i * n / sample)).Size()
		sum += (s.X + s.Y + s.Z) / 3
	}
	r := sum / float64(sample)
	if r <= 0 {
		r = 1
	}
	return r
}
