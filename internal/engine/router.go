package engine

import (
	"slices"
	"time"

	"scout/internal/pagestore"
)

// Router is the stateless half of the sharded engine: it partitions a
// query's demand pages and prefetch prediction set by Hilbert range of the
// layout key (pagestore.Partition splits the physical slot space, and under
// the hilbert layout physical order is Hilbert order), and prices the merge
// of per-shard costs. It owns no mutable state — the same Router value can
// serve any number of concurrent coordinators.
type Router struct {
	store *pagestore.Store
	part  *pagestore.Partition
	cost  pagestore.CostModel
}

// NewRouter binds a partition and cost model to a store.
func NewRouter(store *pagestore.Store, part *pagestore.Partition, cost pagestore.CostModel) Router {
	return Router{store: store, part: part, cost: cost}
}

// Partition returns the underlying range partition.
func (r Router) Partition() *pagestore.Partition { return r.part }

// Split distributes pages to per-shard slices, preserving the input order
// within each shard, one ShardOf per page. dst is reused when it has the
// right shape (reuse it only with the Router that filled it). Because shard
// ranges are contiguous in physical order, an elevator batch (sorted,
// duplicate-free) yields per-shard parts that are elevator batches
// themselves and whose concatenation in shard order is the input — SplitRuns
// finds them without a per-page search. The turn itself routes demand sets
// with route and prediction sets with SplitRuns; Split, the per-page
// reference both are tested against, serves only bench probes and tests.
//
// The parts are read-only for the caller and everything downstream of it:
// a one-range partition has nothing to route, so its single part IS the
// input slice, not a copy of it.
func (r Router) Split(pages []pagestore.PageID, dst [][]pagestore.PageID) [][]pagestore.PageID {
	n := r.part.Shards()
	if cap(dst) < n {
		dst = make([][]pagestore.PageID, n)
	}
	dst = dst[:n]
	if n == 1 {
		dst[0] = pages
		return dst
	}
	for i := range dst {
		dst[i] = dst[i][:0]
	}
	for _, pg := range pages {
		s := r.part.ShardOf(r.store, pg)
		dst[s] = append(dst[s], pg)
	}
	return dst
}

// SplitRuns is Split for an elevator batch — ascending physical order, the
// shape the prefetch flush reads: each shard's part is a contiguous run of
// batch, found with one binary search per shard boundary and returned as a
// subslice of it, nothing copied. The parts alias batch (plan memory, on the
// serving path), so they are read-only, and dst must never be handed to
// Split, which appends into its parts.
func (r Router) SplitRuns(batch []pagestore.PageID, dst [][]pagestore.PageID) [][]pagestore.PageID {
	n := r.part.Shards()
	if cap(dst) < n {
		dst = make([][]pagestore.PageID, n)
	}
	dst = dst[:n]
	lo := 0
	for i := 0; i < n-1; i++ {
		_, bound := r.part.Bounds(i)
		k, end := lo, len(batch)
		for k < end {
			mid := int(uint(k+end) >> 1)
			if r.store.PhysicalPage(batch[mid]) < bound {
				k = mid + 1
			} else {
				end = mid
			}
		}
		dst[i], lo = batch[lo:k], k
	}
	dst[n-1] = batch[lo:]
	return dst
}

// route is Split for a demand set with its physical order (physicalOrder):
// one merge walk of the order against the partition bounds, no per-page
// ShardOf. (A walk, not SplitRuns' binary searches: it must visit every
// position anyway to record its shard.) It fills cut — cut[i]:cut[i+1] is
// shard i's run of the physical order, its pages in elevator order — and, on
// a multi-range partition, at with each position's shard: Split's part i is
// the positions j with at[j] == i, ascending. Both are returned grown for
// reuse.
func (r Router) route(pages []pagestore.PageID, order []int32, cut []int, at []int32) ([]int, []int32) {
	n := r.part.Shards()
	cut = append(cut[:0], 0)
	if n > 1 {
		at = slices.Grow(at[:0], len(pages))[:len(pages)]
		s := 0
		_, bound := r.part.Bounds(0)
		for k := range pages {
			j := physAt(order, k)
			for phys := r.store.PhysicalPage(pages[j]); phys >= bound; {
				s++
				cut = append(cut, k)
				_, bound = r.part.Bounds(s)
			}
			at[j] = int32(s)
		}
	}
	for len(cut) <= n {
		cut = append(cut, len(pages))
	}
	return cut, at
}

// physicalOrder returns the positions of pages in ascending physical order —
// a repeated page's positions ascending — written into dst, or dst[:0] when
// pages already are in that order, as QueryPages returns them under the
// insertion layout. keys is sort scratch, returned for reuse. Every consumer
// of a demand set's order reads it through physAt.
func physicalOrder(store *pagestore.Store, pages []pagestore.PageID, dst []int32, keys []uint64) ([]int32, []uint64) {
	sorted := true
	for k := 1; k < len(pages) && sorted; k++ {
		sorted = store.PhysicalPage(pages[k-1]) <= store.PhysicalPage(pages[k])
	}
	if sorted {
		return dst[:0], keys
	}
	keys = keys[:0]
	for j, pg := range pages {
		keys = append(keys, uint64(store.PhysicalPage(pg))<<32|uint64(j))
	}
	slices.Sort(keys)
	dst = slices.Grow(dst[:0], len(keys))[:len(keys)]
	for k, key := range keys {
		dst[k] = int32(uint32(key))
	}
	return dst, keys
}

// physAt is the position of the k-th page of a demand set in physical order:
// order[k], or k when the order is empty because the set already is sorted.
func physAt(order []int32, k int) int {
	if len(order) == 0 {
		return k
	}
	return int(order[k])
}

// coldSweep prices positions lo..hi-1 of a demand set's physical order as one
// cold elevator sweep — a seek at the start and at every physical
// discontinuity, a repeated page included, and a transfer per page — which is
// Disk.ColdCost's schedule, priced without sorting a copy.
func coldSweep(store *pagestore.Store, m pagestore.CostModel, pages []pagestore.PageID, order []int32, lo, hi int) time.Duration {
	var seeks int64
	last := pagestore.InvalidPage
	for k := lo; k < hi; k++ {
		phys := store.PhysicalPage(pages[physAt(order, k)])
		if last == pagestore.InvalidPage || phys != last+1 {
			seeks++
		}
		last = phys
	}
	return time.Duration(seeks)*m.Seek + time.Duration(hi-lo)*m.Transfer
}

// Fanout counts the shards holding at least one page.
func (r Router) Fanout(parts [][]pagestore.PageID) int {
	n := 0
	for _, p := range parts {
		if len(p) > 0 {
			n++
		}
	}
	return n
}

// Charge prices the fan-out: every page shipped from a shard other than the
// query's home pays CostModel.Route (the cross-shard handoff). A query landing
// entirely on its home shard — in particular any query of a one-range
// partition — ships none and pays nothing.
func (r Router) Charge(remote int) time.Duration {
	return time.Duration(remote) * r.cost.Route
}
