package engine

import (
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
// within each shard. dst is reused when it has the right shape (reuse it only
// with the Router that filled it). Because shard ranges are contiguous in
// physical order, an elevator batch (sorted, duplicate-free — the prefetch
// flush splits one) yields per-shard parts that are elevator batches
// themselves and whose concatenation in shard order is the input.
//
// The parts are read-only for the caller and everything downstream of it
// (shard.lookup, sweepBatch and Disk.ReadBatch only read them): a one-range
// partition has nothing to route, so its single part IS the input slice, not
// a copy of it.
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
