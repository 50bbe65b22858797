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
// within each shard. dst is reused when it has the right shape. Because
// shard ranges are contiguous in physical order, an elevator batch (sorted,
// duplicate-free — the prefetch flush splits one) yields per-shard parts
// that are elevator batches themselves and whose concatenation in shard
// order is the input — the property that makes S=1 bit-exact with the
// unsharded batched path.
func (r Router) Split(pages []pagestore.PageID, dst [][]pagestore.PageID) [][]pagestore.PageID {
	n := r.part.Shards()
	if cap(dst) < n {
		dst = make([][]pagestore.PageID, n)
	}
	dst = dst[:n]
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

// Home picks the query's home shard: the one owning the largest share of
// its demand set (lowest index on ties), where the requesting session is
// modeled as colocated for the duration of the query. Returns 0 for an
// empty query so downstream charge arithmetic stays total.
func (r Router) Home(parts [][]pagestore.PageID) int {
	home, best := 0, -1
	for i, p := range parts {
		if len(p) > best {
			home, best = i, len(p)
		}
	}
	return home
}

// Charge prices the fan-out: every page shipped from a shard other than
// home pays CostModel.Route (the cross-shard handoff). counts[i] is the
// number of pages shard i actually served for this request. A query landing
// entirely on its home shard — in particular any query when S=1 — pays
// nothing.
func (r Router) Charge(counts []int, home int) (remote int, charge time.Duration) {
	for i, c := range counts {
		if i != home {
			remote += c
		}
	}
	return remote, time.Duration(remote) * r.cost.Route
}
