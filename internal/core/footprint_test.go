package core

import (
	"runtime"
	"testing"

	"scout/internal/prefetch"
)

// walkAllocBytes returns the bytes a fresh prefetcher allocates over its
// construction and a 10-query overlapping walk along chain 0. The queries
// are executed beforehand, so only the prefetcher's own state is counted.
func walkAllocBytes(w *chainWorld, fresh func(*chainWorld) prefetch.Prefetcher) uint64 {
	var obs []prefetch.Observation
	for i := 0; i < 10; i++ {
		region := queryAt(30+4*float64(i), 0, 10)
		obs = append(obs, prefetch.Observation{
			Seq:    i,
			Region: region,
			Center: region.Center(),
			Result: w.tree.QueryObjects(region, nil),
			Pages:  w.tree.QueryPages(region, nil),
		})
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	p := fresh(w)
	for _, o := range obs {
		p.Observe(o)
	}
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestPrefetcherStateScalesWithResult: what a prefetcher allocates depends on
// what it has seen, not on the size of the store. The two worlds hold the
// same walked chain (same object IDs, same results); the large one has four
// times the objects, all of them filler the walk never touches.
func TestPrefetcherStateScalesWithResult(t *testing.T) {
	small := newChainWorld(t, 25, 2000, 20)
	large := newChainWorld(t, 100, 2000, 20)
	if small.store.NumObjects()*4 != large.store.NumObjects() {
		t.Fatalf("worlds hold %d and %d objects, want 1:4", small.store.NumObjects(), large.store.NumObjects())
	}
	for name, fresh := range map[string]func(*chainWorld) prefetch.Prefetcher{
		"SCOUT":     func(w *chainWorld) prefetch.Prefetcher { return New(w.store, nil, DefaultConfig()) },
		"SCOUT-OPT": func(w *chainWorld) prefetch.Prefetcher { return NewOpt(w.flat, nil, DefaultConfig()) },
	} {
		a, b := walkAllocBytes(small, fresh), walkAllocBytes(large, fresh)
		t.Logf("%s: %d bytes over N objects, %d over 4N", name, a, b)
		if a == 0 || float64(b) > 1.5*float64(a) {
			t.Errorf("%s allocates %d bytes over N objects and %d over 4N: state grows with the store", name, a, b)
		}
	}
}
