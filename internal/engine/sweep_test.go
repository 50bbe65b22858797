package engine

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"scout/internal/cache"
	"scout/internal/pagestore"
	"scout/internal/prefetch"
	"scout/internal/workload"
)

// eagerFlush is the batched prefetch flush as it was before sweepBatch, kept
// as the reference the lazy sweep is diffed against: filter, sort and dedupe
// the whole prediction set up front, then read it run by run — each run
// billed at the brownout multiplier factor plus, on a replica, the per-page
// surcharge, ChargeHA once after the last run — inserting each run as soon
// as it is read.
func eagerFlush(store *pagestore.Store, c pageCache, pages []pagestore.PageID, disk *pagestore.Disk, budget time.Duration, factor float64, replica bool) (read []pagestore.PageID, spent time.Duration) {
	var batch []pagestore.PageID
	for _, pg := range pages {
		if !c.Contains(pg) {
			batch = append(batch, pg)
		}
	}
	batch = elevatorBatch(store, batch)
	var brown time.Duration
	var repPages int64
	store.Runs(batch, disk.Model().MaxBridge(), func(run []pagestore.PageID) bool {
		base := disk.ReadSorted(run)
		spent += base
		if factor > 1 {
			extra := time.Duration(float64(base) * (factor - 1))
			brown += extra
			spent += extra
		}
		if replica {
			repPages += int64(len(run))
			spent += time.Duration(len(run)) * disk.Model().ReplicaRead
		}
		for _, pg := range run {
			c.Insert(pg)
			read = append(read, pg)
		}
		return spent <= budget
	})
	disk.ChargeHA(brown, repPages)
	return read, spent
}

// lazyFlush is the same flush the way prefetchTurn issues it: one elevator
// batch swept lazily, its pages inserted once the sweep is priced.
func lazyFlush(store *pagestore.Store, c pageCache, pages []pagestore.PageID, disk *pagestore.Disk, budget time.Duration, factor float64, replica bool) ([]pagestore.PageID, time.Duration) {
	sorted := elevatorBatch(store, append([]pagestore.PageID(nil), pages...))
	spent, read := sweepBatch(store, c, disk, sorted, disk.Model().MaxBridge(), budget, factor, replica, nil)
	for _, pg := range read {
		c.Insert(pg)
	}
	return read, spent
}

// TestSweepBatchMatchesEagerFlush is the differential property behind the
// lazy flush: over random page multisets, layouts, budgets, brownout
// factors, replica service and pre-filled caches — including caches smaller
// than the batch holding pages from the batch's tail, so the flush's own
// inserts evict cached pages it has yet to reach — sweepBatch reads the same
// pages for the same spend and disk stats (seeks, bridges, fault delay,
// replica pages, simulated I/O) as the eager flush and leaves the cache in
// the same state, recency order included.
func TestSweepBatchMatchesEagerFlush(t *testing.T) {
	store, _ := cloudWorld(t, 4000, 5)
	// A short seek keeps MaxBridge at 4 pages, so a few hundred pages break
	// into many runs and bridged gaps.
	model := pagestore.CostModel{Seek: 200 * time.Microsecond, Transfer: 40 * time.Microsecond, ReplicaRead: 10 * time.Microsecond}
	kinds := []struct {
		name  string
		make  func(capacity int) pageCache
		stats func(pageCache) any
	}{
		{"lru", func(n int) pageCache { return cache.New(n) },
			func(c pageCache) any { return c.(*cache.Cache).Stats() }},
		{"sharded", func(n int) pageCache { return cache.NewStriped(n, 4) },
			func(c pageCache) any { return c.(*cache.Striped).Stats() }},
	}
	type service struct {
		factor  float64
		replica bool
	}
	services := []service{{1, false}, {1, true}, {2.5, false}, {2.5, true}}
	for _, layout := range []pagestore.Layout{pagestore.InsertionLayout(), pagestore.HilbertLayout()} {
		if err := store.Relayout(layout); err != nil {
			t.Fatal(err)
		}
		for _, kind := range kinds {
			t.Run(layout.Name()+"/"+kind.name, func(t *testing.T) {
				for _, sv := range services {
					t.Run(fmt.Sprintf("factor=%g/replica=%t", sv.factor, sv.replica), func(t *testing.T) {
						rng := rand.New(rand.NewSource(41))
						for trial := 0; trial < 60; trial++ {
							pages, distinct := randomBatch(rng, store)
							capacity := 2 * len(distinct)
							if trial%2 == 0 {
								capacity = 1 + rng.Intn(len(distinct)) // smaller than the batch
							}
							// Pre-fill: strangers first, then pages from the batch's tail
							// (most recent, so the flush evicts strangers, then them).
							var prefill []pagestore.PageID
							for i := rng.Intn(capacity + 1); i > 0; i-- {
								prefill = append(prefill, pagestore.PageID(rng.Intn(store.NumPages())))
							}
							prefill = append(prefill, distinct[len(distinct)-rng.Intn(len(distinct)+1):]...)

							_, total := eagerFlush(store, cache.New(1), pages, pagestore.NewDisk(store, model), math.MaxInt64, sv.factor, sv.replica)
							for _, budget := range []time.Duration{0, total / 2, math.MaxInt64} {
								ce, cl := kind.make(capacity), kind.make(capacity)
								for _, pg := range prefill {
									ce.Insert(pg)
									cl.Insert(pg)
								}
								de, dl := pagestore.NewDisk(store, model), pagestore.NewDisk(store, model)
								wantRead, wantSpent := eagerFlush(store, ce, pages, de, budget, sv.factor, sv.replica)
								gotRead, gotSpent := lazyFlush(store, cl, pages, dl, budget, sv.factor, sv.replica)

								at := fmt.Sprintf("trial %d budget %v capacity %d", trial, budget, capacity)
								if !slices.Equal(gotRead, wantRead) || gotSpent != wantSpent {
									t.Fatalf("%s: read %d pages for %v, eager flush read %d for %v", at, len(gotRead), gotSpent, len(wantRead), wantSpent)
								}
								if de.Stats() != dl.Stats() {
									t.Fatalf("%s: disk stats %+v, eager flush %+v", at, dl.Stats(), de.Stats())
								}
								// The surcharges must show where they apply, or the
								// diff above compares zeros.
								st := dl.Stats()
								var wantRep int64
								if sv.replica {
									wantRep = st.PagesRead
								}
								if st.ReplicaPages != wantRep {
									t.Fatalf("%s: replica pages %d of %d read", at, st.ReplicaPages, st.PagesRead)
								}
								if budget == math.MaxInt64 { // the same pages read at factor 1
									plain := kind.make(capacity)
									for _, pg := range prefill {
										plain.Insert(pg)
									}
									_, plainSpent := lazyFlush(store, plain, pages, pagestore.NewDisk(store, model), budget, 1, sv.replica)
									if (gotSpent > plainSpent) != (sv.factor > 1 && st.PagesRead > 0) {
										t.Fatalf("%s: spent %v at factor %g, %v at factor 1", at, gotSpent, sv.factor, plainSpent)
									}
								}
								if !reflect.DeepEqual(kind.stats(cl), kind.stats(ce)) {
									t.Fatalf("%s: cache stats %+v, eager flush %+v", at, kind.stats(cl), kind.stats(ce))
								}
								// Same contents, and the same recency order: pushing the
								// old pages out one insert at a time must evict in step.
								for i := 0; i <= capacity; i++ {
									for pg := 0; pg < store.NumPages(); pg++ {
										if ce.Contains(pagestore.PageID(pg)) != cl.Contains(pagestore.PageID(pg)) {
											t.Fatalf("%s: after %d evictions page %d cached on one side only", at, i, pg)
										}
									}
									fresh := pagestore.PageID(store.NumPages() + i)
									ce.Insert(fresh)
									cl.Insert(fresh)
								}
							}
						}
					})
				}
			})
		}
	}
}

// randomBatch draws a prediction-set-shaped page multiset: a few clusters
// of nearby logical pages (ladder rungs overlap, so duplicates are common)
// plus scattered singles. It returns the multiset in random order and its
// distinct pages in elevator order.
func randomBatch(rng *rand.Rand, store *pagestore.Store) (pages, distinct []pagestore.PageID) {
	n := store.NumPages()
	for c := 1 + rng.Intn(4); c > 0; c-- {
		base := rng.Intn(n)
		for i := 5 + rng.Intn(40); i > 0; i-- {
			pages = append(pages, pagestore.PageID((base+rng.Intn(30))%n))
		}
	}
	for i := rng.Intn(10); i > 0; i-- {
		pages = append(pages, pagestore.PageID(rng.Intn(n)))
	}
	rng.Shuffle(len(pages), func(i, j int) { pages[i], pages[j] = pages[j], pages[i] })
	distinct = elevatorBatch(store, append([]pagestore.PageID(nil), pages...))
	return pages, distinct
}

// TestServeRefusesStalePlans pins the stale-plan guard: plans carry cold
// costs and elevator batches bound to the layout they were made under, so a
// Relayout between PlanSessions and Serve must panic naming both layouts,
// while planning after the Relayout commits cleanly.
func TestServeRefusesStalePlans(t *testing.T) {
	store, tree := cloudWorld(t, 4000, 17)
	rng := rand.New(rand.NewSource(3))
	workloads := []SessionWorkload{
		{Sequences: []workload.Sequence{randomWalk(rng, 6, 30)}, Prefetcher: prefetch.NewStraightLine(1000)},
		{Sequences: []workload.Sequence{randomWalk(rng, 6, 30)}, Prefetcher: prefetch.NewStraightLine(1000)},
	}
	engCfg := DefaultConfig()
	engCfg.BatchedIO = true
	cfg := ServeConfig{Engine: engCfg, Policy: FairShare}

	stale := PlanSessions(store, tree, workloads, engCfg.Cost, 1)
	if err := store.Relayout(pagestore.HilbertLayout()); err != nil {
		t.Fatal(err)
	}
	func() {
		defer func() {
			msg, _ := recover().(string)
			if !strings.Contains(msg, `"insertion"`) || !strings.Contains(msg, `"hilbert"`) {
				t.Errorf("Serve of plans made before Relayout: recovered %q, want a panic naming both layouts", msg)
			}
		}()
		stale.Serve(cfg)
	}()

	fresh := PlanSessions(store, tree, workloads, engCfg.Cost, 1)
	if res := fresh.Serve(cfg); res.Queries != 12 || res.Disk.PagesRead == 0 {
		t.Errorf("Serve of plans made after Relayout: %d queries, %d pages read", res.Queries, res.Disk.PagesRead)
	}
	// Commits only read the plan-time batches: a second commit, flat or
	// sharded, sees what the first saw.
	for _, shards := range []int{0, 2} {
		cfg.Shards = shards
		if first := fresh.Serve(cfg); !reflect.DeepEqual(first, fresh.Serve(cfg)) {
			t.Errorf("shards %d: re-committing one plan set gave a different result", shards)
		}
	}
}
