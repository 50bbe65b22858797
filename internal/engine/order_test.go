package engine

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"

	"scout/internal/cache"
	"scout/internal/fault"
	"scout/internal/pagestore"
)

// randomDemand draws a demand-set-shaped page list over n pages: a few
// clusters of nearby pages, in ascending logical order (as the R-tree
// returns them) or shuffled, with repeated pages every third trial and an
// empty set every tenth.
func randomDemand(rng *rand.Rand, n, trial int) []pagestore.PageID {
	if trial%10 == 0 {
		return nil
	}
	var pages []pagestore.PageID
	seen := map[pagestore.PageID]bool{}
	for c := 1 + rng.Intn(3); c > 0; c-- {
		base := rng.Intn(n)
		for i := 1 + rng.Intn(40); i > 0; i-- {
			pg := pagestore.PageID((base + rng.Intn(25)) % n)
			if !seen[pg] || trial%3 == 0 {
				pages = append(pages, pg)
				seen[pg] = true
			}
		}
	}
	if trial%2 == 0 {
		slices.Sort(pages)
	} else {
		rng.Shuffle(len(pages), func(i, j int) { pages[i], pages[j] = pages[j], pages[i] })
	}
	return pages
}

// orderWorlds runs fn on every layout of a 6-page store (where 8 and 16
// shards exceed the page count) and of a 500-page one.
func orderWorlds(t *testing.T, fn func(t *testing.T, store *pagestore.Store)) {
	for _, objects := range []int{48, 4000} {
		store, _ := cloudWorld(t, objects, 23)
		for _, name := range pagestore.LayoutNames() {
			l, err := pagestore.ParseLayout(name)
			if err != nil {
				t.Fatal(err)
			}
			if err := store.Relayout(l); err != nil {
				t.Fatal(err)
			}
			t.Run(fmt.Sprintf("pages=%d/%s", store.NumPages(), name), func(t *testing.T) { fn(t, store) })
		}
		store.Relayout(pagestore.InsertionLayout())
	}
}

// TestPhysicalOrderRouting is the property behind a demand set's one
// physical order and the run-wise prefetch split. Over random page sets,
// every layout and S ∈ {1, 2, 8, 16}:
//   - physicalOrder lists every position once, in ascending physical order,
//     and is empty exactly when the set already is in that order;
//   - route's merge walk assigns each position the shard Split puts it in,
//     so its parts, read in position order, are Split's parts;
//   - each shard's run of the physical order is its part elevator-sorted,
//     and coldSweep prices the run as Disk.ColdCost prices the part;
//   - SplitRuns cuts an elevator batch into exactly Split's parts.
func TestPhysicalOrderRouting(t *testing.T) {
	cost := DefaultConfig().Cost
	orderWorlds(t, func(t *testing.T, store *pagestore.Store) {
		disk := pagestore.NewDisk(store, cost)
		for _, shards := range []int{1, 2, 8, 16} {
			r := NewRouter(store, pagestore.NewPartition(store, shards), cost)
			rng := rand.New(rand.NewSource(int64(shards)))
			for trial := 0; trial < 60; trial++ {
				at := fmt.Sprintf("S=%d trial %d", shards, trial)
				pages := randomDemand(rng, store.NumPages(), trial)
				order, _ := physicalOrder(store, pages, nil, nil)

				sorted := slices.IsSortedFunc(pages, func(a, b pagestore.PageID) int {
					return int(store.PhysicalPage(a)) - int(store.PhysicalPage(b))
				})
				if sorted != (len(order) == 0) {
					t.Fatalf("%s: set sorted %v, order of %d positions", at, sorted, len(order))
				}
				inOrder := make([]pagestore.PageID, len(pages))
				for k := range pages {
					inOrder[k] = pages[physAt(order, k)]
				}
				if len(order) > 0 && !slices.Equal(slices.Sorted(slices.Values(order)), positions(len(pages))) {
					t.Fatalf("%s: order %v is not a permutation", at, order)
				}
				want := slices.Clone(pages)
				store.ElevatorSort(want)
				if !slices.Equal(inOrder, want) {
					t.Fatalf("%s: pages in order %v, elevator order %v", at, inOrder, want)
				}

				split := r.Split(pages, nil)
				cut, shardOf := r.route(pages, order, nil, nil)
				if len(cut) != shards+1 || cut[0] != 0 || cut[shards] != len(pages) {
					t.Fatalf("%s: cut %v", at, cut)
				}
				for i := 0; i < shards; i++ {
					var part []pagestore.PageID
					for j, pg := range pages {
						if shards == 1 || int(shardOf[j]) == i {
							part = append(part, pg)
						}
					}
					if !slices.Equal(part, split[i]) {
						t.Fatalf("%s shard %d: routed %v, Split %v", at, i, part, split[i])
					}
					run := inOrder[cut[i]:cut[i+1]]
					sortedPart := slices.Clone(split[i])
					store.ElevatorSort(sortedPart)
					if !slices.Equal(run, sortedPart) {
						t.Fatalf("%s shard %d: run %v, elevator-sorted part %v", at, i, run, sortedPart)
					}
					if got, want := coldSweep(store, cost, pages, order, cut[i], cut[i+1]), disk.ColdCost(split[i]); got != want {
						t.Fatalf("%s shard %d: cold sweep %v, Disk.ColdCost %v", at, i, got, want)
					}
				}

				batch := elevatorBatch(store, slices.Clone(pages))
				runs, wantRuns := r.SplitRuns(batch, nil), r.Split(batch, nil)
				for i := range wantRuns {
					if !slices.Equal(runs[i], wantRuns[i]) {
						t.Fatalf("%s shard %d: run-wise part %v, Split %v", at, i, runs[i], wantRuns[i])
					}
				}
			}
		}
	})
}

// positions is 0..n-1.
func positions(n int) []int32 {
	out := make([]int32, n)
	for i := range out {
		out[i] = int32(i)
	}
	return out
}

// TestDemandTurnMissLists checks the lookup half of the demand turn against
// Split: over random page sets and pre-filled shard caches, every layout and
// S ∈ {1, 2, 8, 16}, each home's miss list is ElevatorSort of its part's
// uncached pages — what serveMisses reads with ReadSorted — its hits are the
// rest, and its cache ends in the state lookups of the part, in query order,
// leave: the same recency order, not only the same pages.
func TestDemandTurnMissLists(t *testing.T) {
	cfg := DefaultConfig()
	cfg.CacheFraction = 0.2
	orderWorlds(t, func(t *testing.T, store *pagestore.Store) {
		n := store.NumPages()
		for _, shards := range []int{1, 2, 8, 16} {
			rng := rand.New(rand.NewSource(int64(100 + shards)))
			for trial := 0; trial < 40; trial++ {
				at := fmt.Sprintf("S=%d trial %d", shards, trial)
				f := newFleet(store, cfg, shards, nil)
				twins := make([]*cache.Cache, shards)
				for i, sh := range f.shards {
					c := sh.cache.(*cache.Cache)
					twins[i] = cache.New(c.Capacity())
					for k := rng.Intn(2 * n); k > 0; k-- {
						pg := pagestore.PageID(rng.Intn(n))
						c.Insert(pg)
						twins[i].Insert(pg)
					}
				}
				pages := randomDemand(rng, n, trial)
				order, _ := physicalOrder(store, pages, nil, nil)
				parts := f.router.Split(pages, nil)
				f.demandTurn(pages, order, 0)

				for i, sh := range f.shards {
					var miss []pagestore.PageID
					hits := 0
					for _, pg := range parts[i] {
						if twins[i].Lookup(pg) {
							hits++
						} else {
							miss = append(miss, pg)
						}
					}
					store.ElevatorSort(miss)
					if !slices.Equal(sh.miss, miss) {
						t.Fatalf("%s shard %d: miss list %v, elevator-sorted misses %v", at, i, sh.miss, miss)
					}
					if f.demand[i].hits != hits || f.demand[i].pages != len(parts[i]) {
						t.Fatalf("%s shard %d: %d hits of %d pages, want %d of %d", at, i, f.demand[i].hits, f.demand[i].pages, hits, len(parts[i]))
					}
					if !sameLRU(sh.cache.(*cache.Cache), twins[i], n) {
						t.Fatalf("%s shard %d: cache recency differs from lookups in query order", at, i)
					}
				}
			}
		}
	})
}

// sameLRU reports whether two caches hold the same pages in the same
// recency order over a universe of n pages: it pushes both out one fresh
// insert at a time and compares membership after each. Both caches are
// spent afterwards.
func sameLRU(a, b *cache.Cache, n int) bool {
	if a.Stats() != b.Stats() {
		return false
	}
	for i := 0; i <= a.Capacity(); i++ {
		for pg := 0; pg < n; pg++ {
			if a.Contains(pagestore.PageID(pg)) != b.Contains(pagestore.PageID(pg)) {
				return false
			}
		}
		fresh := pagestore.PageID(n + i)
		a.Insert(fresh)
		b.Insert(fresh)
	}
	return true
}

// serveConfigs are the commit configurations the plan-memory and
// concurrency tests run: the flat per-page, batched and private-cache
// fleets, and the 8-shard replicated one, clean and under shard:flaky.
func serveConfigs(t *testing.T) map[string]ServeConfig {
	plan, err := fault.ParseProfile("shard:flaky", 3)
	if err != nil {
		t.Fatal(err)
	}
	base := ServeConfig{Engine: DefaultConfig(), Policy: FairShare, InterferenceSeek: 500 * time.Microsecond}
	batched, private, sharded := base, base, base
	batched.Engine.BatchedIO = true
	private.PrivateCaches = true
	sharded.Shards, sharded.Replicas = 8, 2
	flaky := sharded
	flaky.Faults, flaky.Breaker = fault.New(plan), DefaultBreakerConfig()
	return map[string]ServeConfig{"per-page": base, "batched": batched, "private": private, "sharded": sharded, "flaky": flaky}
}

// hashSteps folds every step's plan memory — demand pages, physical order,
// ladder, elevator batch — into one FNV-1a value.
func hashSteps(p *SessionPlans) uint64 {
	h := fnvOffset
	fold := func(v uint64) { h = (h ^ v) * fnvPrime }
	for _, steps := range p.steps {
		for _, st := range steps {
			fold(uint64(len(st.pages)))
			for _, pg := range st.pages {
				fold(uint64(pg))
			}
			fold(uint64(len(st.order)))
			for _, j := range st.order {
				fold(uint64(j))
			}
			for _, pages := range [][]pagestore.PageID{st.ladder, st.batch} {
				fold(uint64(len(pages)))
				for _, pg := range pages {
					fold(uint64(pg))
				}
			}
		}
	}
	return h
}

// TestServeLeavesPlansUntouched is the aliasing guard: a commit reads the
// plans in place — the demand pages and their order through route and
// lookup, the ladder through the per-page flush, the elevator batch through
// SplitRuns' subslices — and must never write them, since every later
// commit of the same plans reads them too. Every step's pages, order, ladder
// and batch hash the same before and after a commit under each
// configuration.
func TestServeLeavesPlansUntouched(t *testing.T) {
	store, tree := cloudWorld(t, 4000, 29)
	if err := store.Relayout(pagestore.HilbertLayout()); err != nil {
		t.Fatal(err)
	}
	defer store.Relayout(pagestore.InsertionLayout())
	plans := PlanSessions(store, tree, walkWorkloads(rand.New(rand.NewSource(8)), 12, 10), DefaultConfig().Cost, 2)
	ordered := 0
	for _, steps := range plans.steps {
		for _, st := range steps {
			if len(st.order) > 0 {
				ordered++
			}
		}
	}
	if ordered == 0 {
		t.Fatal("no step has a physical order: the guard would not see the order read")
	}
	want := hashSteps(plans)
	for name, cfg := range serveConfigs(t) {
		plans.Serve(cfg)
		if got := hashSteps(plans); got != want {
			t.Fatalf("%s: a commit changed the plans (step hash %#x, want %#x)", name, got, want)
		}
	}
}

// TestServeConcurrentCommits is the concurrency contract of a plan set: a
// commit shares nothing mutable with another — its fleet, shared cache and
// arbiters are its own, unlocked, and the plans are read-only — so commits
// of one SessionPlans under different configurations, run at once, each
// equal their sequential run. Under -race it also proves that nothing a
// commit writes without a lock is reachable from a second commit.
func TestServeConcurrentCommits(t *testing.T) {
	store, tree := cloudWorld(t, 4000, 29)
	if err := store.Relayout(pagestore.HilbertLayout()); err != nil {
		t.Fatal(err)
	}
	defer store.Relayout(pagestore.InsertionLayout())
	plans := PlanSessions(store, tree, walkWorkloads(rand.New(rand.NewSource(9)), 16, 10), DefaultConfig().Cost, 2)
	all := serveConfigs(t)
	names := []string{"batched", "private", "sharded", "flaky"}
	want := make([]ServeResult, len(names))
	for i, name := range names {
		want[i] = plans.Serve(all[name])
	}
	got := make([]ServeResult, len(names))
	var wg sync.WaitGroup
	for i, name := range names {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = plans.Serve(all[name])
		}()
	}
	wg.Wait()
	for i, name := range names {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("%s: a commit run beside three others differs from its sequential run", name)
		}
	}
}
