package engine

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"scout/internal/fault"
	"scout/internal/pagestore"
	"scout/internal/prefetch"
)

// TestRouterSplitReuseAliasing pins the Split reuse contract and its hazard:
// passing the previous result back as dst reuses its backing arrays (no
// per-call allocation), which means the OLD slices are clobbered in place —
// a caller must copy a part it keeps before handing the scratch back. A
// caller holding slices across a re-split would silently read the next
// query's pages.
func TestRouterSplitReuseAliasing(t *testing.T) {
	store, tree := cloudWorld(t, 3000, 23)
	if err := store.Relayout(pagestore.HilbertLayout()); err != nil {
		t.Fatal(err)
	}
	defer store.Relayout(pagestore.InsertionLayout())

	const shards = 4
	r := NewRouter(store, pagestore.NewPartition(store, shards), pagestore.DefaultCostModel())
	rng := rand.New(rand.NewSource(5))
	seqA := randomWalk(rng, 2, 24)
	seqB := randomWalk(rng, 2, 24)
	pagesA := tree.QueryPages(seqA.Queries[0].Region, nil)
	pagesB := tree.QueryPages(seqB.Queries[1].Region, nil)
	if len(pagesA) == 0 || len(pagesB) == 0 {
		t.Fatal("empty query page sets; test is vacuous")
	}

	parts := r.Split(pagesA, nil)
	held := make([][]pagestore.PageID, shards)
	caps := make([]int, shards)
	for i := range parts {
		held[i] = parts[i] // aliased header, the hazard under test
		caps[i] = cap(parts[i])
	}

	parts2 := r.Split(pagesB, parts)

	// Reuse really reused: no shard's backing array was reallocated unless
	// it had to grow, and where both splits filled a shard the old held
	// header now shows the NEW pages (the alias is live, not a copy).
	inB := make(map[pagestore.PageID]bool, len(pagesB))
	for _, pg := range pagesB {
		inB[pg] = true
	}
	total := 0
	for i := range parts2 {
		total += len(parts2[i])
		if cap(parts2[i]) < caps[i] && len(parts2[i]) <= caps[i] {
			t.Errorf("shard %d: reuse shrank capacity %d -> %d", i, caps[i], cap(parts2[i]))
		}
		for _, pg := range parts2[i] {
			if !inB[pg] {
				t.Fatalf("shard %d: stale page %d from the previous split leaked through", i, pg)
			}
			if own := r.part.ShardOf(store, pg); own != i {
				t.Fatalf("shard %d: page %d belongs to shard %d", i, pg, own)
			}
		}
		if len(parts2[i]) > 0 && len(parts2[i]) <= caps[i] && caps[i] > 0 {
			if &parts2[i][0] != &held[i][:1][0] {
				t.Errorf("shard %d: backing array was reallocated despite sufficient capacity", i)
			}
		}
	}
	if total != len(pagesB) {
		t.Fatalf("re-split dropped pages: %d != %d", total, len(pagesB))
	}
}

// TestShardSetPanicSurfaces: a panic in one shard's turn surfaces on the
// caller with its original value (silent loss is worse than a crash), the
// shards before it have run and the ones after it have not, and the set
// stays usable — there is no worker to lose and no barrier to wedge.
func TestShardSetPanicSurfaces(t *testing.T) {
	const shards = 4
	state := make([]*int, shards)
	for i := range state {
		state[i] = new(int)
	}
	set := NewShardSet(state)

	boom := errors.New("shard 2 boom")
	func() {
		defer func() {
			if r := recover(); r != boom {
				t.Fatalf("recovered %v, want the shard's own panic value", r)
			}
		}()
		set.Do(func(i int, n *int) {
			if i == 2 {
				panic(boom)
			}
			*n++
		})
	}()
	ran := []int{1, 1, 0, 0}
	for i, n := range state {
		if *n != ran[i] {
			t.Fatalf("after panic, shard %d count %d, want %d", i, *n, ran[i])
		}
	}

	set.Do(func(i int, n *int) { *n++ })
	for i, n := range state {
		if *n != ran[i]+1 {
			t.Fatalf("turn after the panic: shard %d count %d, want %d", i, *n, ran[i]+1)
		}
	}
}

// TestFailoverLedgerRecovery is the half-open recovery contract on the
// virtual clock: a tripped shard health ledger routes the shard's demand to
// its replica for exactly the cooldown, then the next demand read becomes
// the half-open probe against the home shard, and a clean probe closes the
// ledger so home routing resumes — no wall clock, no background repair,
// just virtual time passing.
func TestFailoverLedgerRecovery(t *testing.T) {
	store, _ := cloudWorld(t, 1000, 9)
	part := pagestore.NewReplicatedPartition(store, 2, 2)
	h := newHAState(part, nil, pagestore.DefaultCostModel(), 0)
	cooldown := failoverBreakerConfig().Cooldown

	t0 := 10 * time.Millisecond
	if r := h.routeDemand(0, t0); r.target != 0 || r.k != 0 || r.pre != 0 {
		t.Fatalf("healthy home not served in place: %+v", r)
	}

	// One outage discovery's worth of evidence trips the ledger immediately.
	h.evidence[0] = 3
	h.observe(t0)
	if !h.health[0].open || h.stats.FailoverTrips != 1 {
		t.Fatalf("ledger did not trip: open=%v trips=%d", h.health[0].open, h.stats.FailoverTrips)
	}

	during := t0 + cooldown/2
	if r := h.routeDemand(0, during); r.target != 1 || r.k != 1 {
		t.Fatalf("tripped home not failed over during cooldown: %+v", r)
	}
	if r := h.routeQuiet(0, 0, during); r.target != 1 || r.k != 1 {
		t.Fatalf("background routing did not avoid the tripped home: %+v", r)
	}

	after := t0 + cooldown + time.Millisecond
	if r := h.routeDemand(0, after); r.target != 0 || r.k != 0 {
		t.Fatalf("post-cooldown demand read did not probe the home: %+v", r)
	}
	h.observe(after) // clean probe: zero evidence accumulated
	if h.health[0].open {
		t.Fatal("clean half-open probe did not close the ledger")
	}
	if h.stats.FailoverTrips != 1 {
		t.Fatalf("recovery changed the trip count: %d", h.stats.FailoverTrips)
	}
	if r := h.routeDemand(0, after+time.Millisecond); r.target != 0 || r.k != 0 {
		t.Fatalf("home routing did not resume after recovery: %+v", r)
	}
}

// TestHedgeTieGoesToPrimary pins the hedge's tie-break: when the hedge's
// duplicate sweep costs exactly what the primary's does, the primary wins —
// its pages enter the home cache and HedgeWins stays put — while both disks
// bill the work. Two shards, chains of two, a zero replica surcharge and a
// threshold below 1 hedge the slower home on every window; both of its sweeps
// start from a cold head at factor 1, so their spends tie.
func TestHedgeTieGoesToPrimary(t *testing.T) {
	store, _ := cloudWorld(t, 1000, 9)
	cfg := DefaultConfig()
	cfg.Cost = pagestore.CostModel{Seek: 200 * time.Microsecond, Transfer: 40 * time.Microsecond}
	cfg.Replicas, cfg.Hedge = 2, 0.5
	f := newFleet(store, cfg, 2, nil)
	_, bound := f.router.part.Bounds(0)
	if bound < 4 || int(bound)+20 >= store.NumPages() {
		t.Fatalf("range bound %d of %d pages leaves no room for the parts", bound, store.NumPages())
	}
	// Home 0 holds four pages, one bridged run; home 1 one page, far from it.
	batch := elevatorBatch(store, []pagestore.PageID{0, 1, 3, 4, bound + 16})
	home := batch[:4]

	n, io, _ := f.prefetchTurn(0, nil, batch, ladder{}, time.Second, 0)
	ha := f.ha.stats
	if ha.HedgedWindows != 1 || ha.HedgeWins != 0 {
		t.Fatalf("hedged %d windows, hedge won %d; want 1 hedged, 0 won on a tie", ha.HedgedWindows, ha.HedgeWins)
	}
	if n != 5 || io != f.pref[0].spent {
		t.Fatalf("prefetched %d pages in %v, want 5 in home 0's %v", n, io, f.pref[0].spent)
	}
	for _, pg := range home {
		if !f.shards[0].cache.Contains(pg) || f.shards[1].cache.Contains(pg) {
			t.Fatalf("page %d: not in home 0's cache alone", pg)
		}
	}
	primary, hedge := f.shards[0].disk.Stats(), f.shards[1].disk.Stats()
	if primary.PagesRead != 4 || primary.ReplicaPages != 0 || hedge.PagesRead != 5 || hedge.ReplicaPages != 4 {
		t.Fatalf("primary disk read %d (%d replica), hedge disk %d (%d replica); want 4 (0) and 5 (4)",
			primary.PagesRead, primary.ReplicaPages, hedge.PagesRead, hedge.ReplicaPages)
	}
}

// TestShardedUnreplicatedHALedgerZero is the single-session half of
// TestServeShardedUnreplicatedHALedgerZero: an unreplicated sharded engine
// with page-level faults armed (Config.Faults, no shard profile) routes its
// demand reads through a one-member chain, and the read retries those faults
// cause must leave HAStats zero.
func TestShardedUnreplicatedHALedgerZero(t *testing.T) {
	store, tree := cloudWorld(t, 3000, 17)
	for _, seed := range []int64{1, 7, 9, 23} {
		cfg := DefaultConfig()
		cfg.Faults = heavyInjector(t, seed)
		e := NewShardedEngine(store, tree, cfg, 4)
		r := rand.New(rand.NewSource(29))
		for i := 0; i < 3; i++ {
			e.RunSequence(randomWalk(r, 10, 20), prefetch.NewStraightLine(20*20*20))
		}
		if e.Stats().FaultRetries == 0 {
			t.Fatalf("seed %d: heavy profile injected no read retries; test is vacuous", seed)
		}
		if ha := e.HAStats(); ha != (HAStats{}) {
			t.Errorf("seed %d: unreplicated engine touched the HA ledger: %+v", seed, ha)
		}
		e.Close()
	}
}

// TestShardedFailoverHammer is the CI -race workout for the HA fan-outs: a
// replicated sharded engine under the heaviest shard profile, run twice —
// the two runs must agree byte-for-byte (all failover, hedging and ledger
// decisions live on the single-coordinator virtual clock), the protection
// must actually engage, and the served result sets must hash identical to a
// fault-free unreplicated run: outages are invisible in results, visible
// only in time. Without replication the same outages lose pages, and the
// hashes of the subsets served instead are pinned as constants.
func TestShardedFailoverHammer(t *testing.T) {
	store, tree := cloudWorld(t, 3000, 17)
	if err := store.Relayout(pagestore.HilbertLayout()); err != nil {
		t.Fatal(err)
	}
	defer store.Relayout(pagestore.InsertionLayout())
	seqs := []struct{ n int }{{10}, {12}, {10}}
	// Fault seed picked so the profile's outage windows actually intersect
	// this workload's virtual span on both a replicated and an unreplicated
	// fleet — the vacuity checks below keep the pin honest.
	plan, err := fault.ParseProfile("shard:flaky", 1)
	if err != nil {
		t.Fatal(err)
	}

	run := func(replicas int, hedge float64, faulted bool) ([]SequenceResult, HAStats, int64) {
		cfg := DefaultConfig()
		cfg.BatchedIO = true
		cfg.Replicas = replicas
		cfg.Hedge = hedge
		if faulted {
			cfg.Faults = fault.New(plan)
		}
		e := NewShardedEngine(store, tree, cfg, 8)
		defer e.Close()
		r := rand.New(rand.NewSource(29))
		var out []SequenceResult
		var lost int64
		for _, s := range seqs {
			seq := randomWalk(r, s.n, 20)
			res := e.RunSequence(seq, prefetch.NewStraightLine(20*20*20))
			lost += res.LostPages
			out = append(out, res)
		}
		return out, e.HAStats(), lost
	}

	ref, _, _ := run(1, 0, false)
	a, haA, lostA := run(2, 1.5, true)
	b, haB, lostB := run(2, 1.5, true)
	if !reflect.DeepEqual(a, b) || haA != haB || lostA != lostB {
		t.Fatal("replicated faulted runs diverged between identical engines")
	}
	if haA.FailedOverPages == 0 {
		t.Fatal("heaviest profile never failed over; hammer is vacuous")
	}
	if lostA != 0 {
		t.Fatalf("replicated run lost %d pages", lostA)
	}
	for i := range a {
		if a[i].ResultHash != ref[i].ResultHash {
			t.Fatalf("sequence %d: faulted replicated results differ from fault-free run", i)
		}
	}

	// Unreplicated, the same outages darken whole chains and their pages drop
	// out of the served result sets. The hashes pin what was served, per
	// sequence. (Here the lost pages hold no matches; TestCoreFingerprints'
	// flaky3 rows are where a loss changes a result set.)
	none, _, lostNone := run(1, 0, true)
	if lostNone == 0 {
		t.Fatal("unreplicated run lost nothing under shard:flaky; profile too gentle for the hammer")
	}
	for i, want := range []uint64{0x868706bddc1a8f72, 0xd12e3547fbf08312, 0xc5781587de8315d4} {
		if got := none[i].ResultHash; got != want {
			t.Errorf("sequence %d: unreplicated faulted result hash %#x, want %#x", i, got, want)
		}
	}
}
