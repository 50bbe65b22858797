package engine

import (
	"math/rand"
	"testing"
	"time"

	"scout/internal/fault"
	"scout/internal/pagestore"
	"scout/internal/prefetch"
)

// TestShardedTurnAllocations is the gate that keeps a shard turn on the
// coordinator: with one goroutine per shard every ShardSet.Do mailed S
// heap-allocated closures past a WaitGroup, four to six times a query (41
// allocations per served query, 64 per RunSequence query at S=8). What is
// left is per commit or per sequence — result rows, trace slices, the
// observation's page copy — so the per-query ceilings sit a little above
// today's readings and an order of magnitude below a hand-off's.
func TestShardedTurnAllocations(t *testing.T) {
	store, tree := cloudWorld(t, 20000, 9)
	if err := store.Relayout(pagestore.HilbertLayout()); err != nil {
		t.Fatal(err)
	}
	defer store.Relayout(pagestore.InsertionLayout())
	plan, err := fault.ParseProfile("shard:flaky", 1)
	if err != nil {
		t.Fatal(err)
	}

	t.Run("serve", func(t *testing.T) {
		workloads := walkWorkloads(rand.New(rand.NewSource(16)), 16, 25)
		plans := PlanSessions(store, tree, workloads, DefaultConfig().Cost, 1)
		cfg := ServeConfig{
			Engine:           DefaultConfig(),
			Policy:           FairShare,
			InterferenceSeek: 500 * time.Microsecond,
			Shards:           8,
			Replicas:         2,
			Breaker:          DefaultBreakerConfig(),
			Admission:        AdmissionConfig{Enabled: true, MaxConcurrent: 8, Degrade: true},
			Faults:           fault.New(plan),
		}
		res := plans.Serve(cfg)
		if res.HA.FailedOverPages == 0 {
			t.Fatal("shard:flaky never failed over; the commit skips the HA turn")
		}
		perQuery := testing.AllocsPerRun(5, func() { plans.Serve(cfg) }) / float64(res.Queries)
		t.Logf("%.2f allocs/query over %d queries", perQuery, res.Queries)
		if perQuery > 4 {
			t.Errorf("sharded-HA commit: %.1f allocs/query, want <= 4", perQuery)
		}
	})

	// The plan phase: PlanSessions at one worker over BenchmarkPlanSessions'
	// 64 sessions of one 25-query walk, here on the hilbert layout, where
	// every step also keeps its demand set's physical order. A step keeps a
	// slice or so per part (demand set, order, result, observation copy,
	// plan, ladder, elevator batch), never one per plan request: it read
	// 14.5 allocs/step while a step kept its ladder as one slice per
	// request, and reads 5.04 with one page list.
	t.Run("plan_sessions", func(t *testing.T) {
		workloads := walkWorkloads(rand.New(rand.NewSource(64)), 64, 25)
		perStep := testing.AllocsPerRun(5, func() { PlanSessions(store, tree, workloads, DefaultConfig().Cost, 1) }) / (64 * 25)
		t.Logf("%.2f allocs/step", perStep)
		if perStep > 5.5 {
			t.Errorf("plan phase: %.2f allocs/step, want <= 5.5", perStep)
		}
	})

	// The flat commit (Shards 0) is the one-shard fleet, built per Serve call:
	// fleet, shard, partition, router and failover scratch are per-commit
	// allocations on top of what the commit loop always made (result rows,
	// response samples, per-session heads and ledgers). 96 sessions × 25
	// queries read 0.630 (per-page), 0.632 (batched) and 0.798 (private)
	// allocs/query with the flat disk/arbiter/cache triple this replaced;
	// bench/'s serve_flat bounds allocs_per_query at 6 %, so the ceilings
	// leave a fleet about twenty allocations a commit, not one per turn.
	flat := ServeConfig{Engine: DefaultConfig(), Policy: FairShare, InterferenceSeek: 500 * time.Microsecond}
	batched, private := flat, flat
	batched.Engine.BatchedIO = true
	private.PrivateCaches = true
	plans := PlanSessions(store, tree, walkWorkloads(rand.New(rand.NewSource(96)), 96, 25), DefaultConfig().Cost, 1)
	for _, row := range []struct {
		name    string
		cfg     ServeConfig
		ceiling float64
	}{{"per-page", flat, 0.65}, {"batched", batched, 0.65}, {"private", private, 0.82}} {
		t.Run("flat/"+row.name, func(t *testing.T) {
			res := plans.Serve(row.cfg)
			perQuery := testing.AllocsPerRun(5, func() { plans.Serve(row.cfg) }) / float64(res.Queries)
			t.Logf("%.3f allocs/query over %d queries", perQuery, res.Queries)
			if perQuery > row.ceiling {
				t.Errorf("flat %s commit: %.3f allocs/query, want <= %.2f", row.name, perQuery, row.ceiling)
			}
		})
	}

	// explore_file's binding: the flat engine with the batched flush and a
	// straight-line prefetcher: 2.24 allocs/query, 0.96 of them the
	// prefetcher's plans (one request slice each), the rest the results and
	// the observations' page copies. The flush reuses its page buffers
	// across windows, so one allocation per window would cross the ceiling.
	// Each result is sized by the engine's last result length, kept across
	// sequences; this walk leaves the cloud, so its first query starts from
	// an empty hint and grows by append (about 0.3 allocs/query of it).
	t.Run("run_sequence/flat-batched", func(t *testing.T) {
		cfg := DefaultConfig()
		cfg.BatchedIO = true
		e := New(store, tree, cfg)
		seq := randomWalk(rand.New(rand.NewSource(5)), 25, 30)
		p := prefetch.NewStraightLine(1000)
		e.RunSequence(seq, p)
		perQuery := testing.AllocsPerRun(20, func() { e.RunSequence(seq, p) }) / float64(len(seq.Queries))
		t.Logf("%.2f allocs/query", perQuery)
		if perQuery > 2.5 {
			t.Errorf("flat batched RunSequence: %.2f allocs/query, want <= 2.5", perQuery)
		}
	})

	// explore's SCOUT binding: the flat engine with the per-page flush, SCOUT
	// over the R-tree on frustum walks. Each rung of a plan's ladder reaches
	// the index by pointer into the plan; converting the box to a
	// geom.Region by value at the call cost a heap allocation per probed
	// rung and read 8.67 allocs/query here (5.42 by pointer). It reads 4.75
	// since a sequence's first result is sized by the engine's last result
	// length instead of growing from empty (5.42 with a hint of 0 there).
	t.Run("run_sequence/scout-per-page", func(t *testing.T) {
		b := newExploreWorld(t).bindings()[0]
		b.e.RunSequence(b.seqs[0], b.p)
		perQuery := testing.AllocsPerRun(20, func() { b.e.RunSequence(b.seqs[0], b.p) }) / float64(len(b.seqs[0].Queries))
		t.Logf("%.2f allocs/query", perQuery)
		if perQuery > 5 {
			t.Errorf("per-page SCOUT RunSequence: %.2f allocs/query, want <= 5", perQuery)
		}
	})

	// explore_sharded's fleet: hedged S=8/R=2 with shard faults armed, so the
	// coordinator observes inline and filters the queries the filter
	// goroutine has not reached, into the same slots: 2.20 allocs/query,
	// whichever goroutine filters, on the walk above.
	t.Run("run_sequence", func(t *testing.T) {
		cfg := DefaultConfig()
		cfg.Replicas = 2
		cfg.Hedge = 1.5
		cfg.Faults = fault.New(plan)
		e := NewShardedEngine(store, tree, cfg, 8)
		defer e.Close()
		seq := randomWalk(rand.New(rand.NewSource(5)), 25, 30)
		p := prefetch.NewStraightLine(1000)
		e.RunSequence(seq, p)
		if e.HAStats().HedgedWindows == 0 {
			t.Fatal("no window hedged; the sequence skips planHedge")
		}
		perQuery := testing.AllocsPerRun(5, func() { e.RunSequence(seq, p) }) / float64(len(seq.Queries))
		t.Logf("%.2f allocs/query", perQuery)
		if perQuery > 2.5 {
			t.Errorf("hedged S=8/R=2 RunSequence: %.2f allocs/query, want <= 2.5", perQuery)
		}
	})
}
