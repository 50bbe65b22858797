package engine

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"scout/internal/pagestore"
	"scout/internal/prefetch"
	"scout/internal/workload"
)

var (
	benchServeQueries int64
	benchShardedHash  uint64
	benchPlans        *SessionPlans
)

// BenchmarkShardedRunSequence times RunSequence over the hilbert layout:
// through New on both I/O modes (engine/per-page is what `explore` runs,
// engine/batched what `explore_file` runs), and through NewShardedEngine at
// one and eight shards, unreplicated (R=1: the one-member chain — the demand
// read no end-to-end workload times on its own, since explore_sharded and
// serve_sharded both run Replicas 2) and replicated (R=2, the
// failover-capable prefetch flush). S=8/R=2/flaky is explore_sharded's
// fleet: hedged at 1.5 with shard:flaky armed, so the coordinator observes
// inline and filters the queries the filter goroutine has not reached.
// Engine and sequences are built outside the timer; ns/op is one 12-query
// sequence.
func BenchmarkShardedRunSequence(b *testing.B) {
	store, tree := cloudWorld(b, 20000, 9)
	if err := store.Relayout(pagestore.HilbertLayout()); err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	seqs := make([]workload.Sequence, 8)
	for i := range seqs {
		seqs[i] = randomWalk(rng, 12, 30)
	}
	run := func(b *testing.B, e interface {
		RunSequence(workload.Sequence, prefetch.Prefetcher) SequenceResult
	}) {
		p := prefetch.NewStraightLine(1000)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			benchShardedHash ^= e.RunSequence(seqs[i%len(seqs)], p).ResultHash
		}
	}
	for _, batched := range []bool{false, true} {
		cfg := DefaultConfig()
		cfg.BatchedIO = batched
		name := "engine/per-page"
		if batched {
			name = "engine/batched"
		}
		b.Run(name, func(b *testing.B) { run(b, New(store, tree, cfg)) })
	}
	for _, shards := range []int{1, 8} {
		for _, replicas := range []int{1, 2} {
			cfg := DefaultConfig()
			cfg.Replicas = replicas
			b.Run(fmt.Sprintf("S=%d/R=%d", shards, replicas), func(b *testing.B) {
				e := NewShardedEngine(store, tree, cfg, shards)
				defer e.Close()
				run(b, e)
			})
		}
	}
	b.Run("S=8/R=2/flaky", func(b *testing.B) {
		e := NewShardedEngine(store, tree, inlineConfig(b, 2, 1.5), 8)
		defer e.Close()
		run(b, e)
	})
}

// BenchmarkRunSequenceBatched times explore_file's binding — the flat engine
// with the batched flush and a straight-line prefetcher — over the hilbert
// layout, through a counting index: probes/window is the index probes made
// per prefetch window, the empty plan after a sequence's first query
// included. The flush probes one rung of each six-rung straight-line ladder
// (0.87 probes/window); probing every rung read six times that. ns/op is
// one 12-query sequence.
func BenchmarkRunSequenceBatched(b *testing.B) {
	store, tree := cloudWorld(b, 20000, 9)
	if err := store.Relayout(pagestore.HilbertLayout()); err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	seqs := make([]workload.Sequence, 8)
	for i := range seqs {
		seqs[i] = randomWalk(rng, 12, 30)
	}
	x := &hookIndex{Index: tree, after: passPages}
	cfg := DefaultConfig()
	cfg.BatchedIO = true
	e := New(store, x, cfg)
	p := prefetch.NewStraightLine(1000)
	b.ReportAllocs()
	b.ResetTimer()
	var queries, windows int
	for i := 0; i < b.N; i++ {
		res := e.RunSequence(seqs[i%len(seqs)], p)
		benchShardedHash ^= res.ResultHash
		queries += len(res.Queries)
		// The straight-line plan charges no prediction, so every query
		// before the last with a window spent it.
		for _, tr := range res.Queries[:len(res.Queries)-1] {
			if tr.Window > 0 {
				windows++
			}
		}
	}
	// Every query's filter step probes once; the rest are the windows'.
	b.ReportMetric(float64(int(x.calls.Load())-queries)/float64(windows), "probes/window")
}

// BenchmarkRunSequenceScout times RunSequence on explore's two bindings
// (exploreWorld): scout/rtree is SCOUT over the R-tree on frustum walks,
// scoutopt/flat SCOUT-OPT over FLAT on frustum walks with gaps. These are the
// single-session SCOUT paths, where the observe stage overlaps the
// prefetcher's Observe with the caller's commit. Engine, prefetcher and walks
// are built outside the timer; ns/op is one 12-query sequence.
func BenchmarkRunSequenceScout(b *testing.B) {
	w := newExploreWorld(b)
	for _, bd := range w.bindings() {
		b.Run(bd.name, func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				benchShardedHash ^= bd.e.RunSequence(bd.seqs[i%len(bd.seqs)], bd.p).ResultHash
			}
		})
	}
}

// walkWorkloads is n sessions of one random q-query walk each through the
// cloud, predicted by the straight-line baseline.
func walkWorkloads(rng *rand.Rand, n, q int) []SessionWorkload {
	out := make([]SessionWorkload, n)
	for i := range out {
		out[i] = SessionWorkload{
			Sequences:  []workload.Sequence{randomWalk(rng, q, 30)},
			Prefetcher: prefetch.NewStraightLine(1000),
		}
	}
	return out
}

// BenchmarkPlanSessions times the plan phase alone — PlanSessions at one
// worker over 64 sessions of one 25-query walk each, predicted by the
// straight-line baseline, on the insertion layout. allocs/op and B/op are
// what the plan keeps per step (demand set, result, observation copy, plan,
// ladder, elevator batch) plus each session's step slice; ns/op is the
// whole plan phase.
func BenchmarkPlanSessions(b *testing.B) {
	store, tree := cloudWorld(b, 20000, 9)
	workloads := walkWorkloads(rand.New(rand.NewSource(64)), 64, 25)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchPlans = PlanSessions(store, tree, workloads, DefaultConfig().Cost, 1)
	}
}

// BenchmarkServeCommit times the commit phase alone — SessionPlans.Serve
// over plans built once outside the timer, the way the mu*/rob1/load1
// experiments re-commit one plan set under many configs — on the per-page
// flush, the batched flush, private per-session caches (per-page; half of
// serve_flat's cells are private) and the sharded backend (Shards 8,
// Replicas 2) at 16, 64 and 256 sessions under the fair policy with seek
// interference; all but `private` share one cache. Those rows run on the
// insertion layout, where the index returns every demand set already in
// physical order; `sharded-hilbert` commits the same walks on the sharded
// backend after a hilbert relayout, where it does not, so routing, miss
// lists and cold pricing follow each step's planned physical order — the
// serve_sharded configuration. ns/op is one whole commit; ns/query divides
// by the queries it served.
func BenchmarkServeCommit(b *testing.B) {
	store, tree := cloudWorld(b, 20000, 9)
	base := ServeConfig{
		Engine:           DefaultConfig(),
		Policy:           FairShare,
		InterferenceSeek: 500 * time.Microsecond,
	}
	batched, private, sharded := base, base, base
	batched.Engine.BatchedIO = true
	private.PrivateCaches = true
	sharded.Shards, sharded.Replicas = 8, 2
	paths := []struct {
		name string
		cfg  ServeConfig
	}{{"per-page", base}, {"batched", batched}, {"private", private}, {"sharded", sharded}}
	commit := func(name string, plans *SessionPlans, cfg ServeConfig) {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			var queries int64
			for i := 0; i < b.N; i++ {
				queries += plans.Serve(cfg).Queries
			}
			benchServeQueries = queries
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(queries), "ns/query")
		})
	}
	for _, sessions := range []int{16, 64, 256} {
		plan := func() *SessionPlans {
			workloads := walkWorkloads(rand.New(rand.NewSource(int64(sessions))), sessions, 12)
			return PlanSessions(store, tree, workloads, DefaultConfig().Cost, 0)
		}
		plans := plan()
		for _, path := range paths {
			commit(fmt.Sprintf("%s/sessions=%d", path.name, sessions), plans, path.cfg)
		}
		if err := store.Relayout(pagestore.HilbertLayout()); err != nil {
			b.Fatal(err)
		}
		commit(fmt.Sprintf("sharded-hilbert/sessions=%d", sessions), plan(), sharded)
		if err := store.Relayout(pagestore.InsertionLayout()); err != nil {
			b.Fatal(err)
		}
	}
}
