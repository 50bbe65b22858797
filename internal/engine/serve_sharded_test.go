package engine

import (
	"reflect"
	"testing"
	"time"

	"scout/internal/prefetch"
	"scout/internal/workload"
)

// shardServeWorkloads starts each session's walk ON a shard-range boundary
// of the 4-shard split over the 500-page line world (physical pages 125/
// 250/375 = segments 1000/2000/3000): the first, cold query straddles two
// shards, so its remote misses exercise the routing charge — later
// straddling queries tend to hit pages the prefetcher already shipped,
// which routes nothing (remote hits are free).
func shardServeWorkloads(n int) []SessionWorkload {
	out := make([]SessionWorkload, n)
	for i := 0; i < n; i++ {
		boundary := float64(1000 * (1 + i%3))
		offset := boundary - 22 + float64(i/3)*2
		out[i] = SessionWorkload{
			Sequences:  []workload.Sequence{offsetWalk(8, 10, 9, 1.5, offset)},
			Prefetcher: prefetch.NewStraightLine(1000),
		}
	}
	return out
}

// TestServeShardedSingleShardBitExact pins the serve-side S=1 ledger shape:
// Shards 1 and Shards 0 with BatchedIO build the same one-range fleet, so
// the commits are byte-identical — same residuals, traces, stalls, breaker
// trips, cache and disk stats, nothing routed — including under heavy fault
// injection with breaker, degrading admission and open-loop arrivals.
func TestServeShardedSingleShardBitExact(t *testing.T) {
	store, tree := lineWorld(t, 4000)
	base := ServeConfig{
		Engine:           DefaultConfig(),
		Policy:           FairShare,
		InterferenceSeek: time.Millisecond,
		CacheShards:      8,
	}
	base.Engine.BatchedIO = true

	robust := base
	robust.Faults = heavyInjector(t, 7)
	robust.Breaker = DefaultBreakerConfig()
	robust.Admission = AdmissionConfig{Enabled: true, MaxConcurrent: 4, Degrade: true}
	robust.SLO = 40 * time.Millisecond
	robust.Arrivals = ArrivalConfig{Enabled: true, Rate: 50, Seed: 11}

	for name, cfg := range map[string]ServeConfig{"plain": base, "robust": robust} {
		want := PlanSessions(store, tree, serveWorkloads(6, 7), cfg.Engine.Cost, 0).Serve(cfg)

		sharded := cfg
		sharded.Shards = 1
		got := PlanSessions(store, tree, serveWorkloads(6, 7), sharded.Engine.Cost, 0).Serve(sharded)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: S=1 sharded serve differs from unsharded batched serve\n got: %+v\nwant: %+v", name, got, want)
		}
	}
}

// TestServeShardedCrossWorkerByteIdentity: a multi-shard serve must be
// byte-identical for any plan-phase worker count and across repeated runs;
// under -race this also checks the plan phase's goroutines against the
// commit loop that then walks the shard fleet. The workload
// must actually exercise routing (some query fans out) for the check to
// mean anything.
func TestServeShardedCrossWorkerByteIdentity(t *testing.T) {
	store, tree := lineWorld(t, 4000)
	cfg := ServeConfig{
		Engine:           DefaultConfig(),
		Policy:           FairShare,
		InterferenceSeek: time.Millisecond,
		Shards:           4,
	}
	want := PlanSessions(store, tree, shardServeWorkloads(8), cfg.Engine.Cost, 1).Serve(cfg)
	if want.RoutedPages == 0 {
		t.Fatal("workload never routed a page across shards; test is vacuous")
	}
	fanned := false
	for _, s := range want.Sessions {
		for _, seq := range s.Sequences {
			for _, tr := range seq.Queries {
				if tr.Fanout > 1 {
					fanned = true
				}
			}
		}
	}
	if !fanned {
		t.Fatal("no query fanned out across shards")
	}
	for _, workers := range []int{4, 16} {
		if got := PlanSessions(store, tree, shardServeWorkloads(8), cfg.Engine.Cost, workers).Serve(cfg); !reflect.DeepEqual(got, want) {
			t.Errorf("workers=%d: sharded serve output diverged", workers)
		}
	}
	if got := PlanSessions(store, tree, shardServeWorkloads(8), cfg.Engine.Cost, 1).Serve(cfg); !reflect.DeepEqual(got, want) {
		t.Error("repeated sharded serve diverged")
	}
}

// TestServeShardedReplicationInert: with every chain healthy, serve-path
// replication must be invisible — a Replicas=2 serve (which runs the full
// HA demand fan-out: route, failover ledger, chain walk) is byte-identical
// to the Replicas=0 plain serve, ledgers included. Replication may only
// cost something when a fault makes it earn something.
func TestServeShardedReplicationInert(t *testing.T) {
	store, tree := lineWorld(t, 4000)
	cfg := ServeConfig{
		Engine:           DefaultConfig(),
		Policy:           FairShare,
		InterferenceSeek: time.Millisecond,
		Shards:           4,
	}
	cfg.Engine.BatchedIO = true
	want := PlanSessions(store, tree, shardServeWorkloads(8), cfg.Engine.Cost, 0).Serve(cfg)
	if want.RoutedPages == 0 {
		t.Fatal("workload never routed a page; test is vacuous")
	}

	repl := cfg
	repl.Replicas = 2
	got := PlanSessions(store, tree, shardServeWorkloads(8), repl.Engine.Cost, 0).Serve(repl)
	if got.HA != (HAStats{}) {
		t.Fatalf("healthy replicated serve touched the HA ledger: %+v", got.HA)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("healthy Replicas=2 serve differs from unreplicated serve")
	}
}

// TestServeShardedUnreplicatedHALedgerZero: every sharded serve reads its
// demand misses through the failover router, but with Replicas <= 1 and no
// shard-fault profile there is nothing to fail over to — page-level fault
// evidence (read retries under the heavy profile) must not trip shard health
// ledgers, and the whole HA ledger stays zero.
func TestServeShardedUnreplicatedHALedgerZero(t *testing.T) {
	store, tree := lineWorld(t, 4000)
	for _, seed := range []int64{1, 7, 9, 23} {
		cfg := ServeConfig{
			Engine:           DefaultConfig(),
			Policy:           FairShare,
			InterferenceSeek: time.Millisecond,
			Shards:           4,
			Faults:           heavyInjector(t, seed),
		}
		res := PlanSessions(store, tree, shardServeWorkloads(8), cfg.Engine.Cost, 0).Serve(cfg)
		if res.Disk.FaultRetries == 0 {
			t.Fatalf("seed %d: heavy profile injected no read retries; test is vacuous", seed)
		}
		if res.HA != (HAStats{}) {
			t.Errorf("seed %d: unreplicated serve touched the HA ledger: %+v", seed, res.HA)
		}
	}
}

// TestServeShardedRejectsPrivateCaches: per-session private caches cannot
// split across shards; the config is a programming error and must
// fail loudly, not quietly misaccount.
func TestServeShardedRejectsPrivateCaches(t *testing.T) {
	store, tree := lineWorld(t, 500)
	defer func() {
		if recover() == nil {
			t.Fatal("Shards>0 + PrivateCaches did not panic")
		}
	}()
	cfg := ServeConfig{Engine: DefaultConfig(), PrivateCaches: true, Shards: 2}
	PlanSessions(store, tree, serveWorkloads(2, 7), cfg.Engine.Cost, 0).Serve(cfg)
}
