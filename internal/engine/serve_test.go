package engine

import (
	"reflect"
	"testing"
	"time"

	"scout/internal/geom"
	"scout/internal/prefetch"
	"scout/internal/workload"
)

// offsetWalk is walkSequence with the walk shifted along the chain, so
// different sessions navigate different parts of the world.
func offsetWalk(n int, side, step, ratio, offset float64) workload.Sequence {
	seq := workload.Sequence{Params: workload.Params{
		Queries: n, Volume: side * side * side, WindowRatio: ratio,
	}}
	for i := 0; i < n; i++ {
		c := geom.V(20+offset+float64(i)*step, 0, 0)
		seq.Queries = append(seq.Queries, workload.Query{
			Region: geom.CubeAt(c, side*side*side),
			Center: c,
		})
	}
	return seq
}

// serveWorkloads builds n single-sequence sessions over the line world,
// varying each session's walk so their traffic differs. seed shifts the
// walks so determinism can be asserted across several distinct inputs.
func serveWorkloads(n int, seed int64) []SessionWorkload {
	out := make([]SessionWorkload, n)
	for i := 0; i < n; i++ {
		// Different start offsets and window ratios per session and seed.
		ratio := 1.0 + 0.5*float64((i+int(seed))%3)
		offset := float64(i*40) + float64(seed%5)
		out[i] = SessionWorkload{
			Sequences:  []workload.Sequence{offsetWalk(8, 10, 9, ratio, offset)},
			Prefetcher: prefetch.NewStraightLine(1000),
		}
	}
	return out
}

// TestServeIsolatedMatchesSingleSession is the driver-vs-driver identity:
// with the interference penalty disabled, private caches and the
// unarbitrated policy, the commit loop over N sessions and N sequential
// RunSequence calls drive the same one-range fleet turn for turn, so their
// results are byte-identical — for several seeds and session counts. The one
// field the commit loop leaves alone is ResultHash: the result sets are the
// plan phase's, and it does not hash them.
func TestServeIsolatedMatchesSingleSession(t *testing.T) {
	store, tree := lineWorld(t, 4000)
	for _, seed := range []int64{7, 11, 23} {
		for _, n := range []int{1, 2, 4, 8} {
			workloads := serveWorkloads(n, seed)
			cfg := ServeConfig{
				Engine:        DefaultConfig(),
				Policy:        Unarbitrated,
				PrivateCaches: true,
			}
			res := PlanSessions(store, tree, workloads, cfg.Engine.Cost, 0).Serve(cfg)
			if len(res.Sessions) != n {
				t.Fatalf("seed %d n %d: %d session results", seed, n, len(res.Sessions))
			}
			for i := 0; i < n; i++ {
				e := New(store, tree, DefaultConfig())
				want := e.RunSequence(workloads[i].Sequences[0], prefetch.NewStraightLine(1000))
				want.ResultHash = 0
				got := res.Sessions[i].Sequences
				if len(got) != 1 {
					t.Fatalf("session %d: %d sequence results", i, len(got))
				}
				if !reflect.DeepEqual(got[0], want) {
					t.Errorf("seed %d n %d session %d: serve result differs from single-session run:\nserve:  %+v\nsingle: %+v",
						seed, n, i, got[0], want)
				}
			}
		}
	}
}

// TestServeDeterministicAcrossWorkers pins the shared-state determinism
// contract: the full shared-cache + arbiter + interference configuration
// must produce byte-identical output for any plan-phase worker count.
func TestServeDeterministicAcrossWorkers(t *testing.T) {
	store, tree := lineWorld(t, 4000)
	for _, policy := range Policies() {
		cfg := ServeConfig{
			Engine:           DefaultConfig(),
			Policy:           policy,
			InterferenceSeek: time.Millisecond,
			CacheShards:      8,
		}
		a := PlanSessions(store, tree, serveWorkloads(6, 7), cfg.Engine.Cost, 1).Serve(cfg)
		b := PlanSessions(store, tree, serveWorkloads(6, 7), cfg.Engine.Cost, 8).Serve(cfg)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("policy %v: serve output differs between 1 and 8 workers", policy)
		}
	}
}

// TestServeInterferencePenalty: enabling the seek-interference penalty must
// slow responses down, and only when sessions actually contend.
func TestServeInterferencePenalty(t *testing.T) {
	store, tree := lineWorld(t, 4000)
	cfg := ServeConfig{Engine: DefaultConfig(), Policy: FairShare}
	quiet := PlanSessions(store, tree, serveWorkloads(6, 7), cfg.Engine.Cost, 0).Serve(cfg)
	cfg.InterferenceSeek = 2 * time.Millisecond
	noisy := PlanSessions(store, tree, serveWorkloads(6, 7), cfg.Engine.Cost, 0).Serve(cfg)
	if noisy.Interference == 0 {
		t.Fatal("no interference charged despite overlapping sessions")
	}
	if quiet.Interference != 0 {
		t.Errorf("interference charged with a zero penalty: %v", quiet.Interference)
	}
	if res := residual(noisy); res <= residual(quiet) {
		t.Errorf("interference did not slow responses: %v vs %v", res, residual(quiet))
	}
	// A single session never contends, so the penalty must not bite.
	solo := PlanSessions(store, tree, serveWorkloads(1, 7), cfg.Engine.Cost, 0).Serve(cfg)
	if solo.Interference != 0 {
		t.Errorf("single session paid %v interference", solo.Interference)
	}
}

// TestServeArbiterThrottles: fair-share must prefetch no more than the
// unarbitrated policy under contention.
func TestServeArbiterThrottles(t *testing.T) {
	store, tree := lineWorld(t, 4000)
	cfg := ServeConfig{Engine: DefaultConfig(), Policy: Unarbitrated}
	free := PlanSessions(store, tree, serveWorkloads(8, 7), cfg.Engine.Cost, 0).Serve(cfg)
	cfg.Policy = FairShare
	fair := PlanSessions(store, tree, serveWorkloads(8, 7), cfg.Engine.Cost, 0).Serve(cfg)

	sum := func(r ServeResult) (prefetched int64) {
		for _, s := range r.Sessions {
			for _, sq := range s.Sequences {
				for _, q := range sq.Queries {
					prefetched += int64(q.Prefetched)
				}
			}
		}
		return
	}
	freePages, fairPages := sum(free), sum(fair)
	if fairPages > freePages {
		t.Errorf("fair-share prefetched more pages (%d) than unarbitrated (%d)", fairPages, freePages)
	}
}

// TestServeSharedCacheStats: the shared cache's counters must account for
// the sessions' traffic.
func TestServeSharedCacheStats(t *testing.T) {
	store, tree := lineWorld(t, 4000)
	cfg := ServeConfig{Engine: DefaultConfig(), Policy: FairShare, CacheShards: 4}
	res := PlanSessions(store, tree, serveWorkloads(4, 7), cfg.Engine.Cost, 0).Serve(cfg)
	if res.Cache.Hits+res.Cache.Misses == 0 {
		t.Error("no cache traffic recorded")
	}
	if res.Queries != 4*8 {
		t.Errorf("queries = %d, want 32", res.Queries)
	}
	if res.Makespan <= 0 {
		t.Error("no makespan")
	}
	if res.Throughput() <= 0 {
		t.Error("no throughput")
	}
	if hr := res.HitRate(); hr < 0 || hr > 1 {
		t.Errorf("hit rate %v out of range", hr)
	}
}

func TestPercentileNearestRank(t *testing.T) {
	samples := []time.Duration{5, 1, 4, 2, 3} // unsorted on purpose
	for _, tc := range []struct {
		p    float64
		want time.Duration
	}{
		{50, 3}, {95, 5}, {100, 5}, {20, 1}, {1, 1},
	} {
		if got := Percentile(samples, tc.p); got != tc.want {
			t.Errorf("p%v = %v, want %v", tc.p, got, tc.want)
		}
	}
	if got := Percentile(nil, 50); got != 0 {
		t.Errorf("empty percentile = %v", got)
	}
	// The input must not be reordered.
	if samples[0] != 5 {
		t.Error("Percentile mutated its input")
	}
}
