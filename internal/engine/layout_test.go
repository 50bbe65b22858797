package engine

import (
	"math/rand"
	"reflect"
	"testing"
	"time"

	"scout/internal/geom"
	"scout/internal/pagestore"
	"scout/internal/prefetch"
	"scout/internal/rtree"
	"scout/internal/workload"
)

// cloudWorld is a store of random short segments filling a cube, so layout
// permutations actually move pages around (lineWorld is 1-dimensional and
// nearly layout-invariant).
func cloudWorld(t testing.TB, n int, seed int64) (*pagestore.Store, *rtree.Tree) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	objs := make([]pagestore.Object, n)
	for i := range objs {
		a := geom.V(rng.Float64()*200, rng.Float64()*200, rng.Float64()*200)
		b := a.Add(geom.V(rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()))
		objs[i] = pagestore.Object{Seg: geom.Seg(a, b), Radius: 0.5}
	}
	store := pagestore.NewStore(objs)
	tree, err := rtree.BulkLoad(store, rtree.Config{ObjectsPerPage: 8})
	if err != nil {
		t.Fatal(err)
	}
	return store, tree
}

// randomWalk is a drifting random walk of box queries through the cloud.
func randomWalk(rng *rand.Rand, n int, side float64) workload.Sequence {
	seq := workload.Sequence{Params: workload.Params{
		Queries: n, Volume: side * side * side, WindowRatio: 1.2,
	}}
	c := geom.V(40+rng.Float64()*120, 40+rng.Float64()*120, 40+rng.Float64()*120)
	dir := geom.V(rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()).Normalize()
	for i := 0; i < n; i++ {
		seq.Queries = append(seq.Queries, workload.Query{
			Region: geom.CubeAt(c, side*side*side),
			Center: c,
		})
		c = c.Add(dir.Scale(side * 0.7))
	}
	return seq
}

// TestRelayoutPreservesResultSets is the layout-transparency property: a
// physical relayout may change costs, but never what a query returns.
// Randomized workloads must see identical result sets — and identical
// per-query result page counts through a full engine run — under every
// layout, on both I/O paths.
func TestRelayoutPreservesResultSets(t *testing.T) {
	store, tree := cloudWorld(t, 4000, 17)
	rng := rand.New(rand.NewSource(99))
	seqs := []workload.Sequence{randomWalk(rng, 12, 18), randomWalk(rng, 12, 25)}

	// Ground truth under the insertion layout: raw result sets per query,
	// straight off the index, plus full engine traces.
	type key struct{ s, q int }
	truth := map[key][]pagestore.ObjectID{}
	for si, seq := range seqs {
		for qi, q := range seq.Queries {
			pages := tree.QueryPages(q.Region, nil)
			truth[key{si, qi}] = store.AppendMatches(nil, q.Region, pages)
		}
	}

	for _, name := range pagestore.LayoutNames() {
		l, err := pagestore.ParseLayout(name)
		if err != nil {
			t.Fatal(err)
		}
		if err := store.Relayout(l); err != nil {
			t.Fatal(err)
		}
		for si, seq := range seqs {
			for qi, q := range seq.Queries {
				pages := tree.QueryPages(q.Region, nil)
				got := store.AppendMatches(nil, q.Region, pages)
				if !reflect.DeepEqual(got, truth[key{si, qi}]) {
					t.Fatalf("layout %s: query %d/%d result set changed", name, si, qi)
				}
			}
		}
		for _, batched := range []bool{false, true} {
			cfg := DefaultConfig()
			cfg.BatchedIO = batched
			e := New(store, tree, cfg)
			for si, seq := range seqs {
				res := e.RunSequence(seq, prefetch.NewStraightLine(18*18*18))
				for qi, tr := range res.Queries {
					if tr.ResultPages != len(tree.QueryPages(seq.Queries[qi].Region, nil)) {
						t.Fatalf("layout %s batched=%v: seq %d query %d result pages drifted",
							name, batched, si, qi)
					}
				}
			}
		}
	}
	if err := store.Relayout(pagestore.InsertionLayout()); err != nil {
		t.Fatal(err)
	}
}

// TestBatchedEngineNeverSlowerIO: on the same walks, the batched elevator
// path must not read slower (simulated) than the per-page path — batching
// exists to cut seeks, and the virtual clock makes the comparison exact.
func TestBatchedEngineNeverSlowerIO(t *testing.T) {
	store, tree := cloudWorld(t, 4000, 23)
	rng := rand.New(rand.NewSource(5))
	seq := randomWalk(rng, 15, 22)

	run := func(batched bool) pagestore.DiskStats {
		cfg := DefaultConfig()
		cfg.BatchedIO = batched
		e := New(store, tree, cfg)
		e.RunSequence(seq, prefetch.NewStraightLine(22*22*22))
		return e.Disk().Stats()
	}
	page := run(false)
	batch := run(true)
	if batch.Seeks > page.Seeks {
		t.Errorf("batched path paid more seeks: %d > %d", batch.Seeks, page.Seeks)
	}
	if batch.SimulatedIO > page.SimulatedIO {
		t.Errorf("batched path slower: %v > %v", batch.SimulatedIO, page.SimulatedIO)
	}
}

// TestServeBatchedIsolatedMatchesSingleSession extends the driver-vs-driver
// identity (TestServeIsolatedMatchesSingleSession) to the batched path: the
// commit loop's plan-time elevator batch and RunSequence's per-window one
// must sweep identically.
func TestServeBatchedIsolatedMatchesSingleSession(t *testing.T) {
	store, tree := lineWorld(t, 4000)
	engCfg := DefaultConfig()
	engCfg.BatchedIO = true
	for _, n := range []int{1, 4} {
		workloads := serveWorkloads(n, 7)
		cfg := ServeConfig{
			Engine:        engCfg,
			Policy:        Unarbitrated,
			PrivateCaches: true,
		}
		res := PlanSessions(store, tree, workloads, cfg.Engine.Cost, 0).Serve(cfg)
		for i := 0; i < n; i++ {
			e := New(store, tree, engCfg)
			want := e.RunSequence(workloads[i].Sequences[0], prefetch.NewStraightLine(1000))
			want.ResultHash = 0 // the commit loop does not hash the plan phase's result sets
			if !reflect.DeepEqual(res.Sessions[i].Sequences[0], want) {
				t.Errorf("n %d session %d: batched serve differs from single-session batched run", n, i)
			}
		}
	}
}

// TestServeBatched16Sessions drives the full shared configuration — shared
// sharded cache, arbiter, interference, batched elevator reads — with 16
// concurrent sessions and pins determinism across plan-phase worker
// counts. Under `go test -race` this is the batched-path concurrency
// hammer the CI race job runs.
func TestServeBatched16Sessions(t *testing.T) {
	store, tree := lineWorld(t, 4000)
	engCfg := DefaultConfig()
	engCfg.BatchedIO = true
	cfg := ServeConfig{
		Engine:           engCfg,
		Policy:           FairShare,
		InterferenceSeek: 500 * time.Microsecond,
		CacheShards:      8,
	}
	a := PlanSessions(store, tree, serveWorkloads(16, 3), cfg.Engine.Cost, 1).Serve(cfg)
	b := PlanSessions(store, tree, serveWorkloads(16, 3), cfg.Engine.Cost, 16).Serve(cfg)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("16-session batched serve differs between 1 and 16 workers")
	}
	if a.Disk.PagesRead == 0 || len(a.Sessions) != 16 {
		t.Fatalf("degenerate serve: %d sessions, %d pages", len(a.Sessions), a.Disk.PagesRead)
	}
}
