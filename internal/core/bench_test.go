package core

import (
	"testing"

	"scout/internal/dataset"
	"scout/internal/flatindex"
	"scout/internal/pagestore"
	"scout/internal/prefetch"
	"scout/internal/rtree"
	"scout/internal/sgraph"
	"scout/internal/workload"
)

// benchSetup builds a small neuro world and one sequence of observations.
func benchSetup(b *testing.B) (*pagestore.Store, *flatindex.Index, []prefetch.Observation) {
	b.Helper()
	return benchWorld(b, dataset.SmallNeuroConfig())
}

// benchWorld builds a neuro world of the given configuration and one
// 25-query sequence of observations over it.
func benchWorld(b *testing.B, neuro dataset.NeuroConfig) (*pagestore.Store, *flatindex.Index, []prefetch.Observation) {
	b.Helper()
	ds := dataset.GenerateNeuro(neuro)
	store := pagestore.NewStore(ds.Objects)
	cfg := rtree.Config{}
	tree, err := rtree.BulkLoad(store, cfg)
	if err != nil {
		b.Fatal(err)
	}
	flat, err := flatindex.Build(store, cfg, 0)
	if err != nil {
		b.Fatal(err)
	}
	seqs, err := workload.GenerateMany(ds, workload.Params{
		Queries: 25, Volume: 80_000, WindowRatio: 1,
	}, 1, 7)
	if err != nil {
		b.Fatal(err)
	}
	var obs []prefetch.Observation
	for qi, q := range seqs[0].Queries {
		obs = append(obs, prefetch.Observation{
			Seq:    qi,
			Region: q.Region,
			Center: q.Center,
			Result: tree.QueryObjects(q.Region, nil),
			Pages:  tree.QueryPages(q.Region, nil),
		})
	}
	return store, flat, obs
}

// BenchmarkScoutObserve measures one full SCOUT step: graph build, pruning,
// prediction and plan construction, amortized over a 25-query sequence.
func BenchmarkScoutObserve(b *testing.B) {
	store, _, obs := benchSetup(b)
	s := New(store, nil, DefaultConfig())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Reset()
		for _, o := range obs {
			s.Observe(o)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(obs)), "ns/query")
}

// BenchmarkGraphBuildNeuro times the graph build alone on real results:
// Reset plus AddObject for every object of benchSetup's 25 neuron query
// results at the default resolution, reported in ns/object. The synthetic
// BenchmarkGraphReuse (sgraph) hashes short random segments into a sparse
// box; neuron results are denser and their objects cross more cells, so
// this row is the per-object cost SCOUT's observe stage actually pays.
func BenchmarkGraphBuildNeuro(b *testing.B) {
	store, _, obs := benchSetup(b)
	res := DefaultConfig().Resolution
	g := sgraph.New(store, obs[0].Region.Bounds(), res)
	objects := 0
	for _, o := range obs {
		objects += len(o.Result)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, o := range obs {
			g.Reset(o.Region.Bounds(), res)
			for _, id := range o.Result {
				g.AddObject(id)
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*objects), "ns/object")
}

// BenchmarkScoutColdSession measures what planning one serving session pays:
// a new prefetcher and its first 25-query walk, on the main experiments'
// 1M-object store. B/op is everything the prefetcher allocates on the way —
// its arenas grown to the walk's results — and must not depend on the
// store's size (TestPrefetcherStateScalesWithResult is the gate; with
// store-sized arrays these rows read 12 and 16 MB/op higher).
func BenchmarkScoutColdSession(b *testing.B) {
	store, flat, obs := benchWorld(b, dataset.DefaultNeuroConfig())
	for _, kind := range []struct {
		name  string
		fresh func() prefetch.Prefetcher
	}{
		{"scout", func() prefetch.Prefetcher { return New(store, nil, DefaultConfig()) }},
		{"scout-opt", func() prefetch.Prefetcher { return NewOpt(flat, nil, DefaultConfig()) }},
	} {
		b.Run(kind.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				s := kind.fresh()
				for _, o := range obs {
					s.Observe(o)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(obs)), "ns/query")
		})
	}
}

// BenchmarkScoutOptObserve measures SCOUT-OPT's step including sparse graph
// construction.
func BenchmarkScoutOptObserve(b *testing.B) {
	_, flat, obs := benchSetup(b)
	s := NewOpt(flat, nil, DefaultConfig())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Reset()
		for _, o := range obs {
			s.Observe(o)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(obs)), "ns/query")
}

// overlapSetup builds observations for a heavily overlapping guided walk
// (75% step overlap, no jitter): the workload shape where consecutive query
// results share most of their objects and the incremental graph lifecycle
// replaces full rebuilds with delta advances.
func overlapSetup(b *testing.B) (*pagestore.Store, []prefetch.Observation) {
	b.Helper()
	ds := dataset.GenerateNeuro(dataset.SmallNeuroConfig())
	store := pagestore.NewStore(ds.Objects)
	tree, err := rtree.BulkLoad(store, rtree.Config{})
	if err != nil {
		b.Fatal(err)
	}
	seqs, err := workload.GenerateMany(ds, workload.Params{
		Queries: 25, Volume: 80_000, WindowRatio: 1, Overlap: 0.75, Jitter: -1,
	}, 1, 7)
	if err != nil {
		b.Fatal(err)
	}
	var obs []prefetch.Observation
	for qi, q := range seqs[0].Queries {
		obs = append(obs, prefetch.Observation{
			Seq:    qi,
			Region: q.Region,
			Center: q.Center,
			Result: tree.QueryObjects(q.Region, nil),
			Pages:  tree.QueryPages(q.Region, nil),
		})
	}
	return store, obs
}

// BenchmarkScoutObserveOverlap measures the incremental lifecycle's home
// turf: consecutive results overlap ~75%, so steady-state queries advance
// the graph instead of rebuilding it. Compare against the same benchmark
// with DisableIncremental (BenchmarkScoutObserveOverlapFull).
func BenchmarkScoutObserveOverlap(b *testing.B) {
	store, obs := overlapSetup(b)
	s := New(store, nil, DefaultConfig())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Reset()
		for _, o := range obs {
			s.Observe(o)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(obs)), "ns/query")
}

// BenchmarkScoutObserveOverlapFull is BenchmarkScoutObserveOverlap with the
// incremental lifecycle disabled: every query rebuilds from scratch.
func BenchmarkScoutObserveOverlapFull(b *testing.B) {
	store, obs := overlapSetup(b)
	cfg := DefaultConfig()
	cfg.DisableIncremental = true
	s := New(store, nil, cfg)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Reset()
		for _, o := range obs {
			s.Observe(o)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(obs)), "ns/query")
}
