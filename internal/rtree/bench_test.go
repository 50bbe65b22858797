package rtree

import (
	"testing"

	"scout/internal/dataset"
	"scout/internal/geom"
	"scout/internal/pagestore"
	"scout/internal/prefetch"
	"scout/internal/workload"
)

// bulkLoadStore is BenchmarkBulkLoad's 1M-object neuro store, generated by
// the first run that needs it.
var bulkLoadStore *pagestore.Store

// BenchmarkBulkLoad times BulkLoad's three phases on the main experiments'
// 1M-object neuro store, each from the state BulkLoad hands it: STROrder over
// the store in creation order, Paginate from creation order into the STR
// order, and Build over the paginated store. Paginating into the identity
// order, untimed, puts the objects back in creation order between rows and
// iterations.
func BenchmarkBulkLoad(b *testing.B) {
	if bulkLoadStore == nil {
		bulkLoadStore = pagestore.NewStore(dataset.GenerateNeuro(dataset.DefaultNeuroConfig()).Objects)
	}
	store, perPage := bulkLoadStore, pagestore.DefaultObjectsPerPage
	identity := make([]pagestore.ObjectID, store.NumObjects())
	for i := range identity {
		identity[i] = pagestore.ObjectID(i)
	}
	reset := func(b *testing.B) {
		if err := store.Paginate(identity, perPage); err != nil {
			b.Fatal(err)
		}
	}
	perObject := func(b *testing.B) {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(store.NumObjects()), "ns/object")
	}
	reset(b)
	order := STROrder(store, perPage)
	b.Run("STROrder", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			STROrder(store, perPage)
		}
		perObject(b)
	})
	b.Run("Paginate", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			reset(b)
			b.StartTimer()
			if err := store.Paginate(order, perPage); err != nil {
				b.Fatal(err)
			}
		}
		perObject(b)
	})
	if err := store.Paginate(order, perPage); err != nil {
		b.Fatal(err)
	}
	b.Run("Build", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			if _, err := Build(store, Config{}); err != nil {
				b.Fatal(err)
			}
		}
		perObject(b)
	})
}

// probeBench is the fixture of the QueryPages benchmarks: the main
// experiments' 1M-object neuro store (as BenchmarkRefine builds its own) and
// the probes of recorded guided walks over it. One probe list is one
// iteration's work: a walk query, or the six rungs of the §5.1 request ladder
// a prefetcher plans after it.
type probeBench struct {
	tree    *Tree
	pointer *pointerNode
	walks   map[string][][]geom.Region
}

// probeBenchData is built by the first benchmark that needs it.
var probeBenchData *probeBench

func loadProbeBench(b *testing.B) *probeBench {
	if probeBenchData == nil {
		ds := dataset.GenerateNeuro(dataset.DefaultNeuroConfig())
		store := pagestore.NewStore(ds.Objects)
		tree, err := BulkLoad(store, Config{})
		if err != nil {
			b.Fatal(err)
		}
		pb := probeBench{tree: tree, pointer: buildPointerTree(store, tree.fanout), walks: map[string][][]geom.Region{}}
		const volume = 80_000
		for name, shape := range map[string]workload.Shape{"aabb": workload.Cube, "frustum": workload.FrustumShape} {
			seqs, err := workload.GenerateMany(ds, workload.Params{Queries: 25, Volume: volume, Shape: shape}, 8, 11)
			if err != nil {
				b.Fatal(err)
			}
			line := prefetch.NewStraightLine(volume)
			for _, seq := range seqs {
				line.Reset()
				for qi, q := range seq.Queries {
					pb.walks[name] = append(pb.walks[name], []geom.Region{q.Region})
					if shape != workload.Cube {
						continue
					}
					// The ladder the straight-line prefetcher plans after
					// each query but the first, along the walk's last step.
					line.Observe(prefetch.Observation{Seq: qi, Region: q.Region, Center: q.Center})
					var ladder []geom.Region
					for _, req := range line.Plan().Requests {
						ladder = append(ladder, req)
					}
					if len(ladder) > 0 {
						pb.walks["ladder"] = append(pb.walks["ladder"], ladder)
					}
				}
			}
		}
		probeBenchData = &pb
	}
	return probeBenchData
}

// BenchmarkQueryPages times the probe alone — Tree.QueryPages over recorded
// walks — per region kind. ns/node divides by the nodes the probes inspected;
// with dst pre-sized the kernel must not allocate.
func BenchmarkQueryPages(b *testing.B) {
	pb := loadProbeBench(b)
	for _, name := range []string{"aabb", "frustum", "ladder"} {
		walk := pb.walks[name]
		b.Run(name, func(b *testing.B) {
			buf := make([]pagestore.PageID, 0, 4096)
			pb.tree.ResetNodesVisited()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, q := range walk[i%len(walk)] {
					buf = pb.tree.QueryPages(q, buf[:0])
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(pb.tree.NodesVisited()), "ns/node")
		})
	}
}

// BenchmarkQueryPagesPointer is the reference row: BenchmarkQueryPages/aabb's
// walk against the pointer-chased tree the flat layout replaced, with the
// seed's per-query node stack (see flat_test.go).
func BenchmarkQueryPagesPointer(b *testing.B) {
	pb := loadProbeBench(b)
	walk := pb.walks["aabb"]
	buf := make([]pagestore.PageID, 0, 4096)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = pb.pointer.queryPagesStack(walk[i%len(walk)][0], buf[:0])
	}
}

func BenchmarkQueryObjects(b *testing.B) {
	store := pagestore.NewStore(uniformObjects(200_000, 500, 2))
	tree, err := BulkLoad(store, Config{})
	if err != nil {
		b.Fatal(err)
	}
	q := geom.CubeAt(geom.V(250, 250, 250), 80_000)
	var buf []pagestore.ObjectID
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = tree.QueryObjects(q, buf[:0])
	}
}
