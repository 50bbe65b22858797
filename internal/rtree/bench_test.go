package rtree

import (
	"math"
	"testing"

	"scout/internal/dataset"
	"scout/internal/geom"
	"scout/internal/pagestore"
	"scout/internal/prefetch"
	"scout/internal/workload"
)

func BenchmarkSTROrder100k(b *testing.B) {
	objs := uniformObjects(100_000, 500, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		STROrder(objs, pagestore.DefaultObjectsPerPage)
	}
}

func BenchmarkBulkLoad100k(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		store := pagestore.NewStore(uniformObjects(100_000, 500, 1))
		b.StartTimer()
		if _, err := BulkLoad(store, Config{}); err != nil {
			b.Fatal(err)
		}
	}
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
		pb := probeBench{tree: tree, pointer: buildPointerTree(store, tree.Fanout()), walks: map[string][][]geom.Region{}}
		const volume = 80_000
		for name, shape := range map[string]workload.Shape{"aabb": workload.Cube, "frustum": workload.FrustumShape} {
			seqs, err := workload.GenerateMany(ds, workload.Params{Queries: 25, Volume: volume, Shape: shape}, 8, 11)
			if err != nil {
				b.Fatal(err)
			}
			for _, seq := range seqs {
				for _, q := range seq.Queries {
					pb.walks[name] = append(pb.walks[name], []geom.Region{q.Region})
					if shape != workload.Cube {
						continue
					}
					// The ladder a straight-line plan issues: anchored where
					// the walk leaves the query, along its direction.
					exit := q.Center.Add(q.Dir.Scale(math.Cbrt(volume) / 2))
					var ladder []geom.Region
					for _, req := range prefetch.IncrementalRequests(exit, q.Dir, volume, 6) {
						ladder = append(ladder, req.Region)
					}
					pb.walks["ladder"] = append(pb.walks["ladder"], ladder)
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
