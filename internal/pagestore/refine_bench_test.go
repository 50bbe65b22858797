package pagestore_test

import (
	"testing"

	"scout/internal/dataset"
	"scout/internal/geom"
	"scout/internal/pagestore"
	"scout/internal/rtree"
	"scout/internal/workload"
)

// refineQuery is one recorded query of a walk: its region and the candidate
// pages the index named for it.
type refineQuery struct {
	region  geom.Region
	pages   []pagestore.PageID
	objects int // objects the refine scans
}

// BenchmarkRefine times the refine step alone — Store.AppendMatches over the
// candidate pages of recorded guided walks — on the main experiments' 1M-
// object neuro store. One iteration is one query; ns/object divides by the
// objects scanned, and with dst pre-sized the kernel must not allocate.
func BenchmarkRefine(b *testing.B) {
	ds := dataset.GenerateNeuro(dataset.DefaultNeuroConfig())
	store := pagestore.NewStore(ds.Objects)
	tree, err := rtree.BulkLoad(store, rtree.Config{})
	if err != nil {
		b.Fatal(err)
	}
	for _, shape := range []workload.Shape{workload.Cube, workload.FrustumShape} {
		seqs, err := workload.GenerateMany(ds, workload.Params{Queries: 25, Volume: 80_000, Shape: shape}, 8, 11)
		if err != nil {
			b.Fatal(err)
		}
		var walk []refineQuery
		maxResult := 0
		for _, seq := range seqs {
			for _, q := range seq.Queries {
				rq := refineQuery{region: q.Region, pages: tree.QueryPages(q.Region, nil)}
				for _, p := range rq.pages {
					rq.objects += len(store.PageObjects(p))
				}
				if n := len(store.AppendMatches(nil, rq.region, rq.pages)); n > maxResult {
					maxResult = n
				}
				walk = append(walk, rq)
			}
		}
		name := "aabb"
		if shape == workload.FrustumShape {
			name = "frustum"
		}
		b.Run(name, func(b *testing.B) {
			dst := make([]pagestore.ObjectID, 0, maxResult)
			scanned := 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				q := &walk[i%len(walk)]
				dst = store.AppendMatches(dst[:0], q.region, q.pages)
				scanned += q.objects
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(scanned), "ns/object")
		})
	}
}
