package sgraph

import (
	"math/rand"
	"testing"

	"scout/internal/geom"
	"scout/internal/pagestore"
)

// benchWorld builds a query-result-like object set: tortuous chains inside
// a query-sized box, mirroring what SCOUT graphs per query.
func benchWorld(n int) (*pagestore.Store, geom.AABB, []pagestore.ObjectID) {
	rng := rand.New(rand.NewSource(5))
	bounds := geom.Box(geom.V(0, 0, 0), geom.V(43, 43, 43))
	var objs []pagestore.Object
	for len(objs) < n {
		pos := geom.V(rng.Float64()*43, rng.Float64()*43, rng.Float64()*43)
		dir := geom.V(rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()).Normalize()
		for s := 0; s < 20 && len(objs) < n; s++ {
			next := pos.Add(dir.Scale(2))
			objs = append(objs, pagestore.Object{Seg: geom.Seg(pos, next), Radius: 0.4})
			pos = next
		}
	}
	store := pagestore.NewStore(objs)
	ids := make([]pagestore.ObjectID, n)
	for i := range ids {
		ids[i] = pagestore.ObjectID(i)
	}
	return store, bounds, ids
}

func BenchmarkGraphBuild1k(b *testing.B) {
	store, bounds, ids := benchWorld(1000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buildGraph(store, bounds, 32768, ids)
	}
}

func BenchmarkGraphBuildCoarse1k(b *testing.B) {
	store, bounds, ids := benchWorld(1000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buildGraph(store, bounds, 512, ids)
	}
}

// BenchmarkGraphReuse is the arena counterpart of BenchmarkGraphBuild1k:
// the same per-query graph build through the Reset lifecycle SCOUT uses,
// recycling all backing storage. Compare allocs/op against the fresh build.
func BenchmarkGraphReuse(b *testing.B) {
	store, bounds, ids := benchWorld(1000)
	g := New(store, bounds, 32768)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Reset(bounds, 32768)
		for _, id := range ids {
			g.AddObject(id)
		}
	}
}

func BenchmarkReachableCrossings(b *testing.B) {
	store, bounds, ids := benchWorld(1000)
	g := buildGraph(store, bounds, 32768, ids)
	crossings := g.AppendCrossings(nil, bounds)
	starts := make([]int32, 0, len(crossings))
	for _, c := range crossings {
		starts = append(starts, c.Vertex)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.ReachableCrossings(starts, bounds)
	}
}

func BenchmarkComponents(b *testing.B) {
	store, bounds, ids := benchWorld(1000)
	g := buildGraph(store, bounds, 32768, ids)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Components()
	}
}

// BenchmarkGraphAdvance measures the delta lifecycle against its rebuild
// counterpart (BenchmarkGraphReuse): a drifting window over benchWorld where
// ~80% of the result survives each step, advanced via tombstones + inserts
// instead of Reset + full re-hash.
func BenchmarkGraphAdvance(b *testing.B) {
	store, _, _ := benchWorld(4000)
	side := 20.0
	regionAt := func(i int) geom.AABB {
		off := float64(i%8) * 2
		return geom.Box(geom.V(off, off/2, 0), geom.V(off+side, off/2+side, side))
	}
	resultAt := func(r geom.AABB) []pagestore.ObjectID {
		var out []pagestore.ObjectID
		for i := 0; i < store.NumObjects(); i++ {
			id := pagestore.ObjectID(i)
			if store.Object(id).IntersectsBox(r) {
				out = append(out, id)
			}
		}
		return out
	}
	regions := make([]geom.AABB, 8)
	results := make([][]pagestore.ObjectID, 8)
	for i := range regions {
		regions[i] = regionAt(i)
		results[i] = resultAt(regions[i])
	}
	g := buildGraph(store, regions[0], 32768, results[0])
	live := map[pagestore.ObjectID]bool{}
	for _, id := range results[0] {
		live[id] = true
	}
	var removed, added []pagestore.ObjectID
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := regions[(i+1)%8]
		res := results[(i+1)%8]
		inNew := map[pagestore.ObjectID]bool{}
		for _, id := range res {
			inNew[id] = true
		}
		removed, added = removed[:0], added[:0]
		g.ForEachLive(func(_ int32, id pagestore.ObjectID) {
			if !inNew[id] {
				removed = append(removed, id)
			}
		})
		for _, id := range res {
			if !live[id] {
				added = append(added, id)
			}
		}
		if !g.CanAdvance(r, 32768) {
			b.Fatal("cannot advance")
		}
		g.Advance(r, 32768, removed, added)
		live = inNew
	}
}
