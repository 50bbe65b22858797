package sgraph

import (
	"math/rand"
	"reflect"
	"testing"

	"scout/internal/geom"
	"scout/internal/pagestore"
)

// graphFingerprint captures everything prediction observes about a graph:
// vertex identity and order, adjacency (as sets, since arena recycling may
// only legally change nothing — order included — we compare exact order),
// edge count, components, and boundary crossings.
func graphFingerprint(t *testing.T, g *Graph, region geom.Region) (verts []pagestore.ObjectID, adj [][]int32, comps [][]int32, crossings []Boundary) {
	t.Helper()
	for v := int32(0); v < int32(g.NumVertices()); v++ {
		verts = append(verts, g.ids[v])
		adj = append(adj, append([]int32(nil), g.adj[v]...))
	}
	return verts, adj, g.Components(), g.AppendCrossings(nil, region)
}

// TestGraphReuseEquivalence drives one arena graph through a series of
// different query regions, resolutions and result sets, and checks after
// every Reset+rebuild that it is indistinguishable from a freshly allocated
// graph built the same way — same vertices in the same order, identical
// adjacency lists, components and crossings.
func TestGraphReuseEquivalence(t *testing.T) {
	store, bounds, ids := benchWorld(2000)
	rng := rand.New(rand.NewSource(11))

	arena := New(store, bounds, 32768)
	for round := 0; round < 12; round++ {
		// Vary region, resolution (including the explicit-only 0 on some
		// rounds via resolution sweep) and result subset per round.
		res := []int{512, 4096, 32768, 8}[round%4]
		lo := rng.Float64() * 20
		region := geom.Box(geom.V(lo, lo, lo), geom.V(lo+10+rng.Float64()*13, 43, 43))
		var result []pagestore.ObjectID
		for _, id := range ids {
			if store.Object(id).IntersectsBox(region) && rng.Intn(4) != 0 {
				result = append(result, id)
			}
		}

		arena.Reset(region, res)
		for _, id := range result {
			arena.AddObject(id)
		}
		fresh := buildGraph(store, region, res, result)

		if arena.NumVertices() != fresh.NumVertices() {
			t.Fatalf("round %d: vertices %d vs fresh %d", round, arena.NumVertices(), fresh.NumVertices())
		}
		if arena.NumEdges() != fresh.NumEdges() {
			t.Fatalf("round %d: edges %d vs fresh %d", round, arena.NumEdges(), fresh.NumEdges())
		}
		av, aa, ac, ax := graphFingerprint(t, arena, region)
		fv, fa, fc, fx := graphFingerprint(t, fresh, region)
		for i := range av {
			if av[i] != fv[i] {
				t.Fatalf("round %d: vertex %d is object %d, fresh has %d", round, i, av[i], fv[i])
			}
			if len(aa[i]) != len(fa[i]) {
				t.Fatalf("round %d: adj[%d] lengths differ: %v vs %v", round, i, aa[i], fa[i])
			}
			for j := range aa[i] {
				if aa[i][j] != fa[i][j] {
					t.Fatalf("round %d: adj[%d] differs: %v vs %v", round, i, aa[i], fa[i])
				}
			}
		}
		if len(ac) != len(fc) {
			t.Fatalf("round %d: components %d vs %d", round, len(ac), len(fc))
		}
		if len(ax) != len(fx) {
			t.Fatalf("round %d: crossings %d vs %d", round, len(ax), len(fx))
		}
		for i := range ax {
			if ax[i] != fx[i] {
				t.Fatalf("round %d: crossing %d differs: %+v vs %+v", round, i, ax[i], fx[i])
			}
		}
	}
}

// TestGraphReuseExplicitPath covers the adjacency-driven (resolution 0)
// lifecycle: explicit edges after Reset must match a fresh graph.
func TestGraphReuseExplicitPath(t *testing.T) {
	store, chains := chainStore(3, 8, 50)
	bounds := geom.Box(geom.V(-1, -1, -1), geom.V(200, 200, 200))
	arena := New(store, bounds, 32768)
	for round := 0; round < 3; round++ {
		arena.Reset(bounds, 0)
		fresh := New(store, bounds, 0)
		for _, g := range []*Graph{arena, fresh} {
			for _, chain := range chains {
				for i := 1; i < len(chain); i++ {
					g.ConnectExplicit(chain[i-1], chain[i])
				}
			}
		}
		if arena.NumEdges() != fresh.NumEdges() || arena.NumVertices() != fresh.NumVertices() {
			t.Fatalf("round %d: arena %d/%d vs fresh %d/%d", round,
				arena.NumVertices(), arena.NumEdges(), fresh.NumVertices(), fresh.NumEdges())
		}
		if len(arena.Components()) != len(fresh.Components()) {
			t.Fatalf("round %d: component count differs", round)
		}
	}
}

// TestGraphReuseNoAllocs pins the arena property the refactor exists for:
// once warm, Reset+rebuild allocates nothing.
func TestGraphReuseNoAllocs(t *testing.T) {
	store, bounds, ids := benchWorld(1500)
	g := New(store, bounds, 32768)
	for warm := 0; warm < 2; warm++ {
		g.Reset(bounds, 32768)
		for _, id := range ids {
			g.AddObject(id)
		}
	}
	allocs := testing.AllocsPerRun(20, func() {
		g.Reset(bounds, 32768)
		for _, id := range ids {
			g.AddObject(id)
		}
	})
	if allocs != 0 {
		t.Errorf("warm Reset+rebuild allocates %.1f times, want 0", allocs)
	}
}

// retainedBytes sums the capacity, in bytes, of every backing array the
// graph holds — each slice field, the slices inside its structs, and the
// parked capacity of nested slices such as recycled adjacency lists. The
// store is shared, not retained, and is skipped.
func retainedBytes(g *Graph) int64 {
	return backingBytes(reflect.ValueOf(g).Elem())
}

func backingBytes(v reflect.Value) int64 {
	switch v.Kind() {
	case reflect.Struct:
		var b int64
		for i := 0; i < v.NumField(); i++ {
			b += backingBytes(v.Field(i))
		}
		return b
	case reflect.Slice:
		b := int64(v.Cap()) * int64(v.Type().Elem().Size())
		switch v.Type().Elem().Kind() {
		case reflect.Slice, reflect.Struct:
			full := v.Slice(0, v.Cap())
			for i := 0; i < full.Len(); i++ {
				b += backingBytes(full.Index(i))
			}
		}
		return b
	}
	return 0
}

// TestGraphRetentionBoundedByResult drives one arena through disjoint,
// equal-size regions of equal result size and checks that what it retains
// stays bounded by what a single region's graph needs: the arena recycles
// storage, it does not accumulate state about every object it has hashed.
func TestGraphRetentionBoundedByResult(t *testing.T) {
	const (
		regions   = 24
		perRegion = 250
		side      = 10.0
		res       = 512
	)
	rng := rand.New(rand.NewSource(32))
	var objs []pagestore.Object
	boxes := make([]geom.AABB, regions)
	for r := range boxes {
		lo := geom.V(float64(r)*3*side, 0, 0)
		boxes[r] = geom.Box(lo, lo.Add(geom.V(side, side, side)))
		for range perRegion {
			a := lo.Add(geom.V(1+rng.Float64()*(side-2), 1+rng.Float64()*(side-2), 1+rng.Float64()*(side-2)))
			d := geom.V(rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()).Normalize()
			objs = append(objs, pagestore.Object{Seg: geom.Seg(a, a.Add(d.Scale(0.9))), Radius: 0.1})
		}
	}
	store := pagestore.NewStore(objs)
	result := func(r int) []pagestore.ObjectID {
		ids := make([]pagestore.ObjectID, perRegion)
		for i := range ids {
			ids[i] = pagestore.ObjectID(r*perRegion + i)
		}
		return ids
	}

	var largest int64
	for r := range boxes {
		largest = max(largest, retainedBytes(buildGraph(store, boxes[r], res, result(r))))
	}
	arena := New(store, boxes[0], res)
	for r := range boxes {
		arena.Reset(boxes[r], res)
		for _, id := range result(r) {
			arena.AddObject(id)
		}
	}
	if got := retainedBytes(arena); float64(got) > 1.5*float64(largest) {
		t.Fatalf("arena retains %d B after %d regions, largest single-region graph %d B (limit 1.5x)",
			got, regions, largest)
	}
}
