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
		verts = append(verts, g.ObjectAt(v))
		adj = append(adj, append([]int32(nil), g.Adj(v)...))
	}
	return verts, adj, g.Components(), g.Crossings(region)
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
		fresh := Build(store, region, res, result)

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

// TestCellMemoFillsPoolToCap: a memoized run is its key count followed by its
// keys, and memoPoolCap counts both. A walk whose run ends exactly at the cap
// is stored and reads back its own length; the next one finds no room, is
// walked again on every build, and the graph is the fresh one either way.
func TestCellMemoFillsPoolToCap(t *testing.T) {
	store, chains := chainStore(1, 6, 50)
	bounds := geom.Box(geom.V(-1, -1, -1), geom.V(9, 9, 9))
	a, b := chains[0][1], chains[0][2]
	g := New(store, bounds, 512)
	want := g.lat.segmentCells(store.Object(a).Seg, nil, true)
	if len(want) == 0 {
		t.Fatal("object hashes to no cell")
	}
	g.memoPool = make([]uint64, memoPoolCap-1-len(want), memoPoolCap)

	g.AddObject(a)
	g.AddObject(b)
	if len(g.memoPool) != memoPoolCap {
		t.Fatalf("pool holds %d words, want the cap %d", len(g.memoPool), memoPoolCap)
	}
	run, ok := g.memoRun(a)
	if !ok {
		t.Fatal("the run that fits exactly was not memoized")
	}
	if !reflect.DeepEqual(run, want) || &run[len(run)-1] != &g.memoPool[memoPoolCap-1] {
		t.Fatalf("memoized run %#x, want %#x ending at the cap", run, want)
	}
	if n := g.memoPool[memoPoolCap-1-len(want)]; int(n) != len(want) {
		t.Fatalf("run's length prefix reads %d, want %d", n, len(want))
	}
	if _, ok := g.memoRun(b); ok {
		t.Fatal("a run was memoized past the cap")
	}

	ids := []pagestore.ObjectID{a, b}
	g.Reset(bounds, 512) // a from the memo, b walked
	for _, id := range ids {
		g.AddObject(id)
	}
	fresh := Build(store, bounds, 512, ids)
	gv, ga, _, gx := graphFingerprint(t, g, bounds)
	fv, fa, _, fx := graphFingerprint(t, fresh, bounds)
	if !reflect.DeepEqual(gv, fv) || !reflect.DeepEqual(ga, fa) || !reflect.DeepEqual(gx, fx) {
		t.Fatalf("graph rebuilt at the pool cap differs from a fresh one:\n%v %v %v\n%v %v %v", gv, ga, gx, fv, fa, fx)
	}
}
