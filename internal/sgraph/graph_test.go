package sgraph

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"scout/internal/geom"
	"scout/internal/pagestore"
)

// chainStore builds a store containing horizontal polylines ("branches").
// Each chain c runs along x at y = z = offset(c), made of unit segments.
func chainStore(chains int, segsPerChain int, spacing float64) (*pagestore.Store, [][]pagestore.ObjectID) {
	var objs []pagestore.Object
	var ids [][]pagestore.ObjectID
	for c := 0; c < chains; c++ {
		y := float64(c) * spacing
		var chain []pagestore.ObjectID
		for s := 0; s < segsPerChain; s++ {
			a := geom.V(float64(s), y, y)
			b := geom.V(float64(s+1), y, y)
			chain = append(chain, pagestore.ObjectID(len(objs)))
			objs = append(objs, pagestore.Object{Seg: geom.Seg(a, b), Struct: int32(c)})
		}
		ids = append(ids, chain)
	}
	return pagestore.NewStore(objs), ids
}

// boxResult returns the IDs of the store's objects that intersect region, in
// ID order.
func boxResult(s *pagestore.Store, region geom.AABB) []pagestore.ObjectID {
	var result []pagestore.ObjectID
	for id := range pagestore.ObjectID(s.NumObjects()) {
		if s.Object(id).IntersectsBox(region) {
			result = append(result, id)
		}
	}
	return result
}

// buildGraph constructs the complete graph of a query result in one call:
// every object becomes a vertex and grid hashing connects them.
func buildGraph(store *pagestore.Store, bounds geom.AABB, resolution int, result []pagestore.ObjectID) *Graph {
	g := New(store, bounds, resolution)
	for _, id := range result {
		g.AddObject(id)
	}
	return g
}

func allIDs(s *pagestore.Store) []pagestore.ObjectID {
	ids := make([]pagestore.ObjectID, s.NumObjects())
	for i := range ids {
		ids[i] = pagestore.ObjectID(i)
	}
	return ids
}

func TestBuildConnectsChains(t *testing.T) {
	store, chains := chainStore(3, 10, 5) // chains 5 apart
	bounds := geom.Box(geom.V(-1, -1, -1), geom.V(11, 11, 11))
	g := buildGraph(store, bounds, 32768, allIDs(store))

	if g.NumVertices() != 30 {
		t.Fatalf("NumVertices = %d", g.NumVertices())
	}
	comps := g.Components()
	if len(comps) != 3 {
		t.Fatalf("components = %d, want 3", len(comps))
	}
	// Each chain is one component.
	for c, chain := range chains {
		root := g.find(g.VertexOf(chain[0]))
		for _, id := range chain[1:] {
			if g.find(g.VertexOf(id)) != root {
				t.Fatalf("chain %d split", c)
			}
		}
	}
	// Different chains are separate.
	if g.find(g.VertexOf(chains[0][0])) == g.find(g.VertexOf(chains[1][0])) {
		t.Fatal("distinct chains connected")
	}
}

func TestCoarseGridMergesChains(t *testing.T) {
	// With only 8 cells over a 12-unit cube, cells are 6 units — bigger
	// than the 2-unit chain spacing, so both chains land in the same cells
	// and merge: the paper's "too coarse a resolution ... can imply
	// structures that are not present".
	store, _ := chainStore(2, 10, 2)
	bounds := geom.Box(geom.V(-1, -1, -1), geom.V(11, 11, 11))
	g := buildGraph(store, bounds, 8, allIDs(store))
	if len(g.Components()) != 1 {
		t.Fatalf("components = %d, want 1 (merged)", len(g.Components()))
	}
}

func TestTooFineGridSplitsChain(t *testing.T) {
	// Make segments with gaps between them (endpoints 0.5 apart) and use a
	// very fine grid: consecutive objects fall into different cells and the
	// chain splits — the paper's "objects that ... should be connected end
	// up in different cells".
	var objs []pagestore.Object
	for s := 0; s < 10; s++ {
		a := geom.V(float64(s)*2, 0, 0)
		b := geom.V(float64(s)*2+1, 0, 0) // gap of 1 before next
		objs = append(objs, pagestore.Object{Seg: geom.Seg(a, b)})
	}
	store := pagestore.NewStore(objs)
	bounds := geom.Box(geom.V(-1, -1, -1), geom.V(21, 1, 1))
	gFine := buildGraph(store, bounds, 1<<15, allIDs(store))
	if comps := len(gFine.Components()); comps < 2 {
		t.Fatalf("fine grid did not split gapped chain: %d components", comps)
	}
}

func TestIdempotentAdd(t *testing.T) {
	store, _ := chainStore(1, 5, 1)
	bounds := geom.Box(geom.V(-1, -1, -1), geom.V(6, 1, 1))
	g := New(store, bounds, 4096)
	v1 := g.AddObject(0)
	v2 := g.AddObject(0)
	if v1 != v2 {
		t.Fatal("AddObject not idempotent")
	}
	if g.NumVertices() != 1 {
		t.Fatalf("NumVertices = %d", g.NumVertices())
	}
}

func TestExplicitConnect(t *testing.T) {
	store, chains := chainStore(2, 3, 100) // far apart — grid won't connect
	bounds := geom.Box(geom.V(-1, -1, -1), geom.V(200, 200, 200))
	g := New(store, bounds, 0) // resolution 0: explicit only
	for _, chain := range chains {
		for i := 1; i < len(chain); i++ {
			g.ConnectExplicit(chain[i-1], chain[i])
		}
	}
	if len(g.Components()) != 2 {
		t.Fatalf("components = %d", len(g.Components()))
	}
	if g.NumEdges() != 4 {
		t.Fatalf("edges = %d", g.NumEdges())
	}
	// Duplicate explicit edges are suppressed.
	g.ConnectExplicit(chains[0][0], chains[0][1])
	if g.NumEdges() != 4 {
		t.Fatalf("duplicate edge added: %d", g.NumEdges())
	}
}

func TestCrossings(t *testing.T) {
	store, _ := chainStore(1, 20, 1) // chain x: 0..20 at y=z=0
	region := geom.Box(geom.V(5.5, -1, -1), geom.V(10.5, 1, 1))
	// Result: segments intersecting region = those covering x in [5.5,10.5]:
	// segments 5..10 (seg s spans [s, s+1]).
	result := boxResult(store, region)
	g := buildGraph(store, region, 4096, result)

	crossings := g.AppendCrossings(nil, region)
	if len(crossings) != 2 {
		t.Fatalf("crossings = %d, want 2", len(crossings))
	}
	// Both crossings are outward-oriented: the one at x = 10.5 heads +x,
	// the one at x = 5.5 heads −x, regardless of segment storage order.
	for _, c := range crossings {
		switch {
		case vecAlmostEq(c.Point, geom.V(10.5, 0, 0), 1e-9):
			if !vecAlmostEq(c.Dir, geom.V(1, 0, 0), 1e-9) {
				t.Errorf("front crossing dir = %v, want +x", c.Dir)
			}
		case vecAlmostEq(c.Point, geom.V(5.5, 0, 0), 1e-9):
			if !vecAlmostEq(c.Dir, geom.V(-1, 0, 0), 1e-9) {
				t.Errorf("back crossing dir = %v, want -x", c.Dir)
			}
		default:
			t.Errorf("unexpected crossing at %v", c.Point)
		}
	}
}

func TestCrossingsOutwardForReversedSegments(t *testing.T) {
	// The same chain stored tip-to-root: outward orientation must not
	// change. This is what makes SCOUT direction-agnostic to storage order
	// and to the user walking a structure backwards.
	var objs []pagestore.Object
	for s := 0; s < 20; s++ {
		// Reversed: A is the far end, B the near end.
		objs = append(objs, pagestore.Object{
			Seg: geom.Seg(geom.V(float64(s+1), 0, 0), geom.V(float64(s), 0, 0)),
		})
	}
	store := pagestore.NewStore(objs)
	region := geom.Box(geom.V(5.5, -1, -1), geom.V(10.5, 1, 1))
	result := boxResult(store, region)
	g := buildGraph(store, region, 4096, result)
	for _, c := range g.AppendCrossings(nil, region) {
		if vecAlmostEq(c.Point, geom.V(10.5, 0, 0), 1e-9) &&
			!vecAlmostEq(c.Dir, geom.V(1, 0, 0), 1e-9) {
			t.Errorf("front crossing dir = %v, want +x despite reversed storage", c.Dir)
		}
		if vecAlmostEq(c.Point, geom.V(5.5, 0, 0), 1e-9) &&
			!vecAlmostEq(c.Dir, geom.V(-1, 0, 0), 1e-9) {
			t.Errorf("back crossing dir = %v, want -x despite reversed storage", c.Dir)
		}
	}
}

func vecAlmostEq(a, b geom.Vec3, tol float64) bool {
	return math.Abs(a.X-b.X) <= tol && math.Abs(a.Y-b.Y) <= tol && math.Abs(a.Z-b.Z) <= tol
}

func TestReachableExits(t *testing.T) {
	store, chains := chainStore(2, 20, 3)
	region := geom.Box(geom.V(5.2, -1, -1), geom.V(10.2, 4, 4))
	result := boxResult(store, region)
	g := buildGraph(store, region, 32768, result)

	// Start from chain 0's entry vertex: only chain 0's crossings are
	// reachable.
	entry := g.VertexOf(chains[0][5]) // segment [5,6] straddles x=5.2
	if entry < 0 {
		t.Fatal("entry object not in graph")
	}
	crossings := g.ReachableCrossings([]int32{entry}, region)
	if len(crossings) != 2 {
		t.Fatalf("reachable crossings = %d, want 2", len(crossings))
	}
	for _, c := range crossings {
		if got := store.Object(g.ids[c.Vertex]).Struct; got != 0 {
			t.Errorf("crossing belongs to struct %d, want 0", got)
		}
	}
	if g.Ops() == 0 {
		t.Error("ops counter not incremented")
	}
}

func TestReachableFrom(t *testing.T) {
	store, chains := chainStore(2, 10, 3)
	bounds := geom.Box(geom.V(-1, -1, -1), geom.V(11, 4, 4))
	g := buildGraph(store, bounds, 32768, allIDs(store))
	start := g.VertexOf(chains[0][0])
	reached := g.ReachableFrom([]int32{start})
	if len(reached) != 10 {
		t.Fatalf("reached %d vertices, want 10", len(reached))
	}
	if got := g.ReachableFrom(nil); got != nil {
		t.Error("ReachableFrom(nil) != nil")
	}
}

func TestMemoryBytesGrows(t *testing.T) {
	store, _ := chainStore(1, 100, 1)
	bounds := geom.Box(geom.V(-1, -1, -1), geom.V(101, 1, 1))
	g := New(store, bounds, 4096)
	m0 := g.MemoryBytes()
	for i := 0; i < 100; i++ {
		g.AddObject(pagestore.ObjectID(i))
	}
	if g.MemoryBytes() <= m0 {
		t.Error("MemoryBytes did not grow")
	}
}

// Property: at fine resolutions, grid hashing connects exactly those object
// pairs that share a cell; as a consequence two objects far apart (more than
// one cell diagonal + both lengths) are never connected directly.
func TestNoSpuriousLongEdges(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	var objs []pagestore.Object
	for i := 0; i < 300; i++ {
		a := geom.V(rng.Float64()*50, rng.Float64()*50, rng.Float64()*50)
		b := a.Add(geom.V(rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()).Normalize())
		objs = append(objs, pagestore.Object{Seg: geom.Seg(a, b)})
	}
	store := pagestore.NewStore(objs)
	bounds := geom.Box(geom.V(0, 0, 0), geom.V(50, 50, 50))
	res := 32768 // 32³ cells of ~1.5625 side
	g := buildGraph(store, bounds, res, allIDs(store))
	cellDiag := math.Sqrt(3) * 50 / 32
	for v := int32(0); v < int32(g.NumVertices()); v++ {
		sv := store.Object(g.ids[v]).Seg
		for _, w := range g.adj[v] {
			sw := store.Object(g.ids[w]).Seg
			if d := sv.DistToSegment(sw); d > cellDiag {
				t.Fatalf("edge between objects %v apart (cell diag %v)", d, cellDiag)
			}
		}
	}
}

func TestOpsDeterministic(t *testing.T) {
	store, _ := chainStore(3, 30, 3)
	region := geom.Box(geom.V(5, -1, -1), geom.V(25, 8, 8))
	result := boxResult(store, region)
	run := func() int64 {
		g := buildGraph(store, region, 4096, result)
		g.ReachableCrossings([]int32{0}, region)
		return g.Ops()
	}
	if run() != run() {
		t.Error("traversal ops not deterministic")
	}
}

// TestCrossingPathsAgree: AppendCrossings, the one-pass form that settles
// the region's type once and skips the vertices strictly inside a fresh
// build's clip box, returns exactly AppendVertexCrossings' crossings vertex
// by vertex, for a box, the same box by pointer and a frustum, on a random
// cloud built over the region's bounds and over another box.
func TestCrossingPathsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	objs := make([]pagestore.Object, 3000)
	for i := range objs {
		a := geom.V(rng.Float64()*40, rng.Float64()*40, rng.Float64()*40)
		objs[i] = pagestore.Object{Seg: geom.Seg(a, a.Add(geom.V(rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()).Scale(2)))}
	}
	store := pagestore.NewStore(objs)
	box := geom.Box(geom.V(8, 10, 12), geom.V(30, 28, 26))
	regions := []geom.Region{
		box,
		&box,
		geom.FrustumWithVolume(geom.V(2, 20, 20), geom.V(1, 0.2, -0.1), geom.V(0, 0, 1), math.Pi/3, 1.3, 6000),
	}
	for _, region := range regions {
		for _, bounds := range []geom.AABB{region.Bounds(), box} {
			g := buildGraph(store, bounds, 64, allIDs(store))
			var want []Boundary
			for v := int32(0); v < int32(g.NumVertices()); v++ {
				want = g.AppendVertexCrossings(want, v, region)
			}
			if len(want) == 0 {
				t.Fatalf("%T: no crossings; the test is vacuous", region)
			}
			if got := g.AppendCrossings(nil, region); !reflect.DeepEqual(got, want) {
				t.Fatalf("%T over %v: AppendCrossings differs from the per-vertex pass (%d vs %d crossings)", region, bounds, len(got), len(want))
			}
		}
	}
}
