package rtree

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"scout/internal/geom"
	"scout/internal/pagestore"
)

// uniformObjects spreads short segments uniformly in a cube of the given side.
func uniformObjects(n int, side float64, seed int64) []pagestore.Object {
	rng := rand.New(rand.NewSource(seed))
	objs := make([]pagestore.Object, n)
	for i := range objs {
		a := geom.V(rng.Float64()*side, rng.Float64()*side, rng.Float64()*side)
		d := geom.V(rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()).Normalize().Scale(side / 200)
		objs[i] = pagestore.Object{Seg: geom.Seg(a, a.Add(d)), Radius: side / 1000}
	}
	return objs
}

// bruteForcePages computes the reference answer: every page whose MBR
// intersects the region.
func bruteForcePages(s *pagestore.Store, r geom.Region) map[pagestore.PageID]bool {
	want := map[pagestore.PageID]bool{}
	for p := 0; p < s.NumPages(); p++ {
		pid := pagestore.PageID(p)
		if r.IntersectsAABB(s.PageBounds(pid)) && s.PageBounds(pid).Intersects(r.Bounds()) {
			want[pid] = true
		}
	}
	return want
}

func TestBulkLoadBasics(t *testing.T) {
	store := pagestore.NewStore(uniformObjects(1000, 100, 1))
	tree, err := BulkLoad(store, Config{ObjectsPerPage: 87})
	if err != nil {
		t.Fatal(err)
	}
	if !store.Paginated() {
		t.Fatal("store not paginated")
	}
	wantPages := (1000 + 86) / 87
	if store.NumPages() != wantPages {
		t.Errorf("NumPages = %d, want %d", store.NumPages(), wantPages)
	}
	if tree.Height() < 2 {
		t.Errorf("Height = %d", tree.Height())
	}
	if tree.Store() != store {
		t.Error("Store() mismatch")
	}
}

func TestQueryPagesMatchesBruteForce(t *testing.T) {
	store := pagestore.NewStore(uniformObjects(3000, 100, 2))
	tree, err := BulkLoad(store, Config{ObjectsPerPage: 50, Fanout: 8})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 100; trial++ {
		c := geom.V(rng.Float64()*100, rng.Float64()*100, rng.Float64()*100)
		q := geom.CubeAt(c, 1000+rng.Float64()*50000)
		got := map[pagestore.PageID]bool{}
		for _, p := range tree.QueryPages(q, nil) {
			if got[p] {
				t.Fatalf("duplicate page %d", p)
			}
			got[p] = true
		}
		want := bruteForcePages(store, q)
		if len(got) != len(want) {
			t.Fatalf("trial %d: got %d pages, want %d", trial, len(got), len(want))
		}
		for p := range want {
			if !got[p] {
				t.Fatalf("trial %d: missing page %d", trial, p)
			}
		}
	}
}

func TestQueryObjectsExact(t *testing.T) {
	store := pagestore.NewStore(uniformObjects(2000, 100, 4))
	tree, err := BulkLoad(store, Config{})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 50; trial++ {
		q := geom.CubeAt(geom.V(rng.Float64()*100, rng.Float64()*100, rng.Float64()*100), 30000)
		got := map[pagestore.ObjectID]bool{}
		for _, id := range tree.QueryObjects(q, nil) {
			got[id] = true
		}
		for _, o := range store.Objects() {
			want := pagestore.Matches(q, o)
			if want != got[o.ID] {
				t.Fatalf("object %d: got %v, want %v", o.ID, got[o.ID], want)
			}
		}
	}
}

func TestQueryFrustum(t *testing.T) {
	store := pagestore.NewStore(uniformObjects(2000, 100, 6))
	tree, err := BulkLoad(store, Config{})
	if err != nil {
		t.Fatal(err)
	}
	f := geom.NewFrustum(geom.V(50, 50, 50), geom.V(1, 0, 0), geom.V(0, 0, 1),
		math.Pi/3, 1.3, 1, 30)
	pages := tree.QueryPages(f, nil)
	want := bruteForcePages(store, f)
	if len(pages) != len(want) {
		t.Fatalf("frustum query: got %d pages, want %d", len(pages), len(want))
	}
	// All returned objects intersect the frustum's bounds at least.
	for _, id := range tree.QueryObjects(f, nil) {
		if !f.IntersectsAABB(store.Object(id).Bounds()) {
			t.Fatalf("object %d outside frustum", id)
		}
	}
}

func TestSTROrderIsPermutation(t *testing.T) {
	objs := uniformObjects(1234, 50, 7)
	order := STROrder(objs, 87)
	if len(order) != len(objs) {
		t.Fatalf("order length %d", len(order))
	}
	seen := make([]bool, len(objs))
	for _, id := range order {
		if seen[id] {
			t.Fatalf("duplicate id %d", id)
		}
		seen[id] = true
	}
}

func TestSTROrderLocality(t *testing.T) {
	// Consecutive objects in STR order must be much closer on average than
	// random pairs. STROrder keys by object ID, which NewStore assigns; the
	// store is not paginated, so IDs are still slice positions below.
	objs := pagestore.NewStore(uniformObjects(5000, 100, 8)).Objects()
	order := STROrder(objs, 87)
	var consecutive float64
	for i := 1; i < len(order); i++ {
		consecutive += objs[order[i-1]].Centroid().Dist(objs[order[i]].Centroid())
	}
	consecutive /= float64(len(order) - 1)
	rng := rand.New(rand.NewSource(9))
	var random float64
	for i := 0; i < 5000; i++ {
		a, b := rng.Intn(len(objs)), rng.Intn(len(objs))
		random += objs[a].Centroid().Dist(objs[b].Centroid())
	}
	random /= 5000
	if consecutive > random/3 {
		t.Errorf("weak locality: consecutive=%v random=%v", consecutive, random)
	}
}

// TestSTROrderOnClusteredStore: pagination moves the objects into storage
// order, so slice position stops being the object ID. STROrder must read IDs,
// not positions — recomputed over the clustered store it returns the same
// order, and a second BulkLoad reproduces the same pages.
func TestSTROrderOnClusteredStore(t *testing.T) {
	store := pagestore.NewStore(uniformObjects(5000, 100, 8))
	first := STROrder(store.Objects(), 87)
	if _, err := BulkLoad(store, Config{ObjectsPerPage: 87}); err != nil {
		t.Fatal(err)
	}
	if store.Objects()[0].ID == 0 && store.Objects()[1].ID == 1 && store.Objects()[2].ID == 2 {
		t.Fatal("pagination left the objects in creation order; the test needs a real permutation")
	}
	bounds := make([]geom.AABB, store.NumPages())
	for p := range bounds {
		bounds[p] = store.PageBounds(pagestore.PageID(p))
	}
	if again := STROrder(store.Objects(), 87); !reflect.DeepEqual(again, first) {
		t.Fatal("STROrder over the clustered store differs from the order that clustered it")
	}
	if _, err := BulkLoad(store, Config{ObjectsPerPage: 87}); err != nil {
		t.Fatal(err)
	}
	for p := range bounds {
		if got := store.PageBounds(pagestore.PageID(p)); got != bounds[p] {
			t.Fatalf("second BulkLoad moved page %d: bounds %v, were %v", p, got, bounds[p])
		}
	}
}

func TestPageMBRTightness(t *testing.T) {
	// STR-packed pages should have small MBRs; the mean page MBR volume
	// must be far below the dataset volume divided by page count × 10.
	store := pagestore.NewStore(uniformObjects(5000, 100, 10))
	if _, err := BulkLoad(store, Config{}); err != nil {
		t.Fatal(err)
	}
	var mean float64
	for p := 0; p < store.NumPages(); p++ {
		mean += store.PageBounds(pagestore.PageID(p)).Volume()
	}
	mean /= float64(store.NumPages())
	worldVol := 100.0 * 100 * 100
	fair := worldVol / float64(store.NumPages())
	if mean > fair*20 {
		t.Errorf("loose pages: mean MBR volume %v, fair share %v", mean, fair)
	}
}

func TestEmptyTree(t *testing.T) {
	store := pagestore.NewStore(nil)
	tree, err := BulkLoad(store, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if got := tree.QueryPages(geom.CubeAt(geom.V(0, 0, 0), 1000), nil); len(got) != 0 {
		t.Errorf("empty tree returned %d pages", len(got))
	}
}

func TestSinglePageTree(t *testing.T) {
	store := pagestore.NewStore(uniformObjects(10, 10, 11))
	tree, err := BulkLoad(store, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if store.NumPages() != 1 || tree.Height() != 1 {
		t.Errorf("pages=%d height=%d", store.NumPages(), tree.Height())
	}
	got := tree.QueryPages(geom.CubeAt(geom.V(5, 5, 5), 1e6), nil)
	if len(got) != 1 {
		t.Errorf("got %d pages", len(got))
	}
}

// TestNodesVisitedCounter pins the counter's definition — the root, plus
// every child of every node that intersects the region — on a tree small
// enough to count by hand: nine one-point pages at x = 0, 10, ..., 80 under
// fanout 3, so the inner level is [0,20] [30,50] [60,80] and the root [0,80].
func TestNodesVisitedCounter(t *testing.T) {
	objs := make([]pagestore.Object, 9)
	order := make([]pagestore.ObjectID, len(objs))
	for i := range objs {
		p := geom.V(float64(10*i), 0, 0)
		objs[i] = pagestore.Object{Seg: geom.Seg(p, p)}
		order[i] = pagestore.ObjectID(i)
	}
	store := pagestore.NewStore(objs)
	if err := store.Paginate(order, 1); err != nil {
		t.Fatal(err)
	}
	tree, err := Build(store, Config{ObjectsPerPage: 1, Fanout: 3})
	if err != nil {
		t.Fatal(err)
	}
	if tree.Height() != 3 {
		t.Fatalf("Height = %d, want 3", tree.Height())
	}
	slab := func(lo, hi float64) geom.AABB {
		return geom.AABB{Min: geom.V(lo, -1, -1), Max: geom.V(hi, 1, 1)}
	}
	var total int64
	for _, tc := range []struct {
		name    string
		q       geom.AABB
		pages   []pagestore.PageID
		visited int64
	}{
		{"misses the root", slab(100, 110), nil, 1},
		{"root only, between two inner nodes", slab(22, 28), nil, 1 + 3},
		{"one inner node, between its leaves", slab(32, 38), nil, 1 + 3 + 3},
		{"two inner nodes", slab(15, 35), []pagestore.PageID{2, 3}, 1 + 3 + 6},
		{"everything", slab(-5, 85), []pagestore.PageID{0, 1, 2, 3, 4, 5, 6, 7, 8}, 1 + 3 + 9},
		{"empty region", geom.EmptyAABB(), nil, 1},
	} {
		before := tree.NodesVisited()
		if got := tree.QueryPages(tc.q, nil); !reflect.DeepEqual(got, tc.pages) {
			t.Errorf("%s: pages %v, want %v", tc.name, got, tc.pages)
		}
		if got := tree.NodesVisited() - before; got != tc.visited {
			t.Errorf("%s: inspected %d nodes, want %d", tc.name, got, tc.visited)
		}
		total += tc.visited
	}
	if tree.NodesVisited() != total {
		t.Errorf("NodesVisited = %d after all queries, want the sum %d", tree.NodesVisited(), total)
	}
	tree.ResetNodesVisited()
	if tree.NodesVisited() != 0 {
		t.Error("ResetNodesVisited did not zero")
	}
}
