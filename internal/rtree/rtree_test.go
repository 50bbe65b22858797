package rtree

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"testing"

	"scout/internal/dataset"
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
	if tree.store != store {
		t.Error("tree indexes another store")
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
		for id := range store.NumObjects() {
			o := store.Object(pagestore.ObjectID(id))
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
	store := pagestore.NewStore(uniformObjects(1234, 50, 7))
	order := STROrder(store, 87)
	if len(order) != store.NumObjects() {
		t.Fatalf("order length %d", len(order))
	}
	seen := make([]bool, len(order))
	for _, id := range order {
		if seen[id] {
			t.Fatalf("duplicate id %d", id)
		}
		seen[id] = true
	}
}

func TestSTROrderLocality(t *testing.T) {
	// Consecutive objects in STR order must be much closer on average than
	// random pairs.
	store := pagestore.NewStore(uniformObjects(5000, 100, 8))
	order := STROrder(store, 87)
	centroid := func(id pagestore.ObjectID) geom.Vec3 { return store.Object(id).Centroid() }
	var consecutive float64
	for i := 1; i < len(order); i++ {
		consecutive += centroid(order[i-1]).Dist(centroid(order[i]))
	}
	consecutive /= float64(len(order) - 1)
	rng := rand.New(rand.NewSource(9))
	var random float64
	for i := 0; i < 5000; i++ {
		a, b := rng.Intn(len(order)), rng.Intn(len(order))
		random += centroid(pagestore.ObjectID(a)).Dist(centroid(pagestore.ObjectID(b)))
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
	first := STROrder(store, 87)
	if _, err := BulkLoad(store, Config{ObjectsPerPage: 87}); err != nil {
		t.Fatal(err)
	}
	if page := store.PageSlice(0); page[0].ID == 0 && page[1].ID == 1 && page[2].ID == 2 {
		t.Fatal("pagination left the objects in creation order; the test needs a real permutation")
	}
	bounds := make([]geom.AABB, store.NumPages())
	for p := range bounds {
		bounds[p] = store.PageBounds(pagestore.PageID(p))
	}
	if again := STROrder(store, 87); !reflect.DeepEqual(again, first) {
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

// strOrderSortSlice is STROrder as it was before its sorts moved onto the
// packed centroid array, kept verbatim as the oracle of
// TestSTROrderMatchesSortSlice: three rounds of sort.Slice over an ID slice,
// reading each compared centroid through it.
func strOrderSortSlice(objects []pagestore.Object, perPage int) []pagestore.ObjectID {
	n := len(objects)
	order := make([]pagestore.ObjectID, n)
	for i := range order {
		order[i] = pagestore.ObjectID(i)
	}
	if n == 0 {
		return order
	}
	cent := make([]geom.Vec3, n)
	for i := range objects {
		cent[objects[i].ID] = objects[i].Centroid()
	}

	pages := (n + perPage - 1) / perPage
	s := int(math.Ceil(math.Cbrt(float64(pages)))) // slabs per axis

	// Ties are broken by the remaining axes so that degenerate data (planar
	// road networks, collinear chains) still gets a deterministic,
	// locality-preserving order instead of sort.Slice's arbitrary one.
	less := func(p, q geom.Vec3, axes [3]int) bool {
		for _, ax := range axes {
			a, b := p.Component(ax), q.Component(ax)
			if a != b {
				return a < b
			}
		}
		return false
	}
	sort.Slice(order, func(a, b int) bool {
		return less(cent[order[a]], cent[order[b]], [3]int{0, 1, 2})
	})
	slabSize := (n + s - 1) / s
	for xs := 0; xs < n; xs += slabSize {
		xe := min(xs+slabSize, n)
		slab := order[xs:xe]
		sort.Slice(slab, func(a, b int) bool {
			return less(cent[slab[a]], cent[slab[b]], [3]int{1, 2, 0})
		})
		runSize := (len(slab) + s - 1) / s
		for ys := 0; ys < len(slab); ys += runSize {
			ye := min(ys+runSize, len(slab))
			run := slab[ys:ye]
			sort.Slice(run, func(a, b int) bool {
				return less(cent[run[a]], cent[run[b]], [3]int{2, 0, 1})
			})
		}
	}
	return order
}

// cornerObjects returns n segments between random corners of the unit cube:
// their centroids take 27 values, so nearly every comparison STROrder makes
// meets exact duplicates, and their order is pdqsort's.
func cornerObjects(n int, seed int64) []pagestore.Object {
	rng := rand.New(rand.NewSource(seed))
	corner := func() geom.Vec3 {
		return geom.V(float64(rng.Intn(2)), float64(rng.Intn(2)), float64(rng.Intn(2)))
	}
	objs := make([]pagestore.Object, n)
	for i := range objs {
		objs[i] = pagestore.Object{Seg: geom.Seg(corner(), corner()), Radius: rng.Float64()}
	}
	return objs
}

// TestSTROrderMatchesSortSlice: STROrder returns the sort.Slice oracle's
// order exactly, ties included, on the four dataset kinds, on centroids full
// of exact duplicates (below and above the sort's parallel cutoff), on a
// clustered store (IDs are not slice positions), and at every size around
// one page, whatever GOMAXPROCS is.
func TestSTROrderMatchesSortSlice(t *testing.T) {
	type input struct {
		name    string
		store   *pagestore.Store
		perPage int
	}
	var inputs []input
	for _, ds := range []*dataset.Dataset{
		dataset.GenerateNeuro(dataset.SmallNeuroConfig()),
		dataset.GenerateArtery(dataset.SmallArteryConfig()),
		dataset.GenerateLung(dataset.SmallLungConfig()),
		dataset.GenerateRoad(dataset.SmallRoadConfig()),
	} {
		inputs = append(inputs, input{ds.Name, pagestore.NewStore(ds.Objects), pagestore.DefaultObjectsPerPage})
	}
	// The small store's sorts all stay below parallelCutoff; the large
	// one's x-sort spawns, and its goroutines meet ties too.
	inputs = append(inputs,
		input{"duplicates", pagestore.NewStore(cornerObjects(20_000, 1)), pagestore.DefaultObjectsPerPage},
		input{"duplicates-150k", pagestore.NewStore(cornerObjects(150_000, 2)), pagestore.DefaultObjectsPerPage})
	clustered := pagestore.NewStore(uniformObjects(5000, 100, 12))
	if _, err := BulkLoad(clustered, Config{}); err != nil {
		t.Fatal(err)
	}
	inputs = append(inputs, input{"clustered", clustered, 87})
	for _, perPage := range []int{1, 7, 64, 87} {
		for _, n := range []int{0, 1, perPage - 1, perPage, perPage + 1} {
			name := fmt.Sprintf("perPage=%d/n=%d", perPage, n)
			inputs = append(inputs, input{name, pagestore.NewStore(cornerObjects(n, int64(n))), perPage})
		}
	}

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, in := range inputs {
		objs := make([]pagestore.Object, in.store.NumObjects())
		for id := range objs {
			objs[id] = in.store.Object(pagestore.ObjectID(id))
		}
		want := strOrderSortSlice(objs, in.perPage)
		for _, procs := range []int{1, 4} {
			runtime.GOMAXPROCS(procs)
			got := STROrder(in.store, in.perPage)
			if !slices.Equal(got, want) {
				t.Errorf("%s, GOMAXPROCS %d: orders of %d and %d IDs differ from slot %d on", in.name, procs, len(got), len(want), firstDiff(got, want))
			}
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
