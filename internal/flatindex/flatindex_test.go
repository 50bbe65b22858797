package flatindex

import (
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"scout/internal/geom"
	"scout/internal/pagestore"
	"scout/internal/rtree"
)

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

func buildIndex(t *testing.T, n int, side float64, seed int64) (*Index, *pagestore.Store) {
	t.Helper()
	store := pagestore.NewStore(uniformObjects(n, side, seed))
	cfg := rtree.Config{ObjectsPerPage: 50}
	order := rtree.STROrder(store, cfg.ObjectsPerPage)
	if err := store.Paginate(order, cfg.ObjectsPerPage); err != nil {
		t.Fatal(err)
	}
	idx, err := Build(store, cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	return idx, store
}

// TestBuildIndependentOfGOMAXPROCS: Build splits the pages among GOMAXPROCS
// goroutines, and the neighbour lists must not show how.
func TestBuildIndependentOfGOMAXPROCS(t *testing.T) {
	_, store := buildIndex(t, 3000, 100, 4)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	var lists [][][]pagestore.PageID
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		idx, err := Build(store, rtree.Config{ObjectsPerPage: 50}, 1)
		if err != nil {
			t.Fatal(err)
		}
		lists = append(lists, idx.neighbors)
	}
	if !reflect.DeepEqual(lists[0], lists[1]) {
		t.Fatal("neighbour lists built at GOMAXPROCS 1 and 4 differ")
	}
}

func TestNeighborsSymmetric(t *testing.T) {
	idx, store := buildIndex(t, 2000, 100, 1)
	for p := 0; p < store.NumPages(); p++ {
		pid := pagestore.PageID(p)
		ns := idx.Neighbors(pid)
		for i, q := range ns {
			if q == pid {
				t.Fatalf("page %d is its own neighbor", p)
			}
			if i > 0 && q <= ns[i-1] {
				t.Fatalf("page %d: neighbors out of order: %v", p, ns)
			}
			found := false
			for _, r := range idx.Neighbors(q) {
				if r == pid {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("adjacency asymmetric: %d→%d", pid, q)
			}
		}
	}
}

func TestNeighborsAreIntersecting(t *testing.T) {
	idx, store := buildIndex(t, 2000, 100, 2)
	for p := 0; p < store.NumPages(); p++ {
		pid := pagestore.PageID(p)
		for _, q := range idx.Neighbors(pid) {
			if !store.PageBounds(pid).Intersects(store.PageBounds(q)) {
				t.Fatalf("non-intersecting neighbor %d→%d", pid, q)
			}
		}
	}
}

func TestQueryMatchesRTree(t *testing.T) {
	store := pagestore.NewStore(uniformObjects(3000, 100, 3))
	cfg := rtree.Config{ObjectsPerPage: 50}
	tree, err := rtree.BulkLoad(store, cfg)
	if err != nil {
		t.Fatal(err)
	}
	idx, err := Build(store, cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 50; trial++ {
		c := geom.V(rng.Float64()*100, rng.Float64()*100, rng.Float64()*100)
		q := geom.CubeAt(c, 1000+rng.Float64()*80000)

		want := map[pagestore.PageID]bool{}
		for _, p := range tree.QueryPages(q, nil) {
			want[p] = true
		}

		// Same pages, in the R-tree's ascending order (prefetch.Index's
		// contract), appended behind what dst already holds.
		got := idx.QueryPages(q, []pagestore.PageID{9999})
		if got[0] != 9999 {
			t.Fatalf("trial %d: QueryPages overwrote dst", trial)
		}
		got = got[1:]
		for i := 1; i < len(got); i++ {
			if got[i] <= got[i-1] {
				t.Fatalf("trial %d: pages out of order: %v", trial, got)
			}
		}
		if len(got) != len(want) {
			t.Fatalf("trial %d: flat %d pages, rtree %d", trial, len(got), len(want))
		}
		for _, p := range got {
			if !want[p] {
				t.Fatalf("trial %d: extra page %d", trial, p)
			}
		}

		// Ordered retrieval returns the identical set.
		ordered := idx.QueryPagesFrom(q, c)
		if len(ordered) != len(want) {
			t.Fatalf("trial %d: ordered %d pages, want %d", trial, len(ordered), len(want))
		}
		seen := map[pagestore.PageID]bool{}
		for _, p := range ordered {
			if seen[p] {
				t.Fatalf("trial %d: duplicate page %d in ordered result", trial, p)
			}
			seen[p] = true
			if !want[p] {
				t.Fatalf("trial %d: ordered extra page %d", trial, p)
			}
		}
	}
}

func TestQueryPagesFromStartsNearPoint(t *testing.T) {
	idx, store := buildIndex(t, 3000, 100, 5)
	q := geom.CubeAt(geom.V(50, 50, 50), 125000) // 50 µm sides
	from := geom.V(25, 50, 50)                   // left face
	ordered := idx.QueryPagesFrom(q, from)
	if len(ordered) < 2 {
		t.Skip("query too small to rank")
	}
	first := store.PageBounds(ordered[0]).DistSq(from)
	last := store.PageBounds(ordered[len(ordered)-1]).DistSq(from)
	if first > last {
		t.Errorf("first page (%v) farther than last (%v)", first, last)
	}
}

func TestQueryPagesFromEmpty(t *testing.T) {
	idx, _ := buildIndex(t, 100, 100, 6)
	got := idx.QueryPagesFrom(geom.CubeAt(geom.V(1e6, 1e6, 1e6), 10), geom.V(0, 0, 0))
	if got != nil {
		t.Errorf("expected nil for empty query, got %d pages", len(got))
	}
}

func TestSeedPage(t *testing.T) {
	idx, store := buildIndex(t, 2000, 100, 7)
	// A point inside the data volume must seed to a page containing it (or
	// at least very close).
	p := geom.V(50, 50, 50)
	pid, ok := idx.SeedPage(p)
	if !ok {
		t.Fatal("SeedPage failed")
	}
	if d := math.Sqrt(store.PageBounds(pid).DistSq(p)); d > 20 {
		t.Errorf("seed page %v away from point", d)
	}
	// A point far outside still finds the nearest page.
	far := geom.V(1000, 1000, 1000)
	pid2, ok := idx.SeedPage(far)
	if !ok {
		t.Fatal("SeedPage(far) failed")
	}
	_ = pid2
}

func TestSeedPageEmptyStore(t *testing.T) {
	store := pagestore.NewStore(nil)
	if err := store.Paginate(nil, 10); err != nil {
		t.Fatal(err)
	}
	idx, err := Build(store, rtree.Config{ObjectsPerPage: 10}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := idx.SeedPage(geom.V(0, 0, 0)); ok {
		t.Error("SeedPage succeeded on empty store")
	}
}

func TestEpsilonExpandsNeighborhoods(t *testing.T) {
	// With a large epsilon every page neighbors every other (small store).
	store := pagestore.NewStore(uniformObjects(200, 100, 8))
	cfg := rtree.Config{ObjectsPerPage: 50}
	order := rtree.STROrder(store, cfg.ObjectsPerPage)
	if err := store.Paginate(order, cfg.ObjectsPerPage); err != nil {
		t.Fatal(err)
	}
	tight, err := Build(store, cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	loose, err := Build(store, cfg, 1000)
	if err != nil {
		t.Fatal(err)
	}
	tightCount, looseCount := 0, 0
	for p := 0; p < store.NumPages(); p++ {
		tightCount += len(tight.Neighbors(pagestore.PageID(p)))
		looseCount += len(loose.Neighbors(pagestore.PageID(p)))
	}
	if looseCount < tightCount {
		t.Errorf("epsilon reduced adjacency: tight=%d loose=%d", tightCount, looseCount)
	}
	if looseCount != store.NumPages()*(store.NumPages()-1) {
		t.Errorf("huge epsilon should fully connect: %d edges", looseCount)
	}
}

// TestQueryObjectsMatchesBruteForce: a range query through the index — its
// candidate pages, refined — returns exactly the matching objects.
func TestQueryObjectsMatchesBruteForce(t *testing.T) {
	idx, store := buildIndex(t, 1000, 100, 9)
	q := geom.CubeAt(geom.V(50, 50, 50), 64000)
	got := map[pagestore.ObjectID]bool{}
	for _, id := range store.AppendMatches(nil, q, idx.QueryPages(q, nil)) {
		got[id] = true
	}
	for id := range store.NumObjects() {
		o := store.Object(pagestore.ObjectID(id))
		if want := pagestore.Matches(q, o); want != got[o.ID] {
			t.Fatalf("object %d: got %v want %v", o.ID, got[o.ID], want)
		}
	}
}
