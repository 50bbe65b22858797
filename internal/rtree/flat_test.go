package rtree

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"scout/internal/geom"
	"scout/internal/pagestore"
)

// pointerNode is the reference pointer-chased R-tree node the flat layout
// replaced. The test rebuilds it with the exact packing rule of Build (STR
// runs of Fanout consecutive children) and cross-checks query results, so
// any drift in the implicit child addressing shows up as a set difference.
type pointerNode struct {
	mbr      geom.AABB
	children []*pointerNode
	page     pagestore.PageID
}

// buildPointerTree packs an already-paginated store into a pointer tree.
func buildPointerTree(store *pagestore.Store, fanout int) *pointerNode {
	level := make([]*pointerNode, store.NumPages())
	for p := 0; p < store.NumPages(); p++ {
		level[p] = &pointerNode{
			mbr:  store.PageBounds(pagestore.PageID(p)),
			page: pagestore.PageID(p),
		}
	}
	for len(level) > 1 {
		var parents []*pointerNode
		for start := 0; start < len(level); start += fanout {
			end := min(start+fanout, len(level))
			mbr := geom.EmptyAABB()
			for _, c := range level[start:end] {
				mbr = mbr.Union(c.mbr)
			}
			parents = append(parents, &pointerNode{mbr: mbr, children: level[start:end]})
		}
		level = parents
	}
	if len(level) == 0 {
		return nil
	}
	return level[0]
}

func (n *pointerNode) queryPages(r geom.Region, rb geom.AABB, dst []pagestore.PageID) []pagestore.PageID {
	if !n.mbr.Intersects(rb) || !passesPlanes(r, n.mbr) {
		return dst
	}
	if n.children == nil {
		return append(dst, n.page)
	}
	for _, c := range n.children {
		dst = c.queryPages(r, rb, dst)
	}
	return dst
}

// queryPagesStack reproduces the seed's traversal verbatim — an explicit
// node stack allocated per query — so benchmarks can compare the old hot
// path against the flat layout.
func (n *pointerNode) queryPagesStack(r geom.Region, dst []pagestore.PageID) []pagestore.PageID {
	if n == nil {
		return dst
	}
	rb := r.Bounds()
	stack := make([]*pointerNode, 0, n.height()*87)
	stack = append(stack, n)
	for len(stack) > 0 {
		nd := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if !nd.mbr.Intersects(rb) || !passesPlanes(r, nd.mbr) {
			continue
		}
		if nd.children == nil {
			dst = append(dst, nd.page)
			continue
		}
		for _, c := range nd.children {
			stack = append(stack, c)
		}
	}
	return dst
}

func (n *pointerNode) height() int {
	h := 1
	for c := n; c.children != nil; c = c.children[0] {
		h++
	}
	return h
}

func sortedPages(ps []pagestore.PageID) []pagestore.PageID {
	out := append([]pagestore.PageID(nil), ps...)
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	return out
}

// TestFlatMatchesPointerTree verifies the tentpole refactor: the implicit
// SoA tree must return exactly the page set of the equivalent pointer tree
// on random box and frustum regions, across awkward fanouts (partial last
// parents at every level).
func TestFlatMatchesPointerTree(t *testing.T) {
	for _, tc := range []struct {
		name            string
		objects         int
		perPage, fanout int
	}{
		{"default", 5000, 87, 87},
		{"tinyFanout", 3000, 20, 3},
		{"partialRuns", 2777, 13, 5},
		{"singleLevel", 50, 87, 87},
	} {
		t.Run(tc.name, func(t *testing.T) {
			store := pagestore.NewStore(uniformObjects(tc.objects, 100, 17))
			tree, err := BulkLoad(store, Config{ObjectsPerPage: tc.perPage, Fanout: tc.fanout})
			if err != nil {
				t.Fatal(err)
			}
			ref := buildPointerTree(store, tc.fanout)
			rng := rand.New(rand.NewSource(23))
			for trial := 0; trial < 200; trial++ {
				c := geom.V(rng.Float64()*110-5, rng.Float64()*110-5, rng.Float64()*110-5)
				var q geom.Region = geom.CubeAt(c, 100+rng.Float64()*80000)
				if trial%4 == 3 {
					q = geom.NewFrustum(c, geom.V(1, 0, 0), geom.V(0, 0, 1),
						math.Pi/3, 1.3, 1, 5+rng.Float64()*40)
				}
				got := sortedPages(tree.QueryPages(q, nil))
				want := sortedPages(ref.queryPages(q, q.Bounds(), nil))
				if len(got) != len(want) {
					t.Fatalf("trial %d: flat returned %d pages, pointer %d", trial, len(got), len(want))
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("trial %d: page sets differ at %d: %d vs %d", trial, i, got[i], want[i])
					}
				}
			}
		})
	}
}

// TestQueryPagesAscendingOrder pins prefetch.Index's contract on the tree:
// for every region kind, pages come out in strictly ascending ID order, which
// the disk model rewards with sequential-run discounts.
func TestQueryPagesAscendingOrder(t *testing.T) {
	store := pagestore.NewStore(uniformObjects(4000, 100, 19))
	tree, err := BulkLoad(store, Config{ObjectsPerPage: 30, Fanout: 6})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 50; trial++ {
		c, vol := geom.V(rng.Float64()*100, rng.Float64()*100, rng.Float64()*100), 1000+rng.Float64()*50000
		var q geom.Region = geom.CubeAt(c, vol)
		switch trial % 3 {
		case 1:
			q = geom.FrustumWithVolume(c, geom.V(1, 0, 0), geom.V(0, 0, 1), 1.0, 1.3, vol)
		case 2:
			q = &geom.AABB{Min: c, Max: c.Add(geom.V(30, 30, 30))}
		}
		pages := tree.QueryPages(q, nil)
		for i := 1; i < len(pages); i++ {
			if pages[i] <= pages[i-1] {
				t.Fatalf("trial %d: pages out of order: %v", trial, pages)
			}
		}
	}
}

// queryRecursive is the recursive descent the level-order sweep replaced,
// kept as its oracle: one call per node, AABB.Intersects (with its emptiness
// checks) and then a frustum's plane test. It returns the grown page list
// and the number of nodes it inspected.
func (t *Tree) queryRecursive(r geom.Region, rb geom.AABB, level, node int, dst []pagestore.PageID) ([]pagestore.PageID, int64) {
	visited := int64(1)
	mbr := t.levels[level][node]
	if !mbr.Intersects(rb) || !passesPlanes(r, mbr) {
		return dst, visited
	}
	if level == t.height-1 {
		return append(dst, pagestore.PageID(node)), visited
	}
	child := t.levels[level+1]
	lo := node * t.fanout
	hi := min(lo+t.fanout, len(child))
	for c := lo; c < hi; c++ {
		var sub int64
		dst, sub = t.queryRecursive(r, rb, level+1, c, dst)
		visited += sub
	}
	return dst, visited
}

// passesPlanes is the part of a region's test beyond its bounds box: a
// frustum's plane test, and nothing for any other region, which the kernels
// read as its bounds box.
func passesPlanes(r geom.Region, b geom.AABB) bool {
	if f, ok := r.(geom.Frustum); ok {
		return f.Overlaps(&b)
	}
	return true
}

func randUnit(rng *rand.Rand) geom.Vec3 {
	for {
		if v := geom.V(rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()); v.Len() > 1e-6 {
			return v.Normalize()
		}
	}
}

// checkSweep runs one region through the kernel and the recursion and
// requires the same pages in the same order and the same visited count.
func checkSweep(t *testing.T, tree *Tree, what string, r geom.Region) int {
	t.Helper()
	tree.ResetNodesVisited()
	got := tree.QueryPages(r, nil)
	gotVisited := tree.NodesVisited()
	want, wantVisited := tree.queryRecursive(r, r.Bounds(), 0, 0, nil)
	if gotVisited != wantVisited {
		t.Fatalf("%s %v: sweep inspected %d nodes, recursion %d", what, r, gotVisited, wantVisited)
	}
	if len(got) != len(want) {
		t.Fatalf("%s %v: sweep returned %d pages, recursion %d", what, r, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s %v: page %d is %d, recursion has %d", what, r, i, got[i], want[i])
		}
	}
	return len(got)
}

// TestSweepMatchesRecursion is the probe kernel's differential test. Over
// every fanout x page-size shape — from a binary tree 14 levels deep, whose
// frontier outgrows the stack buffers, to a two-level default tree — boxes,
// frusta and balls go through the kernel and the recursion it replaced:
// random ones of all sizes, and the degenerate ones the kernel's hoisted
// emptiness check and plain compares have to get right.
func TestSweepMatchesRecursion(t *testing.T) {
	const n, side = 5200, 100.0
	nan, inf := math.NaN(), math.Inf(1)
	world := geom.AABB{Min: geom.V(-1e9, -1e9, -1e9), Max: geom.V(1e9, 1e9, 1e9)}
	for _, fanout := range []int{2, 3, 8, 64} {
		for _, perPage := range []int{1, 7, 64} {
			store := pagestore.NewStore(uniformObjects(n, side, int64(fanout*100+perPage)))
			tree, err := BulkLoad(store, Config{ObjectsPerPage: perPage, Fanout: fanout})
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(int64(fanout + perPage)))
			point := func() geom.Vec3 {
				return geom.V(rng.Float64()*110-5, rng.Float64()*110-5, rng.Float64()*110-5)
			}
			pages := 0
			for trial := 0; trial < 40; trial++ {
				c, vol := point(), math.Pow(10, 1+5*rng.Float64())
				pages += checkSweep(t, tree, "box", geom.CubeAt(c, vol))
				dir, up := randUnit(rng), geom.V(0, 0, 1)
				if math.Abs(dir.Z) > 0.9 {
					up = geom.V(1, 0, 0)
				}
				pages += checkSweep(t, tree, "frustum", geom.FrustumWithVolume(c, dir, up, 0.4+rng.Float64(), 0.7+rng.Float64(), vol))
				box := geom.CubeAt(c, vol/8)
				pages += checkSweep(t, tree, "box by pointer", &box)
			}
			if pages == 0 {
				t.Fatal("no random region returned a page; the test exercises nothing")
			}

			// World-covering regions return every page (and, at fanout 2
			// over 5200 pages, push 2600 nodes through the frontier).
			all := store.NumPages()
			for what, r := range map[string]geom.Region{
				"world box":            world,
				"infinite box":         geom.AABB{Min: geom.V(-inf, -inf, -inf), Max: geom.V(inf, inf, inf)},
				"world box by pointer": &world,
				"world frustum":        geom.NewFrustum(geom.V(-1e4, 50, 50), geom.V(1, 0, 0), geom.V(0, 0, 1), 1, 1, 1, 1e5),
			} {
				if got := checkSweep(t, tree, what, r); got != all {
					t.Fatalf("%s returned %d of %d pages", what, got, all)
				}
			}

			// Empty, inverted and NaN-cornered regions return nothing and
			// inspect the root alone.
			for what, r := range map[string]geom.Region{
				"empty box":            geom.EmptyAABB(),
				"inverted box":         geom.AABB{Min: geom.V(60, 10, 10), Max: geom.V(40, 90, 90)},
				"NaN min corner":       geom.AABB{Min: geom.V(nan, 0, 0), Max: geom.V(100, 100, 100)},
				"NaN max corner":       geom.AABB{Min: geom.V(0, 0, 0), Max: geom.V(100, nan, 100)},
				"all-NaN box":          geom.AABB{Min: geom.V(nan, nan, nan), Max: geom.V(nan, nan, nan)},
				"empty box by pointer": &geom.AABB{Min: geom.V(50, 50, 50), Max: geom.V(47, 47, 47)},
				"NaN box by pointer":   &geom.AABB{Min: geom.V(nan, 47, 47), Max: geom.V(53, 53, 53)},
				"far frustum":          geom.NewFrustum(geom.V(1e4, 1e4, 1e4), geom.V(1, 0, 0), geom.V(0, 0, 1), 1, 1, 1, 10),
			} {
				if got := checkSweep(t, tree, what, r); got != 0 {
					t.Fatalf("%s returned %d pages", what, got)
				}
				if v := tree.NodesVisited(); v != 1 {
					t.Fatalf("%s inspected %d nodes, want the root alone", what, v)
				}
			}

			// Point regions, on an object and in empty space.
			for trial := 0; trial < 20; trial++ {
				on := store.Object(pagestore.ObjectID(rng.Intn(n))).Seg.A
				if checkSweep(t, tree, "point box", geom.AABB{Min: on, Max: on}) == 0 {
					t.Fatalf("point box on an object endpoint %v found no page", on)
				}
				checkSweep(t, tree, "point box by pointer", &geom.AABB{Min: on, Max: on})
				off := point()
				checkSweep(t, tree, "point box", geom.AABB{Min: off, Max: off})
			}

			// Regions that touch a node MBR face exactly (touching counts),
			// and that miss it by one float, at every level of the tree.
			for level := 0; level < tree.Height(); level++ {
				m := tree.levels[level][rng.Intn(len(tree.levels[level]))]
				for axis := 0; axis < 3; axis++ {
					for _, gap := range []float64{m.Max.Component(axis), math.Nextafter(m.Max.Component(axis), inf)} {
						lo, hi := m.Min, m.Max.Add(geom.V(5, 5, 5))
						switch axis {
						case 0:
							lo.X = gap
						case 1:
							lo.Y = gap
						default:
							lo.Z = gap
						}
						touching := geom.AABB{Min: lo, Max: hi}
						got := checkSweep(t, tree, "touching box", touching)
						if gap == m.Max.Component(axis) && got == 0 {
							t.Fatalf("level %d: box %v touches node MBR %v but found no page", level, touching, m)
						}
					}
				}
			}
		}
	}
}

// TestQueryPagesNoAllocs verifies the hot path stays allocation-free once
// the caller's destination slice has capacity, for each way a region
// reaches the kernel.
func TestQueryPagesNoAllocs(t *testing.T) {
	store := pagestore.NewStore(uniformObjects(50_000, 200, 31))
	tree, err := BulkLoad(store, Config{})
	if err != nil {
		t.Fatal(err)
	}
	// The regions are boxed into the interface once: demand regions reach
	// the index as geom.Region already, and a prefetch request's box reaches
	// it by pointer into the plan, which converts without allocating.
	at := geom.V(100, 100, 100)
	ladderBox := geom.CubeAt(at, 50_000)
	for name, q := range map[string]geom.Region{
		"box":            geom.CubeAt(at, 50_000),
		"frustum":        geom.FrustumWithVolume(at, geom.V(1, 0, 0), geom.V(0, 0, 1), 1.0, 1.3, 50_000),
		"box by pointer": &ladderBox,
	} {
		buf := tree.QueryPages(q, nil) // warm the buffer
		if len(buf) == 0 {
			t.Fatalf("%s: region returns no page", name)
		}
		allocs := testing.AllocsPerRun(100, func() {
			buf = tree.QueryPages(q, buf[:0])
		})
		if allocs != 0 {
			t.Errorf("%s: QueryPages allocates %.1f times per query, want 0", name, allocs)
		}
	}
}
