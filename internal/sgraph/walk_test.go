package sgraph

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"scout/internal/geom"
	"scout/internal/pagestore"
)

// keyCoords unpacks a packed world key into cell coordinates (the inverse
// of latticeKey).
func keyCoords(key uint64) (i, j, k int32) {
	const mask = 1<<latticeShift - 1
	i = int32(key>>(2*latticeShift)&mask) - latticeBias
	j = int32(key>>latticeShift&mask) - latticeBias
	k = int32(key&mask) - latticeBias
	return
}

// walkSegments returns random, clipped and face-touching segments for a
// lattice: interior segments, segments that leave the clip region, segments
// lying on cell faces, and segments ending exactly on the clip boundary.
func walkSegments(rng *rand.Rand, l *lattice, n int) []geom.Segment {
	lo, hi := l.clip.Min, l.clip.Max
	size := l.clip.Size()
	in := func() geom.Vec3 {
		return geom.V(lo.X+rng.Float64()*size.X, lo.Y+rng.Float64()*size.Y, lo.Z+rng.Float64()*size.Z)
	}
	out := func() geom.Vec3 { // up to half a side beyond the region
		return geom.V(lo.X+(rng.Float64()*2-0.5)*size.X, lo.Y+(rng.Float64()*2-0.5)*size.Y, lo.Z+(rng.Float64()*2-0.5)*size.Z)
	}
	onFace := func(p geom.Vec3) geom.Vec3 { // snap one coordinate to a cell boundary
		switch rng.Intn(3) {
		case 0:
			p.X = math.Floor(p.X/l.cell.X) * l.cell.X
		case 1:
			p.Y = math.Floor(p.Y/l.cell.Y) * l.cell.Y
		default:
			p.Z = math.Floor(p.Z/l.cell.Z) * l.cell.Z
		}
		return p
	}
	var segs []geom.Segment
	for len(segs) < n {
		switch rng.Intn(5) {
		case 0: // short interior segment, the common result object
			a := in()
			segs = append(segs, geom.Seg(a, a.Add(geom.V(rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()).Scale(l.cell.X))))
		case 1: // long segment leaving the region: clipped
			segs = append(segs, geom.Seg(in(), out()))
		case 2: // both ends outside
			segs = append(segs, geom.Seg(out(), out()))
		case 3: // on a cell face: both ends share the snapped coordinate
			a := onFace(in())
			b := a
			switch {
			case a.X == math.Floor(a.X/l.cell.X)*l.cell.X:
				b.Y, b.Z = b.Y+rng.Float64()*3*l.cell.Y, b.Z-rng.Float64()*3*l.cell.Z
			case a.Y == math.Floor(a.Y/l.cell.Y)*l.cell.Y:
				b.X, b.Z = b.X+rng.Float64()*3*l.cell.X, b.Z+rng.Float64()*3*l.cell.Z
			default:
				b.X, b.Y = b.X-rng.Float64()*3*l.cell.X, b.Y+rng.Float64()*3*l.cell.Y
			}
			segs = append(segs, geom.Seg(a, b))
		default: // ending exactly on the clip boundary
			b := in()
			if rng.Intn(2) == 0 {
				b.X = hi.X
			} else {
				b.Z = lo.Z
			}
			segs = append(segs, geom.Seg(in(), b))
		}
	}
	return segs
}

// TestSegmentCellsIndexModes pins the walk's two index modes to each other:
// the dense slots it emits are exactly its world keys mapped into the
// window, cell for cell, on fresh windows and on grown (migrated) ones. The
// walk itself stays a walk: in-window cells, each once, each a face
// neighbour of the one before.
func TestSegmentCellsIndexModes(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	for trial := 0; trial < 60; trial++ {
		res := []int{8, 64, 512, 32768}[trial%4]
		min := geom.V(rng.Float64()*200-100, rng.Float64()*200-100, rng.Float64()*200-100)
		bounds := geom.Box(min, min.Add(geom.V(5+rng.Float64()*40, 5+rng.Float64()*40, 5+rng.Float64()*40)))
		l := makeLattice(bounds, res)
		if trial%2 == 1 { // a grown window: what a migrated directory walks
			l.grow(bounds.Translate(geom.V(rng.Float64()*30-15, rng.Float64()*30-15, rng.Float64()*30-15)))
		}
		for si, s := range walkSegments(rng, &l, 80) {
			allInside := l.strictlyContains(s.A) && l.strictlyContains(s.B)
			keys := l.segmentCells(s, nil, allInside, false)
			slots := l.segmentCells(s, nil, allInside, true)
			if len(keys) != len(slots) {
				t.Fatalf("trial %d seg %d: %d keys but %d slots", trial, si, len(keys), len(slots))
			}
			seen := map[uint64]bool{}
			var pi, pj, pk int32
			for n, key := range keys {
				i, j, k := keyCoords(key)
				if i < l.lo[0] || i >= l.hi[0] || j < l.lo[1] || j >= l.hi[1] || k < l.lo[2] || k >= l.hi[2] {
					t.Fatalf("trial %d seg %d: cell (%d,%d,%d) outside the window %v..%v", trial, si, i, j, k, l.lo, l.hi)
				}
				if want := uint64(l.denseIndex(i, j, k)); slots[n] != want {
					t.Fatalf("trial %d seg %d cell %d: slot %d, want %d (key %#x)", trial, si, n, slots[n], want, key)
				}
				if back := l.denseKey(int(slots[n])); back != key {
					t.Fatalf("trial %d seg %d cell %d: slot %d maps back to %#x, want %#x", trial, si, n, slots[n], back, key)
				}
				if seen[key] {
					t.Fatalf("trial %d seg %d: cell %#x emitted twice", trial, si, key)
				}
				seen[key] = true
				if n > 0 {
					d := abs32(i-pi) + abs32(j-pj) + abs32(k-pk)
					if d != 1 {
						t.Fatalf("trial %d seg %d cell %d: step of %d cells", trial, si, n, d)
					}
				}
				pi, pj, pk = i, j, k
			}
		}
	}
}

func abs32(x int32) int32 {
	if x < 0 {
		return -x
	}
	return x
}

// chainHolds reports whether the chain headed at head lists v.
func chainHolds(g *Graph, head, v int32) bool {
	for e := head; e >= 0; e = g.ents[e].next {
		if g.ents[e].vert == v {
			return true
		}
	}
	return false
}

// TestDirectoryHoldsEveryWalk checks the directory against the walk in
// both modes: after a build (dense slots) and after window growth has
// migrated the directory (world keys), every live vertex is chained into
// every cell its walk emits.
func TestDirectoryHoldsEveryWalk(t *testing.T) {
	store, _, _ := benchWorld(800)
	region := geom.Box(geom.V(4, 4, 4), geom.V(24, 24, 24))
	for _, res := range []int{64, 32768} {
		g := buildGraph(store, region, res, boxResult(store, region))
		check := func(stage string) {
			g.ForEachLive(func(v int32, _ pagestore.ObjectID) {
				s := g.ObjectOf(v).Seg
				allInside := g.lat.strictlyContains(s.A) && g.lat.strictlyContains(s.B)
				for _, c := range g.lat.segmentCells(s, nil, allInside, g.denseCells) {
					head := int32(-1)
					if g.denseCells {
						if g.cellSlots[c].gen == g.cellEpoch {
							head = g.cellSlots[c].head
						}
					} else if h, ok := g.cellMap64.Get(c); ok {
						head = h
					}
					if !chainHolds(g, head, v) {
						t.Fatalf("res %d %s: vertex %d missing from cell %#x", res, stage, v, c)
					}
				}
			})
		}
		if !g.denseCells {
			t.Fatalf("res %d: fresh build not in dense mode", res)
		}
		check("dense")
		next := region.Translate(geom.V(3, -2, 5))
		g.Advance(next, res, nil, boxResultMissing(g, store, next))
		if g.denseCells {
			t.Fatalf("res %d: growth did not migrate the directory", res)
		}
		if len(g.touchedCells) != g.cellsTouched {
			t.Fatalf("res %d: %d listed cells, %d touched", res, len(g.touchedCells), g.cellsTouched)
		}
		check("migrated")
	}
}

// boxResultMissing returns the objects intersecting region that are not yet
// live vertices of g.
func boxResultMissing(g *Graph, store *pagestore.Store, region geom.AABB) []pagestore.ObjectID {
	var out []pagestore.ObjectID
	for _, id := range boxResult(store, region) {
		if !g.Contains(id) {
			out = append(out, id)
		}
	}
	return out
}

// chainWorld is benchWorld's tortuous chains packed into a smaller cube,
// so coarse grids put hundreds of objects in one cell.
func chainWorld(n int, side float64) *pagestore.Store {
	rng := rand.New(rand.NewSource(9))
	var objs []pagestore.Object
	for len(objs) < n {
		pos := geom.V(rng.Float64()*side, rng.Float64()*side, rng.Float64()*side)
		dir := geom.V(rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()).Normalize()
		for s := 0; s < 20 && len(objs) < n; s++ {
			next := pos.Add(dir.Scale(1.5))
			objs = append(objs, pagestore.Object{Seg: geom.Seg(pos, next), Radius: 0.3})
			pos = next
		}
	}
	return pagestore.NewStore(objs)
}

// bfsComponents labels every live vertex with its component over the
// adjacency lists (the oracle): label[v] is the smallest vertex of v's
// component, −1 for dead slots.
func bfsComponents(g *Graph) []int32 {
	label := make([]int32, len(g.ids))
	for v := range label {
		label[v] = -1
	}
	for s := int32(0); s < int32(len(g.ids)); s++ {
		if g.dead[s] || label[s] >= 0 {
			continue
		}
		label[s] = s
		queue := []int32{s}
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			for _, w := range g.adj[v] {
				if label[w] < 0 {
					label[w] = s
					queue = append(queue, w)
				}
			}
		}
	}
	return label
}

// checkConnectivity compares every connectivity query with the BFS oracle:
// pairwise roots, MarkComponents/InMarkedComponent, CountComponentsOf and
// Components. The first query runs with union-find as the build left it
// (dirty or not).
func checkConnectivity(t *testing.T, g *Graph, rng *rand.Rand, stage string) {
	t.Helper()
	label := bfsComponents(g)
	var live []int32
	g.ForEachLive(func(v int32, _ pagestore.ObjectID) { live = append(live, v) })
	if len(live) == 0 {
		return
	}
	pick := func(n int) []int32 {
		out := make([]int32, n)
		for i := range out {
			out[i] = live[rng.Intn(len(live))]
		}
		return out
	}

	marked := pick(1 + rng.Intn(4))
	g.MarkComponents(marked)
	want := map[int32]bool{}
	for _, m := range marked {
		want[label[m]] = true
	}
	for _, v := range live {
		if got := g.InMarkedComponent(v); got != want[label[v]] {
			t.Fatalf("%s: InMarkedComponent(%d) = %v, BFS says %v", stage, v, got, want[label[v]])
		}
	}

	for _, pair := range [][2][]int32{{pick(40), pick(40)}} {
		for i := range pair[0] {
			a, b := pair[0][i], pair[1][i]
			if got := g.find(a) == g.find(b); got != (label[a] == label[b]) {
				t.Fatalf("%s: connected(%d, %d) = %v, BFS says %v", stage, a, b, got, !got)
			}
		}
	}

	verts := pick(1 + rng.Intn(30))
	distinct := map[int32]bool{}
	for _, v := range verts {
		distinct[label[v]] = true
	}
	if got := g.CountComponentsOf(verts); got != len(distinct) {
		t.Fatalf("%s: CountComponentsOf = %d, BFS says %d", stage, got, len(distinct))
	}

	comps := g.Components()
	seen := 0
	for _, comp := range comps {
		for _, v := range comp {
			if label[v] != label[comp[0]] {
				t.Fatalf("%s: Components joins %d and %d, BFS separates them", stage, comp[0], v)
			}
		}
		seen += len(comp)
	}
	roots := map[int32]bool{}
	for _, v := range live {
		roots[label[v]] = true
	}
	if len(comps) != len(roots) || seen != len(live) {
		t.Fatalf("%s: Components has %d components over %d vertices, BFS %d over %d",
			stage, len(comps), seen, len(roots), len(live))
	}
}

// TestConnectivityMatchesBFS drives random lifecycles — Reset, AddObject,
// Advance, AdvanceWithin, window growth and compaction — and checks every
// connectivity query against a BFS over the adjacency lists after each
// step. At resolutions 8 and 64 one cell holds hundreds of objects; at
// 32768 cells hold a few.
func TestConnectivityMatchesBFS(t *testing.T) {
	store := chainWorld(12000, 24)
	for _, res := range []int{8, 64, 32768} {
		t.Run(fmt.Sprintf("res%d", res), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(res) + 7))
			region := geom.Box(geom.V(3, 3, 3), geom.V(21, 21, 21))
			g := New(store, region, res)
			rebuild := func() {
				g.Reset(region, res)
				for _, id := range boxResult(store, region) {
					if rng.Intn(4) != 0 {
						g.AddObject(id)
					}
				}
			}
			rebuild()
			checkConnectivity(t, g, rng, "build")
			compactions, biggest := 0, 0
			for step := 0; step < 40; step++ {
				stage := fmt.Sprintf("step %d", step)
				switch op := rng.Intn(10); {
				case op == 0:
					rebuild()
					stage += " reset"
				case op <= 6: // drift: some objects leave, some enter (and resurrect)
					next := region.Translate(geom.V(rng.Float64()*6-3, rng.Float64()*6-3, rng.Float64()*6-3))
					if !g.CanAdvance(next, res) {
						t.Fatalf("%s: cannot advance", stage)
					}
					var removed []pagestore.ObjectID
					g.ForEachLive(func(_ int32, id pagestore.ObjectID) {
						if !store.Object(id).IntersectsBox(next) || rng.Intn(6) == 0 {
							removed = append(removed, id)
						}
					})
					dead := g.deadCount
					g.Advance(next, res, removed, boxResultMissing(g, store, next))
					if g.deadCount < dead {
						compactions++
					}
					region = next
					stage += " advance"
				case op <= 8: // corridor: keep what intersects the new box
					next := region.Translate(geom.V(rng.Float64()*4-2, rng.Float64()*4-2, rng.Float64()*4-2))
					if !g.AdvanceWithin(next, res) {
						t.Fatalf("%s: cannot advance within", stage)
					}
					for _, id := range boxResult(store, next) {
						if rng.Intn(2) == 0 {
							g.AddObject(id)
						}
					}
					region = next
					stage += " within"
				default: // add more of the current region
					for _, id := range boxResult(store, region) {
						if rng.Intn(3) == 0 {
							g.AddObject(id)
						}
					}
					stage += " add"
				}
				checkConnectivity(t, g, rng, stage)
				biggest = max(biggest, maxOccupancy(g))
			}
			if compactions == 0 {
				t.Error("no step compacted the arena")
			}
			t.Logf("fullest cell: %d objects", biggest)
			if want := map[int]int{8: 200, 64: 50}[res]; biggest < want {
				t.Errorf("fullest cell held %d objects, want at least %d", biggest, want)
			}
		})
	}
}

// maxOccupancy returns the most live occupants any directory cell holds.
func maxOccupancy(g *Graph) int {
	most := 0
	for _, c := range g.touchedCells {
		head := int32(-1)
		if g.denseCells {
			head = g.cellSlots[c].head
		} else if h, ok := g.cellMap64.Get(c); ok {
			head = h
		}
		n := 0
		for e := head; e >= 0; e = g.ents[e].next {
			if !g.dead[g.ents[e].vert] {
				n++
			}
		}
		most = max(most, n)
	}
	return most
}

// TestMarkComponentsWhileDirty checks root stamps against pairwise
// connectivity right after kills left union-find stale: MarkComponents must
// rebuild it before stamping, and agree with the BFS oracle.
func TestMarkComponentsWhileDirty(t *testing.T) {
	store, chains := chainStore(4, 12, 5)
	bounds := geom.Box(geom.V(-1, -1, -1), geom.V(13, 16, 16))
	g := buildGraph(store, bounds, 32768, allIDs(store))
	// Cut chain 0 in the middle and chain 2 at its start.
	g.Advance(bounds, 32768, []pagestore.ObjectID{chains[0][6], chains[2][1]}, nil)
	if !g.ufDirty {
		t.Fatal("kills with edges left union-find clean")
	}
	head, tail := g.VertexOf(chains[0][0]), g.VertexOf(chains[0][11])
	g.MarkComponents([]int32{head})
	if g.ufDirty {
		t.Fatal("MarkComponents left union-find dirty")
	}
	if g.InMarkedComponent(tail) {
		t.Error("the cut chain's far half is still marked")
	}
	label := bfsComponents(g)
	g.ForEachLive(func(v int32, _ pagestore.ObjectID) {
		if got, want := g.InMarkedComponent(v), label[v] == label[head]; got != want {
			t.Errorf("vertex %d: marked %v, BFS says %v", v, got, want)
		}
	})

	// Dirty again, then stamp several components at once.
	g.Advance(bounds, 32768, []pagestore.ObjectID{chains[1][5]}, nil)
	marks := []int32{tail, g.VertexOf(chains[1][0]), g.VertexOf(chains[3][4])}
	g.MarkComponents(marks)
	label = bfsComponents(g)
	g.ForEachLive(func(v int32, _ pagestore.ObjectID) {
		want := false
		for _, m := range marks {
			want = want || g.find(m) == g.find(v)
		}
		if got := g.InMarkedComponent(v); got != want || want != (label[v] == label[marks[0]] || label[v] == label[marks[1]] || label[v] == label[marks[2]]) {
			t.Errorf("vertex %d: marked %v, pairwise %v", v, got, want)
		}
	})
	g.MarkComponents(nil)
	if g.InMarkedComponent(tail) {
		t.Error("an empty mark set still marks")
	}

	// A change between the two calls must fail loudly: a link can re-root a
	// stamped component under an unstamped one, and another traversal
	// overwrites the stamps.
	for name, change := range map[string]func(){
		"link":      func() { g.Advance(bounds, 32768, nil, []pagestore.ObjectID{chains[0][6]}) },
		"traversal": func() { g.CountComponentsOf(marks) },
	} {
		g.MarkComponents(marks)
		change()
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s after MarkComponents: InMarkedComponent did not panic", name)
				}
			}()
			g.InMarkedComponent(tail)
		}()
	}
}
