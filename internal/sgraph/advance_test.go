package sgraph

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"scout/internal/geom"
	"scout/internal/pagestore"
)

// canonicalFingerprint serializes everything prediction can observe about a
// graph — live vertex set, edge set, components and boundary crossings — in
// an order independent of vertex numbering, so an advanced arena and a fresh
// build can be compared byte-for-byte.
func canonicalFingerprint(g *Graph, region geom.Region) string {
	var ids []pagestore.ObjectID
	g.ForEachLive(func(_ int32, id pagestore.ObjectID) { ids = append(ids, id) })
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })

	var edges [][2]pagestore.ObjectID
	g.ForEachLive(func(v int32, id pagestore.ObjectID) {
		for _, w := range g.Adj(v) {
			wid := g.ObjectAt(w)
			if id < wid {
				edges = append(edges, [2]pagestore.ObjectID{id, wid})
			}
		}
	})
	sort.Slice(edges, func(i, j int) bool {
		if edges[i][0] != edges[j][0] {
			return edges[i][0] < edges[j][0]
		}
		return edges[i][1] < edges[j][1]
	})

	var comps [][]pagestore.ObjectID
	for _, comp := range g.Components() {
		var c []pagestore.ObjectID
		for _, v := range comp {
			c = append(c, g.ObjectAt(v))
		}
		sort.Slice(c, func(i, j int) bool { return c[i] < c[j] })
		comps = append(comps, c)
	}
	sort.Slice(comps, func(i, j int) bool { return comps[i][0] < comps[j][0] })

	var crossings []string
	for _, c := range g.AppendCrossings(nil, region) {
		crossings = append(crossings, fmt.Sprintf("%d %x %x %x %x %x %x",
			g.ObjectAt(c.Vertex),
			math.Float64bits(c.Point.X), math.Float64bits(c.Point.Y), math.Float64bits(c.Point.Z),
			math.Float64bits(c.Dir.X), math.Float64bits(c.Dir.Y), math.Float64bits(c.Dir.Z)))
	}
	sort.Strings(crossings)

	return fmt.Sprintf("verts=%v\nedges=%v\ncomps=%v\ncross=%v", ids, edges, comps, crossings)
}

// freshOnSameLattice builds a fresh graph over the advanced graph's exact
// (grown) lattice window, which is what Advance must be equivalent to.
func freshOnSameLattice(g *Graph, result []pagestore.ObjectID) *Graph {
	f := &Graph{store: g.store}
	f.resetToLattice(g.lat, g.resolution)
	for _, id := range result {
		f.AddObject(id)
	}
	return f
}

// TestAdvanceEquivalentToFreshBuild is the delta lifecycle's property test:
// random add/remove sequences over seeded result sets, driven through
// Graph.Advance across a drifting query window, must at every step be
// byte-for-byte indistinguishable — vertices, edges, components, boundary
// extraction — from a fresh Build of the same result set on the same
// lattice.
func TestAdvanceEquivalentToFreshBuild(t *testing.T) {
	store, _, _ := benchWorld(1500)
	for _, res := range []int{512, 32768} {
		res := res
		t.Run(fmt.Sprintf("res%d", res), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(31 + res)))
			side := 16.0
			origin := geom.V(2, 2, 2)
			region := geom.Box(origin, origin.Add(geom.V(side, side, side)))

			resultFor := func(region geom.AABB) []pagestore.ObjectID {
				var out []pagestore.ObjectID
				for i := 0; i < store.NumObjects(); i++ {
					id := pagestore.ObjectID(i)
					if store.Object(id).IntersectsBox(region) && rng.Intn(5) != 0 {
						out = append(out, id)
					}
				}
				return out
			}

			result := resultFor(region)
			g := Build(store, region, res, result)
			live := map[pagestore.ObjectID]bool{}
			for _, id := range result {
				live[id] = true
			}

			for round := 0; round < 14; round++ {
				// Drift the window (same exact size → same cell size) in a
				// random direction, occasionally jumping back over old ground
				// so removed objects re-enter and resurrect tombstones.
				step := geom.V(rng.Float64()*8-2, rng.Float64()*8-2, rng.Float64()*8-2)
				region = region.Translate(step)
				result = resultFor(region)

				if !g.CanAdvance(region, res) {
					t.Fatalf("round %d: CanAdvance false for same-size window", round)
				}
				inNew := map[pagestore.ObjectID]bool{}
				for _, id := range result {
					inNew[id] = true
				}
				var removed, added []pagestore.ObjectID
				g.ForEachLive(func(_ int32, id pagestore.ObjectID) {
					if !inNew[id] {
						removed = append(removed, id)
					}
				})
				for _, id := range result {
					if !live[id] {
						added = append(added, id)
					}
				}
				g.Advance(region, res, removed, added)
				live = inNew

				fresh := freshOnSameLattice(g, result)
				if g.NumVertices() != fresh.NumVertices() || g.NumEdges() != fresh.NumEdges() {
					t.Fatalf("round %d: advanced %d/%d vs fresh %d/%d (verts/edges)",
						round, g.NumVertices(), g.NumEdges(), fresh.NumVertices(), fresh.NumEdges())
				}
				got, want := canonicalFingerprint(g, region), canonicalFingerprint(fresh, region)
				if got != want {
					t.Fatalf("round %d: advanced graph differs from fresh build\nadvanced: %s\nfresh:    %s",
						round, got, want)
				}
			}
		})
	}
}

// TestAdvanceFallbacks pins when the delta lifecycle must refuse: resolution
// changes, query-volume changes (different cell size), explicit-adjacency
// mismatch, and windows drifting beyond the packed coordinate range.
func TestAdvanceFallbacks(t *testing.T) {
	store, bounds, ids := benchWorld(200)
	g := Build(store, bounds, 32768, ids[:50])

	if g.CanAdvance(bounds, 4096) {
		t.Error("CanAdvance accepted a resolution change")
	}
	if g.CanAdvance(bounds.ScaledAbout(1.5), 32768) {
		t.Error("CanAdvance accepted a different query volume (cell-size change)")
	}
	if !g.CanAdvance(bounds.Translate(geom.V(5, 0, 0)), 32768) {
		t.Error("CanAdvance refused a translated same-size window")
	}
	far := bounds.Translate(geom.V(3e6*43, 0, 0)) // beyond ±2²⁰ cells
	if g.CanAdvance(far, 32768) {
		t.Error("CanAdvance accepted a window outside the lattice coordinate range")
	}

	ex := New(store, bounds, 0)
	ex.ConnectExplicit(ids[0], ids[1])
	if !ex.CanAdvance(bounds.Translate(geom.V(3, 0, 0)), 0) {
		t.Error("explicit graph refused to advance")
	}
	if ex.CanAdvance(bounds, 32768) {
		t.Error("explicit graph accepted a grid resolution")
	}
}

// TestAdvanceCompaction forces tombstones past the compaction threshold and
// checks the graph stays equivalent to a fresh build afterwards.
func TestAdvanceCompaction(t *testing.T) {
	store, _, _ := benchWorld(2000)
	const res = 4096
	side := 12.0
	region := geom.Box(geom.V(0, 0, 0), geom.V(side, side, side))
	result := func(region geom.AABB) []pagestore.ObjectID {
		var out []pagestore.ObjectID
		for i := 0; i < store.NumObjects(); i++ {
			id := pagestore.ObjectID(i)
			if store.Object(id).IntersectsBox(region) {
				out = append(out, id)
			}
		}
		return out
	}
	cur := result(region)
	g := Build(store, region, res, cur)
	liveSet := map[pagestore.ObjectID]bool{}
	for _, id := range cur {
		liveSet[id] = true
	}
	// March steadily: ~half the result churns every step, so tombstones pile
	// up and compaction must trigger (and stay correct) along the way.
	for round := 0; round < 20; round++ {
		region = region.Translate(geom.V(4, 2, 1))
		next := result(region)
		inNext := map[pagestore.ObjectID]bool{}
		for _, id := range next {
			inNext[id] = true
		}
		var removed, added []pagestore.ObjectID
		g.ForEachLive(func(_ int32, id pagestore.ObjectID) {
			if !inNext[id] {
				removed = append(removed, id)
			}
		})
		for _, id := range next {
			if !liveSet[id] {
				added = append(added, id)
			}
		}
		if !g.CanAdvance(region, res) {
			t.Fatalf("round %d: cannot advance", round)
		}
		g.Advance(region, res, removed, added)
		liveSet = inNext

		fresh := freshOnSameLattice(g, next)
		got, want := canonicalFingerprint(g, region), canonicalFingerprint(fresh, region)
		if got != want {
			t.Fatalf("round %d (slots=%d live=%d): diverged after churn\nadvanced: %s\nfresh:    %s",
				round, g.VertexSlots(), g.NumVertices(), got, want)
		}
	}
	if g.VertexSlots() >= 2*g.NumVertices()+64 {
		t.Errorf("compaction never ran: %d slots for %d live vertices", g.VertexSlots(), g.NumVertices())
	}
}

// TestAdvanceChargesDeltaWork pins the accounting contract: a steady-state
// Advance must report far less build work than the full build it replaces.
func TestAdvanceChargesDeltaWork(t *testing.T) {
	store, _, _ := benchWorld(2000)
	const res = 32768
	side := 16.0
	region := geom.Box(geom.V(0, 0, 0), geom.V(side, side, side))
	result := func(region geom.AABB) []pagestore.ObjectID {
		var out []pagestore.ObjectID
		for i := 0; i < store.NumObjects(); i++ {
			id := pagestore.ObjectID(i)
			if store.Object(id).IntersectsBox(region) {
				out = append(out, id)
			}
		}
		return out
	}
	cur := result(region)
	g := Build(store, region, res, cur)
	fullVerts := g.BuildVertices()
	if fullVerts != len(cur) {
		t.Fatalf("fresh build charged %d vertices for %d objects", fullVerts, len(cur))
	}
	liveSet := map[pagestore.ObjectID]bool{}
	for _, id := range cur {
		liveSet[id] = true
	}
	// A small drift: most of the result survives.
	region = region.Translate(geom.V(2, 0, 0))
	next := result(region)
	inNext := map[pagestore.ObjectID]bool{}
	for _, id := range next {
		inNext[id] = true
	}
	var removed, added []pagestore.ObjectID
	g.ForEachLive(func(_ int32, id pagestore.ObjectID) {
		if !inNext[id] {
			removed = append(removed, id)
		}
	})
	for _, id := range next {
		if !liveSet[id] {
			added = append(added, id)
		}
	}
	g.Advance(region, res, removed, added)
	if g.BuildVertices() >= len(next)/2 {
		t.Errorf("delta advance charged %d vertices for a %d-object result (removed %d, added %d) — expected delta-sized work",
			g.BuildVertices(), len(next), len(removed), len(added))
	}
}

// checkSimpleEdges fails unless every live vertex's adjacency list names
// each neighbour once, never itself, and NumEdges is half the summed degree.
func checkSimpleEdges(t *testing.T, g *Graph, step string) {
	t.Helper()
	degree := 0
	seen := map[int32]bool{}
	g.ForEachLive(func(v int32, _ pagestore.ObjectID) {
		clear(seen)
		for _, w := range g.Adj(v) {
			if w == v || seen[w] {
				t.Fatalf("%s: vertex %d lists neighbour %d twice or itself: %v", step, v, w, g.Adj(v))
			}
			seen[w] = true
		}
		degree += len(g.Adj(v))
	})
	if 2*g.NumEdges() != degree {
		t.Fatalf("%s: NumEdges %d, summed degree %d", step, g.NumEdges(), degree)
	}
}

// TestHashedEdgesAreSimple: grid hashing links the edges of a vertex that
// starts its walk without any (new or resurrected) without a duplicate scan,
// and connects those of a window-growth re-walk with one. Through Reset and
// Advance with resurrections and window growth, at a coarse 8-cell grid
// (many objects per cell) and the default resolution, no adjacency list may
// repeat a neighbour.
func TestHashedEdgesAreSimple(t *testing.T) {
	store, _, _ := benchWorld(1500)
	for _, res := range []int{8, 32768} {
		t.Run(fmt.Sprintf("res%d", res), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(7 + res)))
			resultFor := func(region geom.AABB) []pagestore.ObjectID {
				var out []pagestore.ObjectID
				for i := 0; i < store.NumObjects(); i++ {
					id := pagestore.ObjectID(i)
					if store.Object(id).IntersectsBox(region) && rng.Intn(5) != 0 {
						out = append(out, id)
					}
				}
				return out
			}
			region := geom.Box(geom.V(2, 2, 2), geom.V(18, 18, 18))
			g := Build(store, region, res, resultFor(region))
			checkSimpleEdges(t, g, "build")
			g.Reset(region, res)
			result := resultFor(region)
			for _, id := range result {
				g.AddObject(id)
			}
			checkSimpleEdges(t, g, "reset")

			resurrected, rewalked := 0, 0
			for round := 0; round < 12; round++ {
				// Out and back, so objects that left re-enter as tombstones.
				step := geom.V(3, 2, 1)
				if round%4 >= 2 {
					step = step.Scale(-1)
				}
				region = region.Translate(step)
				next := resultFor(region)
				inNext := map[pagestore.ObjectID]bool{}
				for _, id := range next {
					inNext[id] = true
				}
				var removed, added []pagestore.ObjectID
				g.ForEachLive(func(_ int32, id pagestore.ObjectID) {
					if !inNext[id] {
						removed = append(removed, id)
					}
				})
				for _, id := range next {
					if !g.Contains(id) {
						added = append(added, id)
					}
				}
				g.Advance(region, res, removed, added)
				for _, id := range added {
					if v := g.VertexOf(id); v >= 0 && int(v) < g.VertexSlots()-len(added) {
						resurrected++
					}
				}
				rewalked += g.BuildVertices() - len(added)
				checkSimpleEdges(t, g, fmt.Sprintf("advance %d", round))
			}
			if resurrected == 0 || rewalked == 0 {
				t.Fatalf("%d resurrections and %d window-growth re-walks: the walk did not cover both", resurrected, rewalked)
			}
		})
	}
}
