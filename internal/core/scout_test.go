package core

import (
	"testing"

	"scout/internal/flatindex"
	"scout/internal/geom"
	"scout/internal/pagestore"
	"scout/internal/prefetch"
	"scout/internal/rtree"
	"scout/internal/sgraph"
)

// chainWorld builds a store of `chains` horizontal polylines along +x,
// spaced apart in y/z, paginated in STR order with an R-tree and a FLAT
// index over it.
type chainWorld struct {
	store *pagestore.Store
	tree  *rtree.Tree
	flat  *flatindex.Index
}

func newChainWorld(t *testing.T, chains, segs int, spacing float64) *chainWorld {
	t.Helper()
	var objs []pagestore.Object
	for c := 0; c < chains; c++ {
		y := float64(c) * spacing
		for s := 0; s < segs; s++ {
			objs = append(objs, pagestore.Object{
				Seg:    geom.Seg(geom.V(float64(s), y, y), geom.V(float64(s+1), y, y)),
				Struct: int32(c),
			})
		}
	}
	store := pagestore.NewStore(objs)
	cfg := rtree.Config{ObjectsPerPage: 16}
	tree, err := rtree.BulkLoad(store, cfg)
	if err != nil {
		t.Fatal(err)
	}
	flat, err := flatindex.Build(store, cfg, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	return &chainWorld{store: store, tree: tree, flat: flat}
}

// observe executes a query against the world and feeds it to p.
func (w *chainWorld) observe(p prefetch.Prefetcher, seq int, region geom.AABB) prefetch.Observation {
	obs := prefetch.Observation{
		Seq:    seq,
		Region: region,
		Center: region.Center(),
		Result: w.tree.QueryObjects(region, nil),
		Pages:  w.tree.QueryPages(region, nil),
	}
	p.Observe(obs)
	return obs
}

// queryAt returns a cube of the given side centered on chain `c` at x.
func queryAt(x float64, chainOffset float64, side float64) geom.AABB {
	return geom.BoxAt(geom.V(x, chainOffset, chainOffset), geom.V(side, side, side))
}

// planCovers reports whether any request region contains the point.
func planCovers(p prefetch.Plan, pt geom.Vec3) bool {
	for _, r := range p.Requests {
		if r.Contains(pt) {
			return true
		}
	}
	return false
}

func TestScoutPredictsAlongChain(t *testing.T) {
	w := newChainWorld(t, 3, 200, 20) // chains at y=z ∈ {0, 20, 40}
	s := New(w.store, nil, DefaultConfig())

	side := 10.0
	step := 9.0
	// Walk chain 0 for several queries, then check the plan covers the
	// next query center.
	for i := 0; i < 5; i++ {
		w.observe(s, i, queryAt(20+float64(i)*step, 0, side))
	}
	next := geom.V(20+5*step, 0, 0)
	if !planCovers(s.Plan(), next) {
		t.Errorf("plan does not cover next query center %v", next)
	}
	// The plan must have requests, a build cost and a prediction cost.
	p := s.Plan()
	if len(p.Requests) == 0 || p.GraphBuild <= 0 || p.Prediction <= 0 {
		t.Errorf("plan incomplete: %d requests, build %v, predict %v",
			len(p.Requests), p.GraphBuild, p.Prediction)
	}
}

func TestScoutCandidatePruning(t *testing.T) {
	// Two chains close enough that both intersect every query; pruning
	// cannot separate them (both always enter near previous exits), BUT a
	// third distant chain must never become a candidate after the first
	// pruned query.
	w := newChainWorld(t, 2, 200, 4)
	s := New(w.store, nil, DefaultConfig())

	side := 10.0 // covers both chains at y=0 and y=4
	for i := 0; i < 4; i++ {
		w.observe(s, i, queryAt(20+float64(i)*9, 2, side))
	}
	st := s.LastStats()
	if st.Candidates < 1 || st.Candidates > 2 {
		t.Errorf("candidates = %d, want 1..2", st.Candidates)
	}
	if st.Exits == 0 {
		t.Error("no exits found")
	}
}

func TestScoutPrunesToSingleChain(t *testing.T) {
	// Chains far apart: query covers only chain 0. After two queries the
	// candidate set is exactly one structure.
	w := newChainWorld(t, 3, 200, 50)
	s := New(w.store, nil, DefaultConfig())
	for i := 0; i < 3; i++ {
		w.observe(s, i, queryAt(20+float64(i)*9, 0, 10))
	}
	if got := s.LastStats().Candidates; got != 1 {
		t.Errorf("candidates = %d, want 1", got)
	}
}

func TestScoutResetOnJump(t *testing.T) {
	// Following chain 0 and then jumping to chain 2 (reset): SCOUT must
	// recover and predict along chain 2.
	w := newChainWorld(t, 3, 200, 50)
	s := New(w.store, nil, DefaultConfig())
	for i := 0; i < 3; i++ {
		w.observe(s, i, queryAt(20+float64(i)*9, 0, 10))
	}
	// Jump to chain 2 (y = z = 100) — far from any previous exit.
	for i := 0; i < 3; i++ {
		w.observe(s, 3+i, queryAt(20+float64(i)*9, 100, 10))
	}
	next := geom.V(20+3*9, 100, 100)
	if !planCovers(s.Plan(), next) {
		t.Errorf("after reset, plan does not cover %v", next)
	}
}

func TestScoutFirstQueryUsesAllStructures(t *testing.T) {
	w := newChainWorld(t, 2, 100, 6)
	s := New(w.store, nil, DefaultConfig())
	// One query covering both chains: both are candidates, and the plan
	// should cover continuations of both (broad strategy).
	w.observe(s, 0, queryAt(50, 3, 14))
	st := s.LastStats()
	if st.Candidates != 2 {
		t.Errorf("candidates = %d, want 2", st.Candidates)
	}
	p := s.Plan()
	// Exits on both sides of both chains = 4 predicted locations max.
	if len(p.Requests) == 0 {
		t.Fatal("no requests on first query")
	}
}

func TestScoutDeepVsBroad(t *testing.T) {
	w := newChainWorld(t, 2, 100, 6)
	mkObs := func(p prefetch.Prefetcher) {
		w.observe(p, 0, queryAt(50, 3, 14))
	}
	cfgDeep := DefaultConfig()
	cfgDeep.Strategy = Deep
	deep := New(w.store, nil, cfgDeep)
	mkObs(deep)
	broad := New(w.store, nil, DefaultConfig())
	mkObs(broad)
	// Deep plans exactly one ladder; broad plans several.
	if got := len(deep.Plan().Requests); got != cfgDeep.Ladder {
		t.Errorf("deep requests = %d, want %d", got, cfgDeep.Ladder)
	}
	if got := len(broad.Plan().Requests); got <= cfgDeep.Ladder {
		t.Errorf("broad requests = %d, want > %d", got, cfgDeep.Ladder)
	}
}

func TestScoutReset(t *testing.T) {
	w := newChainWorld(t, 1, 100, 10)
	s := New(w.store, nil, DefaultConfig())
	for i := 0; i < 3; i++ {
		w.observe(s, i, queryAt(20+float64(i)*9, 0, 10))
	}
	s.Reset()
	if len(s.Plan().Requests) != 0 {
		t.Error("plan survives Reset")
	}
	if s.LastStats() != (QueryStats{}) {
		t.Error("stats survive Reset")
	}
}

func TestScoutFallbackWithoutExits(t *testing.T) {
	// A query entirely containing a tiny isolated chain: no exits. SCOUT
	// falls back to straight-line extrapolation of the centers.
	var objs []pagestore.Object
	for s := 0; s < 3; s++ {
		objs = append(objs, pagestore.Object{
			Seg: geom.Seg(geom.V(float64(s)+50, 0, 0), geom.V(float64(s+1)+50, 0, 0)),
		})
	}
	store := pagestore.NewStore(objs)
	tree, err := rtree.BulkLoad(store, rtree.Config{ObjectsPerPage: 4})
	if err != nil {
		t.Fatal(err)
	}
	s := New(store, nil, DefaultConfig())
	for i := 0; i < 2; i++ {
		q := geom.CubeAt(geom.V(40+float64(i)*10, 0, 0), 40*40*40)
		s.Observe(prefetch.Observation{
			Seq: i, Region: q, Center: q.Center(),
			Result: tree.QueryObjects(q, nil),
			Pages:  tree.QueryPages(q, nil),
		})
	}
	// Exits exist only while the chain crosses the boundary; the second
	// query fully contains it, so the plan comes from the fallback.
	if len(s.Plan().Requests) == 0 {
		t.Error("no fallback plan")
	}
	covered := planCovers(s.Plan(), geom.V(60, 0, 0))
	if !covered {
		t.Error("fallback did not extrapolate the walk")
	}
}

func TestScoutExplicitAdjacency(t *testing.T) {
	// Two chains 2 apart with explicit adjacency wiring each chain. Grid
	// hashing at default resolution would also work; the explicit path must
	// produce components matching the adjacency exactly.
	w := newChainWorld(t, 2, 100, 2)
	adj := make([][]pagestore.ObjectID, w.store.NumObjects())
	for c := 0; c < 2; c++ {
		base := c * 100
		for s := 0; s < 99; s++ {
			a := pagestore.ObjectID(base + s)
			b := pagestore.ObjectID(base + s + 1)
			adj[a] = append(adj[a], b)
			adj[b] = append(adj[b], a)
		}
	}
	s := New(w.store, adj, DefaultConfig())
	for i := 0; i < 3; i++ {
		w.observe(s, i, queryAt(20+float64(i)*9, 1, 8))
	}
	st := s.LastStats()
	if st.Candidates != 2 {
		t.Errorf("explicit candidates = %d, want 2", st.Candidates)
	}
	if st.Edges == 0 {
		t.Error("no explicit edges")
	}
}

func TestKmeansRepresentatives(t *testing.T) {
	s := New(pagestore.NewStore(nil), nil, DefaultConfig())
	var exits []sgraph.Boundary
	// Two tight clusters of exits.
	for i := 0; i < 10; i++ {
		exits = append(exits, sgraph.Boundary{Point: geom.V(float64(i)*0.01, 0, 0), Dir: geom.V(1, 0, 0)})
		exits = append(exits, sgraph.Boundary{Point: geom.V(100+float64(i)*0.01, 0, 0), Dir: geom.V(1, 0, 0)})
	}
	reps := s.kmeansRepresentatives(exits, 2)
	if len(reps) != 2 {
		t.Fatalf("reps = %d, want 2", len(reps))
	}
	// One rep from each cluster.
	a, b := reps[0].Point.X, reps[1].Point.X
	if (a < 50) == (b < 50) {
		t.Errorf("both representatives from the same cluster: %v, %v", a, b)
	}
	// Fewer exits than k passes through.
	if got := s.kmeansRepresentatives(exits[:2], 5); len(got) != 2 {
		t.Errorf("passthrough = %d", len(got))
	}
}

func TestInterleave(t *testing.T) {
	// putLadders writes the ladders round-robin into one slice: every
	// location's first rung, then every location's second, and so on.
	s := New(pagestore.NewStore(nil), nil, DefaultConfig())
	locs := []location{
		{center: geom.V(1, 0, 0), dir: geom.V(1, 0, 0)},
		{center: geom.V(10, 5, 0), dir: geom.V(0, 1, 0)},
		{center: geom.V(0, 0, 30), dir: geom.V(0, 0, -1)},
	}
	steps := s.cfg.Ladder
	head := geom.CubeAt(geom.V(-7, 0, 0), 1)
	out := s.putLadders(append(make([]geom.AABB, 0, 1+len(locs)*steps), head), locs, 64)
	if len(out) != 1+len(locs)*steps {
		t.Fatalf("len = %d, want %d", len(out), 1+len(locs)*steps)
	}
	if out[0] != head {
		t.Error("the request already in the plan moved")
	}
	for i, l := range locs {
		ladder := prefetch.IncrementalRequests(l.center, l.dir, 64, steps)
		for r, want := range ladder {
			if got := out[1+r*len(locs)+i]; got != want {
				t.Errorf("location %d rung %d = %v, want %v", i, r, got, want)
			}
		}
	}
}

func TestDedupeLocations(t *testing.T) {
	locs := []location{
		{center: geom.V(0, 0, 0)},
		{center: geom.V(0.1, 0, 0)},
		{center: geom.V(50, 0, 0)},
	}
	out := dedupeLocations(locs, 1)
	if len(out) != 2 {
		t.Errorf("deduped = %d, want 2", len(out))
	}
}

func TestCountComponents(t *testing.T) {
	w := newChainWorld(t, 2, 20, 50)
	bounds := geom.Box(geom.V(-1, -1, -1), geom.V(21, 51, 51))
	g := sgraph.New(w.store, bounds, 32768)
	for i := range w.store.NumObjects() {
		g.AddObject(pagestore.ObjectID(i))
	}
	v0 := g.VertexOf(0)
	v1 := g.VertexOf(1)
	v20 := g.VertexOf(20) // chain 1
	if got := countComponents(g, []int32{v0, v1, v20}); got != 2 {
		t.Errorf("components = %d, want 2", got)
	}
	if got := countComponents(g, nil); got != 0 {
		t.Errorf("empty components = %d", got)
	}
}

func TestStrategyString(t *testing.T) {
	if Broad.String() != "broad" || Deep.String() != "deep" {
		t.Error("strategy names")
	}
}
