package core

import (
	"math"
	"time"

	"scout/internal/flatindex"
	"scout/internal/geom"
	"scout/internal/idtable"
	"scout/internal/pagestore"
	"scout/internal/prefetch"
	"scout/internal/sgraph"
)

// ScoutOpt is SCOUT coupled with a FLAT-like index, enabling the two
// optimizations of §6: sparse graph construction (§6.2) and gap traversal
// (§6.3). In the absence of gaps it produces the same predictions as SCOUT
// from a cheaper, sparser graph; with gaps it follows the candidate
// structures across the gap page-by-page instead of extrapolating blindly.
type ScoutOpt struct {
	Scout
	flat *flatindex.Index

	// Reusable per-query working set: candidate/visited page sets, the page
	// expansion queue of sparse construction, one added vertex's crossings,
	// the exits gap clustering keeps, the locations gap traversal predicts,
	// and a second graph arena for gap traversal (the main arena holds the
	// query's graph, which must survive while the gap corridors are
	// explored). gapLive marks that the gap arena holds a corridor of this
	// sequence; corridors of consecutive queries overlap along the followed
	// structure, so the arena advances (AdvanceWithin) instead of resetting
	// when the lattice carries over.
	inCand    idtable.Set[pagestore.PageID]
	pageSeen  idtable.Set[pagestore.PageID]
	pageQueue []pagestore.PageID
	pageAdded []int32
	vertCross []sgraph.Boundary
	distinct  []sgraph.Boundary
	gapGraph  *sgraph.Graph
	gapLive   bool
	gapStarts []int32
	gapFronts []pagestore.PageID
	gapLocs   []location
}

// NewOpt creates a SCOUT-OPT prefetcher over the given FLAT-like index.
// adjacency may be nil (grid hashing) or the dataset's explicit graph.
func NewOpt(flat *flatindex.Index, adjacency [][]pagestore.ObjectID, cfg Config) *ScoutOpt {
	return &ScoutOpt{
		Scout: *New(flat.Store(), adjacency, cfg),
		flat:  flat,
	}
}

// Name implements prefetch.Prefetcher.
func (s *ScoutOpt) Name() string { return "SCOUT-OPT" }

// Reset implements prefetch.Prefetcher, additionally dropping the gap
// arena's carried-over corridor so sequences stay independent.
func (s *ScoutOpt) Reset() {
	s.Scout.Reset()
	s.gapLive = false
}

// Clone implements prefetch.Cloner: an independent fresh-state copy sharing
// only the immutable index, store and adjacency.
func (s *ScoutOpt) Clone() prefetch.Prefetcher {
	return NewOpt(s.flat, s.adjacency, s.cfg)
}

// Observe implements prefetch.Prefetcher. It mirrors Scout.Observe but uses
// sparse graph construction when the previous query's exits are known, and
// adds gap traversal to the plan when the sequence has gaps.
func (s *ScoutOpt) Observe(obs prefetch.Observation) {
	bounds := obs.Region.Bounds()
	side := sideOf(bounds)
	s.centers = append(s.centers, obs.Center)
	_, estGap := s.estimateStep(side)
	tol := side*matchTolFrac + estGap*0.6

	var g *sgraph.Graph
	startVerts := s.startVerts[:0]
	var prevPts []geom.Vec3
	sparsePages := 0
	advanced := false
	reset := len(s.prevExits) == 0
	if !reset {
		s.projPts = appendProjectedPoints(s.projPts[:0], s.prevExits, estGap)
		g, startVerts, sparsePages = s.sparseBuild(obs, bounds, tol, s.projPts, startVerts)
		if len(startVerts) == 0 {
			reset = true // candidate lost: rebuild in full
		} else {
			prevPts = s.projPts
		}
	}
	var crossings []sgraph.Boundary
	if reset {
		g, advanced = s.buildGraph(obs, bounds)
		prevPts = nil
		s.crossBuf = g.AppendCrossings(s.crossBuf[:0], obs.Region)
		crossings = s.crossBuf
		startVerts = startVerts[:0]
		for i := range crossings {
			startVerts = append(startVerts, crossings[i].Vertex)
		}
	}
	s.startVerts = startVerts

	ops0 := g.Ops()
	exits, candidates := s.predictFrom(g, obs.Region, side, startVerts, prevPts, crossings)
	predCost := time.Duration(g.Ops()-ops0) * costPerOp
	// After prediction: a delta build's lazy connectivity rebuild triggers
	// on the first connectivity query above and is charged to graph building.
	buildCost := graphBuildCost(g)
	s.prevExits = exits

	// Gap traversal (§6.3): follow the candidate structures across the gap
	// under the I/O budget, yielding refined predicted locations plus the
	// pages read on the way.
	var locs []location
	var gapPages []pagestore.PageID
	var gapCost time.Duration
	if estGap > side*0.05 && len(exits) > 0 {
		budget := int(gapIOFrac * float64(len(obs.Pages)))
		if budget < 1 {
			budget = 1
		}
		// Concentrate the tight I/O budget: cluster near-duplicate exits
		// (boundary wiggles produce several crossings of the same
		// structure) and follow at most two candidates across the gap. The
		// clustering compacts a copy: requestsFor reads exits below in their
		// original order.
		s.distinct = dedupeExitsInPlace(append(s.distinct[:0], exits...), side*0.4)
		distinct := s.distinct[:min(len(s.distinct), 2)]
		locs, gapPages, gapCost = s.gapTraverse(distinct, bounds, side, estGap, budget)
	}

	// Traversal-refined anchors first (highest confidence), then the
	// regular broad exit ladders as coverage for the candidates the I/O
	// budget could not follow.
	volume := bounds.Volume() // page footprint; see Scout.Observe
	exitLocs, exitVolume := s.exitLocations(exits, volume, side, estGap)
	reqs := s.newPlan(len(locs) + len(exitLocs))
	reqs = s.putLadders(reqs, locs, volume)
	reqs = s.putLadders(reqs, exitLocs, exitVolume)

	s.stats = QueryStats{
		ResultObjects: len(obs.Result),
		Vertices:      g.NumVertices(),
		Edges:         g.NumEdges(),
		MemoryBytes:   g.MemoryBytes(),
		GraphBuild:    buildCost,
		Prediction:    predCost + gapCost,
		Candidates:    candidates,
		Exits:         len(exits),
		SparsePages:   sparsePages,
		GapPages:      len(gapPages),
		GraphDelta:    advanced,
	}
	s.session.record(s.stats)
	s.plan = prefetch.Plan{
		Requests:   reqs,
		GraphBuild: buildCost,
		Prediction: predCost + gapCost,
		// Sparse construction interleaves graph building and prediction
		// with result retrieval, so "the prediction process is already
		// finished once the query result is retrieved" (§6.2).
		PredictionHidden: !reset,
		TraversalPages:   gapPages,
		GraphDelta:       advanced,
	}
}

// sparseBuild implements §6.2: starting from the pages at the previous
// query's exit locations, it builds only the subgraph reachable from those
// exits, expanding through page neighborhood links, and leaves the rest of
// the result pages out of the graph entirely. exitPts are the previous
// exits projected across the gap; startVerts is an empty recycled buffer.
// It returns the graph (in the shared arena, reset for this query), the
// start vertices matched to the previous exits, and the number of pages
// whose objects were added.
func (s *ScoutOpt) sparseBuild(obs prefetch.Observation, bounds geom.AABB, tol float64, exitPts []geom.Vec3, startVerts []int32) (*sgraph.Graph, []int32, int) {
	s.inResult.Reset()
	for _, id := range obs.Result {
		s.inResult.Add(id)
	}
	s.inCand.Reset()
	for _, p := range obs.Pages {
		s.inCand.Add(p)
	}

	// Seed pages: candidate pages whose MBR comes within tol of an exit.
	queue := s.pageQueue[:0]
	s.pageSeen.Reset()
	for _, p := range obs.Pages {
		mbr := s.store.PageBounds(p)
		for _, pt := range exitPts {
			if mbr.DistSq(pt) <= tol*tol {
				queue = append(queue, p)
				s.pageSeen.Add(p)
				break
			}
		}
	}
	if len(queue) == 0 {
		s.pageQueue = queue
		return nil, nil, 0
	}

	// Sparse construction is itself the paper's incremental mechanism: it
	// touches only the candidate pages, so its graphs are small and cheap to
	// rebuild. Advancing the arena across sparse graphs was measured to cost
	// MORE than the rebuild it saves — the candidate window slides every
	// query, so most carried-over vertices are tombstoned and resurrected in
	// alternation, churning kills, re-walks and compactions (see DESIGN §3).
	// The full-build fallback (buildGraph) and the gap corridor do advance.
	g := s.resetGraph(bounds, s.cfg.Resolution)
	s.graphLive = true
	s.prevBounds = bounds
	pagesUsed := 0
	for head := 0; head < len(queue); head++ {
		p := queue[head]
		pagesUsed++

		// Build the subgraph of page P: add its result objects. Only an
		// object's first touch this query counts as added, so crossing
		// detection and page expansion below see each object once.
		added := s.pageAdded[:0]
		page := s.store.PageSlice(p)
		for i := range page {
			id := page[i].ID
			if !s.inResult.Has(id) {
				continue
			}
			if v, first := s.addObjectMaybeExplicit(g, id); first {
				added = append(added, v)
			}
		}
		// Newly found crossings near the previous exits (only the vertices
		// added by this page can contribute new ones).
		for _, v := range added {
			s.vertCross = g.AppendVertexCrossings(s.vertCross[:0], v, obs.Region)
			for _, c := range s.vertCross {
				if nearAny(c.Point, exitPts, tol) && !containsVert(startVerts, c.Vertex) {
					startVerts = append(startVerts, c.Vertex)
				}
			}
		}
		// "Start to traverse the subgraph and find the locations X where
		// the subgraph exits the page P ... retrieve all neighboring pages
		// of P at X" (§6.2): expansion happens only where the candidate
		// structure itself leaves the page, never to all neighbors.
		eps := sideOf(bounds) * 0.02
		// Shrink P's MBR so endpoints exactly on the page boundary count
		// as crossings (shared boundaries are the common case for packed
		// pages).
		pageMBR := s.store.PageBounds(p).Inflate(-eps)
		g.MarkComponents(startVerts)
		for _, v := range added {
			if !g.InMarkedComponent(v) {
				continue
			}
			seg := g.ObjectOf(v).Seg
			for _, pt := range []geom.Vec3{seg.A, seg.B} {
				if pageMBR.Contains(pt) {
					continue // endpoint stays inside P: no page crossing
				}
				for _, q := range s.flat.Neighbors(p) {
					if !s.inCand.Has(q) || s.pageSeen.Has(q) {
						continue
					}
					if s.store.PageBounds(q).Inflate(eps).Contains(pt) {
						s.pageSeen.Add(q)
						queue = append(queue, q)
					}
				}
			}
		}
		s.pageAdded = added[:0]
	}
	s.pageQueue = queue[:0]
	return g, startVerts, pagesUsed
}

// nearAny reports whether p is within tol of any of the points.
func nearAny(p geom.Vec3, pts []geom.Vec3, tol float64) bool {
	t2 := tol * tol
	for _, q := range pts {
		if p.DistSq(q) <= t2 {
			return true
		}
	}
	return false
}

// containsVert reports whether v is already in verts.
func containsVert(verts []int32, v int32) bool {
	for _, w := range verts {
		if w == v {
			return true
		}
	}
	return false
}

// addObjectMaybeExplicit inserts an object (first-touch semantics, see
// sgraph.AddObjectFirst), wiring explicit adjacency when the dataset has it.
// Membership in the current result is read from the recycled inResult set,
// which sparseBuild populates.
func (s *ScoutOpt) addObjectMaybeExplicit(g *sgraph.Graph, id pagestore.ObjectID) (int32, bool) {
	v, first := g.AddObjectFirst(id)
	if first && s.adjacency != nil {
		for _, nb := range s.adjacency[id] {
			if s.inResult.Has(nb) && g.Contains(nb) {
				g.ConnectExplicit(id, nb)
			}
		}
	}
	return v, first
}

// gapTraverse implements §6.3: from each candidate exit, read the pages
// that neighbor the exit location, build the subgraph of their objects,
// follow it outward, and repeat until the estimated gap distance is covered
// or the I/O budget is spent. Page selection is best-first — always the
// unread neighbor page closest to the farthest point of the structure
// reached so far — so the budget is spent following the structure rather
// than flooding its neighborhood ("load exactly those pages needed to
// reconstruct the graph outside the query region"). When the budget runs
// out early it falls back to linear extrapolation from the farthest point
// reached ("a backup mechanism, e.g., linear extrapolation from the point
// where the traversal was stopped").
func (s *ScoutOpt) gapTraverse(exits []sgraph.Boundary, region geom.AABB, side, estGap float64, budget int) ([]location, []pagestore.PageID, time.Duration) {
	limit := s.cfg.MaxLocations
	if len(exits) < limit {
		limit = len(exits)
	}
	perExit := budget / limit
	if perExit < 2 {
		perExit = 2
	}

	locs := s.gapLocs[:0]
	var pages []pagestore.PageID
	var ops int64
	for _, e := range exits[:limit] {
		// A generous isotropic corridor: the structure may bend away from
		// the exit direction while crossing the gap — that is exactly why
		// traversal beats extrapolation.
		reach := estGap + side
		corridor := geom.CubeAt(e.Point.Add(e.Dir.Scale(estGap/2)), 8*reach*reach*reach)

		// The corridor graph lives in its own arena: the query's main graph
		// (in Scout.graph) must stay intact while the gap is explored.
		// Consecutive corridors along the same structure overlap, so the
		// arena advances in place when the lattice carries over (same
		// corridor volume → same cell size), keeping every vertex recovered
		// from previously read pages that still lies inside the new corridor
		// — structure knowledge at zero additional I/O.
		if s.gapGraph == nil {
			s.gapGraph = sgraph.New(s.store, corridor, s.cfg.Resolution)
		} else if s.cfg.DisableIncremental || !s.gapLive ||
			!s.gapGraph.AdvanceWithin(corridor, s.cfg.Resolution) {
			s.gapGraph.Reset(corridor, s.cfg.Resolution)
		}
		s.gapLive = true
		g := s.gapGraph
		ops0 := g.Ops()
		s.pageSeen.Reset()
		frontier := s.gapFronts[:0]
		if seed, ok := s.flat.SeedPage(e.Point.Add(e.Dir.Scale(side * 0.02))); ok {
			frontier = append(frontier, seed)
			s.pageSeen.Add(seed)
		}
		// The traversal starts from the objects at the exit location —
		// including carried-over corridor survivors already in the arena.
		starts := s.gapStarts[:0]
		g.ForEachLive(func(v int32, id pagestore.ObjectID) {
			if s.store.Object(id).Seg.DistToPoint(e.Point) < side*0.15 {
				starts = append(starts, v)
			}
		})
		far := location{center: e.Point, dir: e.Dir}
		farDist := 0.0

		used := 0
		for len(frontier) > 0 && used < perExit {
			// Best-first: pop the frontier page nearest the farthest
			// reached point (initially the exit itself).
			best := 0
			bestD := s.store.PageBounds(frontier[0]).DistSq(far.center)
			for i := 1; i < len(frontier); i++ {
				if d := s.store.PageBounds(frontier[i]).DistSq(far.center); d < bestD {
					bestD = d
					best = i
				}
			}
			p := frontier[best]
			frontier[best] = frontier[len(frontier)-1]
			frontier = frontier[:len(frontier)-1]
			used++
			pages = append(pages, p)

			page := s.store.PageSlice(p)
			for i := range page {
				o := &page[i]
				if !o.IntersectsBox(corridor) {
					continue
				}
				v := g.AddObject(o.ID)
				if o.Seg.DistToPoint(e.Point) < side*0.15 {
					starts = append(starts, v)
				}
			}
			// Track the best anchor and the farthest progress so far.
			loc, reached := farthestAlong(g, starts, e, estGap, side)
			if d := loc.center.Dist(e.Point); d > farDist-side {
				far = loc
			}
			if d := loc.center.Dist(e.Point); d > farDist {
				farDist = d
			}
			if reached {
				far = loc
				farDist = estGap
				break
			}
			for _, q := range s.flat.Neighbors(p) {
				if s.pageSeen.Has(q) {
					continue
				}
				if !s.store.PageBounds(q).Intersects(corridor) {
					continue
				}
				s.pageSeen.Add(q)
				frontier = append(frontier, q)
			}
		}
		s.gapFronts = frontier[:0]
		s.gapStarts = starts[:0]
		ops += g.Ops() - ops0

		loc := far
		if farDist < estGap*0.9 {
			// Budget exhausted before crossing the gap: linear
			// extrapolation from where the traversal stopped.
			short := estGap - loc.center.Dist(e.Point)
			if short > 0 {
				loc.center = loc.center.Add(loc.dir.Scale(short))
			}
		}
		locs = append(locs, loc)
	}
	cost := time.Duration(ops)*costPerOp +
		time.Duration(len(pages))*costPerObject // page-handling overhead
	s.gapLocs = dedupeLocations(locs, side*0.3)
	return s.gapLocs, pages, cost
}

// farthestAlong walks the gap subgraph from the start vertices and returns
// the predicted location — the reachable structure point closest to the
// estimated gap distance from the exit, which is where the next query is
// expected to begin — together with the farthest distance reached. reached
// reports whether the structure was followed at least the full gap
// distance.
func farthestAlong(g *sgraph.Graph, starts []int32, e sgraph.Boundary, estGap, side float64) (location, bool) {
	if len(starts) == 0 {
		// Nothing recovered at the exit: pure linear extrapolation.
		return location{center: e.Point.Add(e.Dir.Scale(estGap)), dir: e.Dir}, false
	}
	best := location{center: e.Point, dir: e.Dir}
	bestErr := estGap // |d − estGap| of the anchor candidate
	farDist := 0.0
	for _, v := range g.ReachableFrom(starts) {
		o := g.ObjectOf(v)
		c := o.Centroid()
		rel := c.Sub(e.Point)
		// Only the forward half-space counts: the structure leaves the
		// query through this exit, so its continuation — and the next
		// query — lie ahead of it. Euclidean distance alone would tie
		// points behind the exit with the true target.
		if rel.Dot(e.Dir) < -0.1*estGap {
			continue
		}
		d := rel.Len()
		if d > farDist {
			farDist = d
		}
		if err := math.Abs(d - estGap); err < bestErr {
			bestErr = err
			dir := o.Seg.Dir().Normalize()
			// Orient the direction away from the exit.
			if dir.Dot(rel) < 0 {
				dir = dir.Neg()
			}
			best = location{center: c, dir: dir}
		}
	}
	return best, farDist >= estGap*0.9
}

var _ prefetch.Prefetcher = (*ScoutOpt)(nil)
