package core

import (
	"math"
	"math/rand"
	"time"

	"scout/internal/geom"
	"scout/internal/idtable"
	"scout/internal/pagestore"
	"scout/internal/prefetch"
	"scout/internal/sgraph"
)

// QueryStats reports the per-query internals the paper's analysis section
// measures: graph size and memory (§8.2), modeled build and prediction cost
// (§8.1, §8.3), and candidate-set size (§4.3).
type QueryStats struct {
	ResultObjects int
	Vertices      int
	Edges         int
	MemoryBytes   int64
	GraphBuild    time.Duration
	Prediction    time.Duration
	Candidates    int
	Exits         int
	// SparsePages is the number of pages used for sparse graph construction
	// (SCOUT-OPT only; 0 means a full build).
	SparsePages int
	// GapPages is the number of pages read by gap traversal (SCOUT-OPT).
	GapPages int
	// GraphDelta marks a query whose graph was advanced incrementally from
	// the previous query's instead of rebuilt; GraphBuild then charges only
	// the delta work (inserted/removed vertices and edges plus maintenance).
	GraphDelta bool
}

// SessionStats aggregates SCOUT's per-query internals over a serving
// session's whole lifetime. Unlike QueryStats (last observation only) it
// survives Reset: a multi-session serving session spans many sequences and
// Reset is the between-sequence boundary. It records behavior without ever
// influencing it, so the Reset ≡ fresh invariant the parallel harness
// relies on is untouched. Clone starts a fresh ledger.
type SessionStats struct {
	Queries     int64
	FullBuilds  int64
	DeltaBuilds int64
}

// record folds one observation into the ledger.
func (ss *SessionStats) record(q QueryStats) {
	ss.Queries++
	if q.GraphDelta {
		ss.DeltaBuilds++
	} else {
		ss.FullBuilds++
	}
}

// DeltaShare returns the fraction of queries served by incremental graph
// advances.
func (ss SessionStats) DeltaShare() float64 {
	if ss.Queries == 0 {
		return 0
	}
	return float64(ss.DeltaBuilds) / float64(ss.Queries)
}

// Scout is the paper's base prefetcher: structure-aware prediction over any
// spatial index.
type Scout struct {
	store *pagestore.Store
	// adjacency is the dataset's explicit graph (mesh face adjacency), or
	// nil to use grid hashing (§4.2).
	adjacency [][]pagestore.ObjectID
	cfg       Config
	rng       *rand.Rand

	// prevExits holds the exit boundaries of the current candidate set,
	// i.e. where the structures the user may be following left the last
	// query. Candidate pruning matches the next query's entries against
	// these points (§4.3).
	prevExits []sgraph.Boundary
	centers   []geom.Vec3
	plan      prefetch.Plan
	stats     QueryStats
	session   SessionStats

	// graph is the reusable arena carried across queries. When consecutive
	// results overlap enough it is advanced in place (sgraph's delta
	// lifecycle: survivors keep their cells and edges, departures become
	// tombstones, only new objects are hashed); otherwise it is Reset and
	// rebuilt. graphLive marks that it holds the previous query's graph of
	// THIS sequence — Reset clears it so sequences stay independent. The
	// scratch fields below recycle the remaining per-query working set, so
	// steady-state observation allocates only for the plan it hands back.
	graph      *sgraph.Graph
	graphLive  bool
	prevBounds geom.AABB
	inResult   idtable.Set[pagestore.ObjectID]
	startVerts []int32
	projPts    []geom.Vec3
	projDirs   []geom.Vec3
	removedIDs []pagestore.ObjectID
	addedIDs   []pagestore.ObjectID
	crossBuf   []sgraph.Boundary
	candBuf    []sgraph.Boundary
	fwdBuf     []sgraph.Boundary
	candPts    []geom.Vec3
	crossPts   []geom.Vec3
	crossDirs  []geom.Vec3
	entryBuf   []bool
	// kmeans scratch (see kmeansRepresentatives) and the plan's locations.
	kmAssign  []int
	kmPerm    []int32
	kmCenters []geom.Vec3
	kmReps    []sgraph.Boundary
	locs      []location
	// exitStore holds the exits handed back by predictFrom; it doubles as
	// prevExits and is only overwritten after the next query has extracted
	// its projected points.
	exitStore []sgraph.Boundary
}

// New creates a SCOUT prefetcher over the given store. adjacency may be nil
// (grid hashing) or the dataset's explicit object graph.
func New(store *pagestore.Store, adjacency [][]pagestore.ObjectID, cfg Config) *Scout {
	return &Scout{
		store:     store,
		adjacency: adjacency,
		cfg:       cfg,
		rng:       rand.New(rand.NewSource(rngSeed)),
	}
}

// Name implements prefetch.Prefetcher.
func (s *Scout) Name() string { return "SCOUT" }

// Reset implements prefetch.Prefetcher. It returns the prefetcher to its
// freshly-constructed state — including the RNG, which is reseeded so every
// sequence's run is independent of the sequences before it. That invariant
// is what lets the parallel experiment harness fan sequences out across
// workers and still produce byte-identical results to a sequential run.
func (s *Scout) Reset() {
	s.prevExits = nil
	s.centers = s.centers[:0]
	s.plan = prefetch.Plan{}
	s.stats = QueryStats{}
	s.graphLive = false
	s.rng = rand.New(rand.NewSource(rngSeed))
}

// Clone implements prefetch.Cloner: an independent fresh-state copy sharing
// only the immutable store and adjacency.
func (s *Scout) Clone() prefetch.Prefetcher {
	return New(s.store, s.adjacency, s.cfg)
}

// LastStats returns the internals of the most recent observation.
func (s *Scout) LastStats() QueryStats { return s.stats }

// Session returns the session-scoped ledger accumulated across every
// observation since construction (or ClearSession). Reset does NOT clear
// it — Reset marks a sequence boundary, not a session boundary.
func (s *Scout) Session() SessionStats { return s.session }

// ClearSession zeroes the session-scoped ledger.
func (s *Scout) ClearSession() { s.session = SessionStats{} }

// Plan implements prefetch.Prefetcher.
func (s *Scout) Plan() prefetch.Plan { return s.plan }

// Observe implements prefetch.Prefetcher: it builds the query's graph,
// prunes candidates, predicts the next query locations and prepares the
// prefetch plan.
func (s *Scout) Observe(obs prefetch.Observation) {
	bounds := obs.Region.Bounds()
	side := sideOf(bounds)
	s.centers = append(s.centers, obs.Center)
	_, estGap := s.estimateStep(side)

	g, advanced := s.buildGraph(obs, bounds)

	exits, candidates, predCost := s.predict(g, obs.Region, side, estGap)
	s.prevExits = exits
	// Build cost is computed after prediction: a delta build's lazy
	// connectivity rebuild triggers on the first connectivity query in there,
	// and its maintenance work belongs to graph building, not prediction.
	buildCost := graphBuildCost(g)

	s.stats = QueryStats{
		ResultObjects: len(obs.Result),
		Vertices:      g.NumVertices(),
		Edges:         g.NumEdges(),
		MemoryBytes:   g.MemoryBytes(),
		GraphBuild:    buildCost,
		Prediction:    predCost,
		Candidates:    candidates,
		Exits:         len(exits),
		GraphDelta:    advanced,
	}
	s.session.record(s.stats)
	s.plan = prefetch.Plan{
		// The ladder is sized to the next query's page FOOTPRINT — for
		// boxes that is the query volume, for frusta the (larger) bounding
		// box that determines which pages the query touches.
		Requests:   s.requestsFor(exits, bounds.Volume(), side, estGap),
		GraphBuild: buildCost,
		Prediction: predCost,
		GraphDelta: advanced,
	}
}

// estimateStep derives the expected distance between consecutive query
// centers and the implied gap between their regions. The paper uses "the
// distance between the last two queries as a prediction for the next gap"
// (§5.3).
func (s *Scout) estimateStep(side float64) (step, gap float64) {
	n := len(s.centers)
	if n < 2 {
		return side * 0.9, 0
	}
	step = s.centers[n-1].Dist(s.centers[n-2])
	gap = step - side
	if gap < 0 {
		gap = 0
	}
	return step, gap
}

// resetGraph readies the reusable graph arena for a new query region.
func (s *Scout) resetGraph(bounds geom.AABB, resolution int) *sgraph.Graph {
	if s.graph == nil {
		s.graph = sgraph.New(s.store, bounds, resolution)
	} else {
		s.graph.Reset(bounds, resolution)
	}
	return s.graph
}

// buildGraph constructs the approximate graph of the query result: advancing
// the previous query's graph in place when the result sets overlap enough,
// else rebuilding — via the explicit dataset adjacency when available, else
// via grid hashing. The graph lives in the prefetcher's arena and is valid
// until the next query. It reports whether the graph was advanced (a delta
// build) rather than rebuilt.
func (s *Scout) buildGraph(obs prefetch.Observation, bounds geom.AABB) (*sgraph.Graph, bool) {
	res := s.cfg.Resolution
	if s.adjacency != nil {
		res = 0
	}
	if s.tryAdvance(obs, bounds, res) {
		s.prevBounds = bounds
		return s.graph, true
	}
	if s.adjacency != nil {
		g := s.resetGraph(bounds, 0)
		s.inResult.Reset()
		for _, id := range obs.Result {
			s.inResult.Add(id)
		}
		for _, id := range obs.Result {
			g.AddObject(id)
			for _, nb := range s.adjacency[id] {
				if s.inResult.Has(nb) {
					g.ConnectExplicit(id, nb)
				}
			}
		}
		s.graphLive = true
		s.prevBounds = bounds
		return g, false
	}
	g := s.resetGraph(bounds, s.cfg.Resolution)
	for _, id := range obs.Result {
		g.AddObject(id)
	}
	s.graphLive = true
	s.prevBounds = bounds
	return g, false
}

// tryAdvance diffs the new result set against the graph's live vertices with
// the epoch-stamped inResult set and advances the graph in place when the
// lattice carries over (same resolution, same query volume, window within
// range) and the overlap clears minOverlapFrac — below that, churning most
// of the graph through tombstones costs more than a fresh build.
func (s *Scout) tryAdvance(obs prefetch.Observation, bounds geom.AABB, res int) bool {
	if s.cfg.DisableIncremental || !s.graphLive || s.graph == nil {
		return false
	}
	// Geometric pre-filter: surviving objects live in the region overlap, so
	// when the regions themselves share less volume than the threshold the
	// result-set diff cannot pass either — skip the O(result + live) diff.
	inter := bounds.Intersection(s.prevBounds)
	if inter.IsEmpty() || inter.Volume() < minOverlapFrac*bounds.Volume() {
		return false
	}
	if !s.graph.CanAdvance(bounds, res) {
		return false
	}
	s.inResult.Reset()
	for _, id := range obs.Result {
		s.inResult.Add(id)
	}
	removed := s.removedIDs[:0]
	surviving := 0
	s.graph.ForEachLive(func(_ int32, id pagestore.ObjectID) {
		if s.inResult.Has(id) {
			surviving++
		} else {
			removed = append(removed, id)
		}
	})
	s.removedIDs = removed
	denom := len(obs.Result)
	if live := surviving + len(removed); live > denom {
		denom = live
	}
	if denom == 0 || float64(surviving) < minOverlapFrac*float64(denom) {
		return false
	}
	added := s.addedIDs[:0]
	for _, id := range obs.Result {
		if !s.graph.Contains(id) {
			added = append(added, id)
		}
	}
	s.addedIDs = added
	s.graph.Advance(bounds, res, removed, added)
	if s.adjacency != nil {
		// Wire the newly entered objects into the explicit graph. Dataset
		// adjacency is symmetric, so survivor↔added edges are covered by the
		// added side alone; survivor↔survivor edges persisted in the arena.
		for _, id := range added {
			for _, nb := range s.adjacency[id] {
				if s.inResult.Has(nb) && s.graph.Contains(nb) {
					s.graph.ConnectExplicit(id, nb)
				}
			}
		}
	}
	return true
}

// predict performs candidate pruning and the prediction traversal (§4.3,
// §4.4). It returns the candidate exits, the number of candidate
// structures, and the modeled prediction cost. One crossings pass over the
// live graph serves both candidate matching and exit extraction; every
// buffer is recycled across queries.
func (s *Scout) predict(g *sgraph.Graph, region geom.Region, side, estGap float64) ([]sgraph.Boundary, int, time.Duration) {
	ops0 := g.Ops()

	s.crossBuf = g.AppendCrossings(s.crossBuf[:0], region)
	crossings := s.crossBuf
	startVerts := s.startVerts[:0]
	var prevPts []geom.Vec3
	reset := len(s.prevExits) == 0 || s.cfg.DisablePruning
	if !reset {
		// Match this query's crossings against where the previous exits
		// PROJECT to: the exit point extrapolated across the gap along the
		// structure's direction. Projection keeps the tolerance tight even
		// for large gaps — inflating the radius around the old exit point
		// instead would eventually match every structure in the query and
		// void the pruning. A crossing matches a projected point when it is
		// within tol AND its outward direction OPPOSES the walk — an
		// entering structure's outward crossing points back toward where
		// the user came from.
		tol := side*matchTolFrac + estGap*0.6
		s.projPts = appendProjectedPoints(s.projPts[:0], s.prevExits, estGap)
		s.projDirs = appendBoundaryDirs(s.projDirs[:0], s.prevExits)
		tol2 := tol * tol
		// Flat point/direction arrays keep the quadratic matching loop on
		// compact cache lines instead of striding 56-byte Boundary records.
		cpts := s.crossPts[:0]
		cdirs := s.crossDirs[:0]
		for i := range crossings {
			cpts = append(cpts, crossings[i].Point)
			cdirs = append(cdirs, crossings[i].Dir)
		}
		s.crossPts = cpts
		s.crossDirs = cdirs
		for i := range cpts {
			for j := range s.projPts {
				if cpts[i].DistSq(s.projPts[j]) > tol2 {
					continue
				}
				if cdirs[i].Dot(s.projDirs[j]) > 0.3 {
					continue // heads the same way as the walk: not an entry
				}
				startVerts = append(startVerts, crossings[i].Vertex)
				break
			}
		}
		if len(startVerts) == 0 {
			reset = true // user switched structures (§4.3 reset)
		} else {
			prevPts = s.projPts
		}
	}
	if reset {
		prevPts = nil
		startVerts = startVerts[:0]
		for i := range crossings {
			startVerts = append(startVerts, crossings[i].Vertex)
		}
	}
	s.startVerts = startVerts
	exits, candidates := s.predictFrom(g, region, side, startVerts, prevPts, crossings)
	if !reset && estGap > side*0.05 {
		// "SCOUT has no way to prune candidates in the gap region and is
		// forced to traverse the entire graph" (§7.3): charge a full-graph
		// traversal — V + 2E ops, closed-form — on top of the candidate
		// traversal.
		g.ChargeFullTraversal()
	}

	predCost := time.Duration(g.Ops()-ops0) * costPerOp
	return exits, candidates, predCost
}

// predictFrom traverses the graph from the candidate start vertices and
// selects the forward exits. For each previous exit point, the NEAREST
// reachable crossing is where the structure entered this query; all other
// reachable crossings are where candidates leave it and become the
// predicted exits. On a reset (prevPts nil) every reachable crossing is a
// potential exit — the user's direction is unknown, so broad prefetching
// covers both ends of every structure.
//
// allCrossings, when non-nil, is the query's precomputed full crossing list:
// the reachable subset is filtered from it instead of re-clipping every
// reached vertex (the traversal itself still runs, and is still charged, for
// the modeled prediction cost). The returned exits live in s.exitStore and
// stay valid until the next query's predictFrom.
func (s *Scout) predictFrom(g *sgraph.Graph, region geom.Region, side float64, startVerts []int32, prevPts []geom.Vec3, allCrossings []sgraph.Boundary) ([]sgraph.Boundary, int) {
	g.MarkReachable(startVerts)
	cand := s.candBuf[:0]
	if allCrossings != nil {
		for i := range allCrossings {
			if g.Reached(allCrossings[i].Vertex) {
				cand = append(cand, allCrossings[i])
			}
		}
	} else {
		cand = g.AppendReachedCrossings(cand, region)
	}
	// Merge near-duplicate crossings BEFORE the quadratic entry/forward
	// classification: parallel fibers of one bundle cross the boundary
	// within a fraction of a cell of each other, and one representative per
	// exit location carries the same information at a fraction of the cost.
	// The 0.1·side radius is well under both the matching tolerance
	// (matchTolFrac·side) and dedupeLocations' 0.3·side, so neither
	// candidate pruning nor location selection loses resolution.
	cand = dedupeExitsInPlace(cand, side*0.1)
	s.candBuf = cand
	exits := cand
	if len(prevPts) > 0 {
		entry := s.entryBuf[:0]
		pts := s.candPts[:0]
		for i := range cand {
			entry = append(entry, false)
			pts = append(pts, cand[i].Point)
		}
		s.entryBuf = entry
		s.candPts = pts
		slack := side * 0.25
		for _, p := range prevPts {
			minD2 := -1.0
			for i := range pts {
				if d := pts[i].DistSq(p); minD2 < 0 || d < minD2 {
					minD2 = d
				}
			}
			if minD2 < 0 {
				continue
			}
			// d ≤ √minD2 + slack  ⟺  d² ≤ (√minD2 + slack)² for d ≥ 0.
			t := math.Sqrt(minD2) + slack
			t2 := t * t
			for i := range pts {
				if pts[i].DistSq(p) <= t2 {
					entry[i] = true
				}
			}
		}
		forward := s.fwdBuf[:0]
		for i := range cand {
			if !entry[i] {
				forward = append(forward, cand[i])
			}
		}
		s.fwdBuf = forward
		if len(forward) > 0 {
			exits = forward
		}
	}
	// Copy into the stable store: cand/fwd scratch is recycled next query,
	// but the exits survive as prevExits until then.
	s.exitStore = append(s.exitStore[:0], exits...)
	return s.exitStore, countComponents(g, startVerts)
}

// dedupeExitsInPlace keeps the first representative of every
// tol-neighborhood (deterministic: input order decides), compacting in
// place.
func dedupeExitsInPlace(exits []sgraph.Boundary, tol float64) []sgraph.Boundary {
	t2 := tol * tol
	n := 0
	for i := range exits {
		dup := false
		for j := 0; j < n; j++ {
			if exits[j].Point.DistSq(exits[i].Point) < t2 {
				dup = true
				break
			}
		}
		if !dup {
			exits[n] = exits[i]
			n++
		}
	}
	return exits[:n]
}

// requestsFor converts candidate exits into the prefetch plan: select
// locations per the strategy, then emit interleaved incremental ladders.
func (s *Scout) requestsFor(exits []sgraph.Boundary, volume, side, estGap float64) []geom.AABB {
	locs, volume := s.exitLocations(exits, volume, side, estGap)
	return s.putLadders(s.newPlan(len(locs)), locs, volume)
}

// exitLocations selects the anchors of the exit ladders and the volume they
// are sized to. With no exit to follow it falls back to extrapolating the
// centers linearly (e.g. the structure ends inside the query): SCOUT's
// backup is a straight line from past positions (§5.3). The locations live
// in recycled scratch until the next call.
func (s *Scout) exitLocations(exits []sgraph.Boundary, volume, side, estGap float64) ([]location, float64) {
	if volume <= 0 {
		volume = side * side * side
	}
	locs := s.selectLocations(exits, side, estGap)
	if len(locs) > 0 {
		return locs, volume
	}
	n := len(s.centers)
	if n < 2 {
		return locs, volume
	}
	delta := s.centers[n-1].Sub(s.centers[n-2])
	if delta.Len() == 0 {
		return locs, volume
	}
	dir := delta.Normalize()
	anchor := s.centers[n-1].Add(delta).Sub(dir.Scale(side / 2))
	s.locs = append(locs, location{center: anchor, dir: dir})
	return s.locs, volume
}

// newPlan returns an empty request slice with room for exactly the given
// number of ladders, or nil for none. Plans are handed to the engine and
// must survive the next Observe, so they are never recycled.
func (s *Scout) newPlan(ladders int) []geom.AABB {
	if ladders == 0 {
		return nil
	}
	return make([]geom.AABB, 0, ladders*s.cfg.Ladder)
}

// putLadders appends one incremental ladder per location, interleaved
// round-robin so every location gets its small, high-priority requests
// served before any location's large ones: the broad strategy's
// equal-weight split (§5.2.2). Every ladder has cfg.Ladder rungs, so rung r
// of location i lands at r·len(locs)+i.
func (s *Scout) putLadders(dst []geom.AABB, locs []location, volume float64) []geom.AABB {
	n := len(dst)
	dst = dst[:n+len(locs)*s.cfg.Ladder]
	for i, l := range locs {
		prefetch.PutLadder(dst[n+i:], len(locs), s.cfg.Ladder, l.center, l.dir, volume)
	}
	return dst
}

// location is one predicted prefetch anchor: the expected entry point E of
// the next query (the candidate's exit, shifted across any gap) and the
// extrapolation direction.
type location struct {
	center geom.Vec3
	dir    geom.Vec3
}

// selectLocations extrapolates each exit linearly to a predicted query
// center (§4.4), then applies the strategy: deep picks one at random
// (§5.2.1); broad keeps all, k-means clustering down to MaxLocations when
// there are too many (§5.2.2). The locations live in s.locs.
func (s *Scout) selectLocations(exits []sgraph.Boundary, side, estGap float64) []location {
	locs := s.locs[:0]
	if len(exits) == 0 {
		return locs
	}
	// The anchor is the expected entry point of the next query: the exit
	// point itself for adjacent queries, shifted by the estimated gap when
	// the sequence has gaps (§5.3 linear extrapolation).
	mk := func(e sgraph.Boundary) location {
		return location{center: e.Point.Add(e.Dir.Scale(estGap)), dir: e.Dir}
	}
	if s.cfg.Strategy == Deep {
		s.locs = append(locs, mk(exits[s.rng.Intn(len(exits))]))
		return s.locs
	}
	if len(exits) > s.cfg.MaxLocations {
		// Too many exits: k-means the exit points and take one exit per
		// cluster at random (§5.2.2).
		exits = s.kmeansRepresentatives(exits, s.cfg.MaxLocations)
	}
	for _, e := range exits {
		locs = append(locs, mk(e))
	}
	s.locs = dedupeLocations(locs, side*0.3)
	return s.locs
}

// dedupeLocations merges locations closer than tol (overlapping prefetch
// queries would waste window; the paper expands overlapping regions, we
// simply merge them), keeping the first of each and compacting in place.
func dedupeLocations(locs []location, tol float64) []location {
	n := 0
	for _, l := range locs {
		dup := false
		for _, o := range locs[:n] {
			if l.center.Dist(o.center) < tol {
				dup = true
				break
			}
		}
		if !dup {
			locs[n] = l
			n++
		}
	}
	return locs[:n]
}

// appendProjectedPoints extrapolates each exit across the gap along its
// outward direction — the expected entry points of the next query (§5.3) —
// appending to dst so callers can recycle the buffer.
func appendProjectedPoints(dst []geom.Vec3, bs []sgraph.Boundary, gap float64) []geom.Vec3 {
	for _, b := range bs {
		dst = append(dst, b.Point.Add(b.Dir.Scale(gap)))
	}
	return dst
}

// appendBoundaryDirs extracts the outward directions of the boundaries,
// appending to dst.
func appendBoundaryDirs(dst []geom.Vec3, bs []sgraph.Boundary) []geom.Vec3 {
	for _, b := range bs {
		dst = append(dst, b.Dir)
	}
	return dst
}

// countComponents counts distinct connected components among the vertices
// (root dedup over union-find, O(k·α)).
func countComponents(g *sgraph.Graph, verts []int32) int {
	return g.CountComponentsOf(verts)
}

// graphBuildCost models the CPU time of graph construction from the graph's
// per-lifecycle work counters. A fresh build charges every vertex and edge
// (BuildVertices = V, BuildEdges = E, no maintenance — exactly the paper's
// §8.1 calibration); a delta build charges only the delta work: objects
// inserted, resurrected or re-walked, edges created or detached, plus the
// cheap per-slot maintenance of lazy connectivity rebuilds and compaction.
func graphBuildCost(g *sgraph.Graph) time.Duration {
	return time.Duration(g.BuildVertices())*costPerObject +
		time.Duration(g.BuildEdges())*costPerEdge +
		time.Duration(g.MaintOps())*costPerMaintOp
}

// sideOf returns the cube-equivalent side length of a box.
func sideOf(b geom.AABB) float64 {
	return math.Cbrt(b.Volume())
}

// kmeansRepresentatives clusters the exits' points into k clusters with
// Lloyd's algorithm (the paper cites k-means' smoothed polynomial
// complexity, §5.2.2) and returns one exit per non-empty cluster, chosen at
// random. Scratch (assignments, centers, representatives) is recycled on
// the prefetcher.
func (s *Scout) kmeansRepresentatives(exits []sgraph.Boundary, k int) []sgraph.Boundary {
	rng := s.rng
	if len(exits) <= k {
		return exits
	}
	if k > 16 {
		k = 16 // the accumulator arrays below are fixed-size
	}
	// Initialize centers from k distinct random exits (partial recycled
	// Fisher–Yates: only the first k swaps of a full shuffle are needed).
	perm := s.kmPerm[:0]
	for i := range exits {
		perm = append(perm, int32(i))
	}
	s.kmPerm = perm
	centers := s.kmCenters[:0]
	for i := 0; i < k; i++ {
		j := i + rng.Intn(len(perm)-i)
		perm[i], perm[j] = perm[j], perm[i]
		centers = append(centers, exits[perm[i]].Point)
	}
	s.kmCenters = centers
	assign := s.kmAssign[:0]
	for range exits {
		assign = append(assign, 0)
	}
	s.kmAssign = assign
	for iter := 0; iter < 10; iter++ {
		changed := false
		for i, e := range exits {
			best, bestD := 0, math.Inf(1)
			for c := range centers {
				if d := e.Point.DistSq(centers[c]); d < bestD {
					best, bestD = c, d
				}
			}
			if assign[i] != best {
				assign[i] = best
				changed = true
			}
		}
		if !changed && iter > 0 {
			break
		}
		var sum [16]geom.Vec3 // k ≤ MaxLocations is small
		var cnt [16]int
		for i := range exits {
			sum[assign[i]] = sum[assign[i]].Add(exits[i].Point)
			cnt[assign[i]]++
		}
		for c := 0; c < k; c++ {
			if cnt[c] > 0 {
				centers[c] = sum[c].Scale(1 / float64(cnt[c]))
			}
		}
	}
	// One random exit per non-empty cluster, in cluster order.
	var cnt [16]int
	for _, a := range assign {
		cnt[a]++
	}
	out := s.kmReps[:0]
	for c := 0; c < k; c++ {
		if cnt[c] == 0 {
			continue
		}
		r := rng.Intn(cnt[c])
		for i, a := range assign {
			if a != c {
				continue
			}
			if r == 0 {
				out = append(out, exits[i])
				break
			}
			r--
		}
	}
	s.kmReps = out
	return out
}

var _ prefetch.Prefetcher = (*Scout)(nil)
