package sgraph

import "scout/internal/geom"

// Boundary describes one crossing of the query-region boundary by a
// structure: the vertex whose object straddles the boundary, the crossing
// point, and the structure's direction there, always oriented OUTWARD (from
// inside the region toward outside). Orienting outward makes crossings
// direction-agnostic: whether the dataset stored the underlying segments
// tip-to-root or root-to-tip, and whichever way the user walks, the crossing
// on the far side of the walk points where the user is heading.
//
// Candidate pruning (§4.3) matches the crossings of query n against the
// previous query's predicted exits; prediction (§4.4) extrapolates the
// candidates' remaining crossings outward.
type Boundary struct {
	Vertex int32
	Point  geom.Vec3
	Dir    geom.Vec3
}

// appendCrossingsOf appends the outward-oriented boundary crossings of
// vertex v's segment with the region (box or frustum): zero, one (one
// endpoint outside), or two (the segment threads through the region).
func (g *Graph) appendCrossingsOf(dst []Boundary, v int32, region geom.Region) []Boundary {
	s := g.store.Object(g.ids[v]).Seg
	inA := region.ContainsPoint(s.A)
	inB := region.ContainsPoint(s.B)
	if inA && inB {
		return dst
	}
	tmin, tmax, ok := geom.ClipSegmentRegion(region, s)
	if !ok {
		return dst
	}
	return appendOutward(dst, v, s, inA, inB, tmin, tmax)
}

// appendOutward appends the crossings of vertex v's segment s, clipped to
// [tmin, tmax], at each endpoint that lies outside the region.
func appendOutward(dst []Boundary, v int32, s geom.Segment, inA, inB bool, tmin, tmax float64) []Boundary {
	dir := s.Dir().Normalize()
	if !inA { // A is outside: the crossing at the entry point heads A-ward
		dst = append(dst, Boundary{Vertex: v, Point: s.At(tmin), Dir: dir.Neg()})
	}
	if !inB { // B is outside: the crossing at the exit point heads B-ward
		dst = append(dst, Boundary{Vertex: v, Point: s.At(tmax), Dir: dir})
	}
	return dst
}

// AppendVertexCrossings appends the outward-oriented boundary crossings of
// one vertex to a caller-recycled buffer. Incremental builders use it to
// examine only newly added vertices instead of rescanning the whole graph.
// Boxes and frusta take AppendCrossings' devirtualized paths.
func (g *Graph) AppendVertexCrossings(dst []Boundary, v int32, region geom.Region) []Boundary {
	switch r := region.(type) {
	case geom.AABB:
		return g.appendBoxCrossingsOf(dst, v, r)
	case geom.Frustum:
		return g.appendFrustumCrossingsOf(dst, v, &r)
	}
	return g.appendCrossingsOf(dst, v, region)
}

// AppendCrossings appends every boundary crossing of the live graph
// relative to the region, outward-oriented, to a caller-recycled buffer: one
// pass over the live vertices, no per-vertex allocation. Boxes and frusta
// take devirtualized paths — through the interface, containment and
// clipping cost three dynamic dispatches per vertex, each of which copies a
// frustum's 384 bytes.
func (g *Graph) AppendCrossings(dst []Boundary, region geom.Region) []Boundary {
	if box, ok := region.(geom.AABB); ok {
		if g.gridOn && box == g.lat.clip {
			// The clip box IS the query region (fresh builds): a vertex whose
			// segment is strictly inside it (clipped[v] false) cannot cross
			// the boundary, so only the boundary-flagged minority is tested.
			for v := int32(0); v < int32(len(g.ids)); v++ {
				if g.dead[v] || !g.clipped[v] {
					continue
				}
				dst = g.appendBoxCrossingsOf(dst, v, box)
			}
			return dst
		}
		for v := int32(0); v < int32(len(g.ids)); v++ {
			if g.dead[v] {
				continue
			}
			dst = g.appendBoxCrossingsOf(dst, v, box)
		}
		return dst
	}
	if fr, ok := region.(geom.Frustum); ok {
		for v := int32(0); v < int32(len(g.ids)); v++ {
			if g.dead[v] {
				continue
			}
			dst = g.appendFrustumCrossingsOf(dst, v, &fr)
		}
		return dst
	}
	for v := int32(0); v < int32(len(g.ids)); v++ {
		if g.dead[v] {
			continue
		}
		dst = g.appendCrossingsOf(dst, v, region)
	}
	return dst
}

// appendBoxCrossingsOf is appendCrossingsOf specialized for box regions.
func (g *Graph) appendBoxCrossingsOf(dst []Boundary, v int32, box geom.AABB) []Boundary {
	s := g.store.Object(g.ids[v]).Seg
	inA := box.Contains(s.A)
	inB := box.Contains(s.B)
	if inA && inB {
		return dst
	}
	tmin, tmax, ok := s.ClipAABB(box)
	if !ok {
		return dst
	}
	return appendOutward(dst, v, s, inA, inB, tmin, tmax)
}

// appendFrustumCrossingsOf is appendCrossingsOf specialized for frusta,
// reading the frustum in place.
func (g *Graph) appendFrustumCrossingsOf(dst []Boundary, v int32, f *geom.Frustum) []Boundary {
	s := g.store.Object(g.ids[v]).Seg
	inA := f.Contains(s.A)
	inB := f.Contains(s.B)
	if inA && inB {
		return dst
	}
	tmin, tmax, ok := f.ClipSegment(s)
	if !ok {
		return dst
	}
	return appendOutward(dst, v, s, inA, inB, tmin, tmax)
}

// MarkReachable walks the graph from the start vertices, marking every
// reached vertex — query the marks with Reached until the next traversal
// begins. It charges exactly the traversal ops ReachableFrom would (one per
// vertex pop, one per edge scan), so prediction cost accounting is unchanged
// whichever form the caller uses.
func (g *Graph) MarkReachable(start []int32) {
	if len(g.ids) == 0 || len(start) == 0 {
		g.beginVisit() // invalidate stale marks from a previous traversal
		return
	}
	stack := g.beginVisit()
	for _, v := range start {
		if v >= 0 && int(v) < len(g.ids) && !g.dead[v] && !g.visitedOnce(v) {
			stack = append(stack, v)
		}
	}
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		g.ops++
		for _, w := range g.adj[v] {
			g.ops++
			if !g.visitedOnce(w) {
				stack = append(stack, w)
			}
		}
	}
	g.stack = stack[:0]
}

// Reached reports whether v was marked by the last MarkReachable walk.
func (g *Graph) Reached(v int32) bool {
	return int(v) < len(g.visitGen) && g.visitGen[v] == g.visitEpoch
}

// AppendReachedCrossings appends the crossings of every vertex marked by the
// last MarkReachable walk, in vertex order.
func (g *Graph) AppendReachedCrossings(dst []Boundary, region geom.Region) []Boundary {
	for v := int32(0); v < int32(len(g.ids)); v++ {
		if g.dead[v] || !g.Reached(v) {
			continue
		}
		dst = g.AppendVertexCrossings(dst, v, region)
	}
	return dst
}

// CountComponentsOf counts distinct connected components among the given
// live vertices in O(k·α), recycling the visit stamps for root dedup (this
// invalidates MarkReachable marks).
func (g *Graph) CountComponentsOf(verts []int32) int {
	if len(verts) == 0 {
		return 0
	}
	g.ensureConnectivity()
	g.beginVisit()
	n := 0
	for _, v := range verts {
		if r := g.find(v); !g.visitedOnce(r) {
			n++
		}
	}
	return n
}

// ReachableCrossings performs the prediction traversal of §4.4: a
// depth-first walk from the given start vertices (the candidate structures'
// matched crossings), returning the boundary crossings of every reached
// vertex. The walk is linear in reached vertices and edges; each pop and
// edge scan increments the ops counter. (The SCOUT hot path uses the
// equivalent MarkReachable + AppendCrossings filtering to recycle buffers;
// this composed form remains the reference implementation.)
func (g *Graph) ReachableCrossings(start []int32, region geom.Region) []Boundary {
	if len(g.ids) == 0 || len(start) == 0 {
		return nil
	}
	stack := g.beginVisit()
	for _, v := range start {
		if v >= 0 && int(v) < len(g.ids) && !g.dead[v] && !g.visitedOnce(v) {
			stack = append(stack, v)
		}
	}
	var crossings []Boundary
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		g.ops++
		crossings = g.appendCrossingsOf(crossings, v, region)
		for _, w := range g.adj[v] {
			g.ops++
			if !g.visitedOnce(w) {
				stack = append(stack, w)
			}
		}
	}
	g.stack = stack[:0]
	return crossings
}

// ReachableFrom returns all vertices reachable from the start set.
func (g *Graph) ReachableFrom(start []int32) []int32 {
	if len(start) == 0 {
		return nil
	}
	stack := g.beginVisit()
	var out []int32
	for _, v := range start {
		if v >= 0 && int(v) < len(g.ids) && !g.dead[v] && !g.visitedOnce(v) {
			stack = append(stack, v)
		}
	}
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		g.ops++
		out = append(out, v)
		for _, w := range g.adj[v] {
			g.ops++
			if !g.visitedOnce(w) {
				stack = append(stack, w)
			}
		}
	}
	g.stack = stack[:0]
	return out
}
