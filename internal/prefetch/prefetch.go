// Package prefetch defines the prefetcher contract shared by SCOUT and the
// baselines, plus the baseline prefetchers of the paper's related work:
// Straight-Line extrapolation, Polynomial extrapolation, EWMA and Hilbert
// prefetching.
//
// A prefetcher never touches the disk or the cache itself. After every user
// query it receives an Observation (the query's location and — for
// content-aware approaches like SCOUT — its result), and returns a Plan: a
// prioritized list of prefetch regions. The engine executes the plan during
// the prefetch window, reading pages in plan order until the window closes,
// which realizes the paper's incremental prefetching (§5.1): data most
// likely to be needed is requested first, and an early end of the window
// cuts the tail, not the head.
package prefetch

import (
	"math"
	"time"

	"scout/internal/geom"
	"scout/internal/pagestore"
)

// Index is the read-only view of a spatial index that the engine and the
// prefetchers use to translate regions into pages. Both the R-tree and the
// FLAT index satisfy it.
type Index interface {
	// QueryPages appends to dst every page whose bounds intersect r, each
	// once, in ascending page-ID order, and returns the grown slice. Every
	// page it returns has bounds that overlap r.Bounds() (closed intervals,
	// as geom.AABB.Intersects: an empty box overlaps nothing). A region that
	// is not a geom.Frustum is a box: the result is exactly the pages whose
	// bounds overlap r.Bounds(), so a plan's box may come by value or by
	// pointer, and the engine's batched flush skips nested requests on the
	// strength of it. The engine relies on the order and sorts no probe's
	// pages. It must be safe for concurrent calls: the engine's PlanSessions
	// probes one index from all its workers, and RunSequence probes it from
	// its filter goroutine while the coordinator resolves prefetch requests
	// (and, observing inline, filters queries) on its own and a prefetcher
	// such as SCOUT-OPT walks the same index on the observe stage.
	QueryPages(r geom.Region, dst []pagestore.PageID) []pagestore.PageID
}

// Observation describes one completed user query.
type Observation struct {
	// Seq is the query's position in its sequence, starting at 0.
	Seq int
	// Region is the query region; Center its centroid on the user's path.
	Region geom.Region
	Center geom.Vec3
	// Result lists the matching objects — the query *content*. Baselines
	// ignore it; SCOUT is defined by using it.
	Result []pagestore.ObjectID
	// Pages lists the pages the query touched.
	Pages []pagestore.PageID
}

// Plan is what a prefetcher wants done during the coming prefetch window.
type Plan struct {
	// Requests are the plan's prefetch queries, each a box, executed in
	// order until the window closes.
	Requests []geom.AABB
	// GraphBuild is the modeled CPU cost of building this query's graph
	// (zero for baselines). It is interleaved with result retrieval (§4)
	// and therefore reported in breakdowns but not charged to the window.
	GraphBuild time.Duration
	// GraphDelta marks GraphBuild as a delta build: the graph was advanced
	// incrementally from the previous query's instead of rebuilt, and
	// GraphBuild charges only the delta work. Reported in breakdowns
	// (fig14/fig15) and counted by the engine's aggregates.
	GraphDelta bool
	// Prediction is the modeled CPU cost of computing the prediction. It is
	// charged against the prefetch window before any prefetch I/O (except
	// for index-assisted variants that hide it; see core.ScoutOpt).
	Prediction time.Duration
	// PredictionHidden marks prediction cost as overlapped with result
	// retrieval (SCOUT-OPT's sparse graph construction, §6.2): reported in
	// breakdowns but not subtracted from the window.
	PredictionHidden bool
	// TraversalPages are pages to read before the requests, regardless of
	// region queries — SCOUT-OPT's gap traversal I/O (§6.3). They are
	// charged as window I/O and loaded into the cache.
	TraversalPages []pagestore.PageID
}

// Prefetcher is implemented by every prefetching approach.
//
// The engine calls a prefetcher's methods one at a time, but not always
// from the goroutine that called the engine: Engine.RunSequence observes
// and plans on a pipeline stage of its own, a query ahead of the window it
// spends.
type Prefetcher interface {
	// Name identifies the approach in experiment tables.
	Name() string
	// Observe is called once per completed user query, in sequence order.
	// It may run on a goroutine other than the engine caller's.
	Observe(obs Observation)
	// Plan returns the prefetch plan for the window after the last
	// observed query. The plan must stay valid across the next Observe:
	// the engine may still be reading it while the prefetcher observes the
	// next query, so a prefetcher must not reuse the plan's slices for a
	// later plan.
	Plan() Plan
	// Reset drops all sequence-local state; called between sequences.
	Reset()
}

// Cloner is implemented by prefetchers that can produce an independent copy
// of themselves in freshly-constructed state, sharing only immutable data
// (store, index, dataset adjacency). The parallel experiment executor clones
// one prefetcher per worker; because Reset must also return a prefetcher to
// its fresh state (RNG included), a cloned prefetcher run on any subset of
// sequences produces exactly the per-sequence results of a sequential run.
// Prefetchers without Clone are executed sequentially.
type Cloner interface {
	Clone() Prefetcher
}

// IncrementalRequests builds the growing prefetch-query ladder of §5.1 and
// Figure 6: the first region is small and anchored at the expected entry
// point E of the next query, and each subsequent region grows from that
// anchor along the extrapolated axis until it covers (slightly more than)
// one query volume. Executing them in order prioritizes data closest to E —
// "prefetching data far away from E is more likely to be prefetched
// unnecessarily" — and an early end of the window cuts only the far tail.
// The rungs nest, each inside the next up to rounding: the engine's
// per-page flush reads them in order and skips pages an earlier rung cached,
// and its batched flush, which elevator-sorts the window anyway, probes only
// the rungs no other rung covers — normally the outermost alone.
//
// anchor is the expected entry point E of the next query, dir the (unit)
// extrapolation axis, volume the user's query volume, and steps the ladder
// length.
func IncrementalRequests(anchor, dir geom.Vec3, volume float64, steps int) []geom.AABB {
	if steps < 1 {
		steps = 1
	}
	reqs := make([]geom.AABB, steps)
	PutLadder(reqs, 1, steps, anchor, dir, volume)
	return reqs
}

// PutLadder writes the steps rungs of IncrementalRequests' ladder to
// dst[0], dst[stride], dst[2·stride], …, so several ladders can be written
// interleaved into one slice.
func PutLadder(dst []geom.AABB, stride, steps int, anchor, dir geom.Vec3, volume float64) {
	side := math.Cbrt(volume)
	for i := 1; i <= steps; i++ {
		f := float64(i) / float64(steps)
		// The region extends from just behind the anchor to up to 1.15
		// sides past it; the cross-section grows from 0.6 to 1.1 sides.
		length := side * (0.25 + 0.9*f)
		cross := side * (0.6 + 0.5*f)
		c := anchor.Add(dir.Scale(length/2 - side*0.1))
		half := dir.Abs().Scale(length / 2).
			Add(crossExtent(dir, cross/2))
		dst[(i-1)*stride] = geom.AABB{Min: c.Sub(half), Max: c.Add(half)}
	}
}

// crossExtent returns the half-extents perpendicular to dir: cross in every
// axis, attenuated along dir so the box is elongated in the walk direction.
func crossExtent(dir geom.Vec3, cross float64) geom.Vec3 {
	a := dir.Abs()
	return geom.V(cross*(1-a.X), cross*(1-a.Y), cross*(1-a.Z))
}
