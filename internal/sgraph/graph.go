// Package sgraph builds and traverses the approximate spatial graphs at the
// core of SCOUT's prediction (paper §4.2–§4.4).
//
// Objects in a query result become graph vertices; two objects are connected
// when they are spatially close. Closeness is established by grid hashing:
// the query region is partitioned into equi-volume cells, every object's
// simplified geometry (a line segment) is mapped to the cells it passes
// through with a voxel walk, and objects sharing a cell are connected
// pairwise. Datasets with an explicit underlying graph (polygon meshes) skip
// grid hashing and use the dataset adjacency directly.
//
// The graph supports incremental construction — SCOUT interleaves graph
// building with result retrieval (§4), and SCOUT-OPT's sparse construction
// adds one page at a time (§6.2) — so vertices may be added at any moment,
// with union-find connectivity kept current throughout.
//
// A Graph is an arena with two lifecycles:
//
//   - Reset reconfigures it for a new query region while recycling every
//     backing array, so a prefetcher that rebuilds its graph per query runs
//     allocation-free at steady state. Grid cells live in an epoch-stamped
//     dense directory (falling back to a world-keyed open-addressed table at
//     extreme resolutions) with an array-linked occupant chain; the vertex
//     table is an idtable.Map. Epoch stamps make clearing O(1).
//
//   - Advance (and AdvanceWithin, the gap-corridor variant) carries the
//     graph from one query to the next without rebuilding: surviving
//     vertices keep their grid-cell chains and adjacency untouched, departed
//     vertices become epoch-stamped tombstones (compacted away periodically),
//     and only newly entered objects pay the voxel walk. Grid hashing runs on
//     a world-anchored lattice (see lattice.go) so cells stay valid as the
//     query window moves; union-find, which supports no deletion, is rebuilt
//     lazily over the live vertices — only when a connectivity query
//     (CountComponentsOf, MarkComponents, Components) follows a removal.
package sgraph

import (
	"scout/internal/geom"
	"scout/internal/idtable"
	"scout/internal/pagestore"
)

// entry is one cell-chain element: the occupant vertex and the next entry
// index (−1 terminates). Interleaved so a chain hop costs one cache line.
type entry struct {
	vert, next int32
}

// cellSlot is one dense-directory cell: chain head plus the epoch stamp that
// validates it. Interleaved in one 8-byte slot so a cell touch costs one
// cache line, not two.
type cellSlot struct {
	head int32
	gen  uint32
}

// maxDenseCells bounds the dense cell directory. The paper's operating
// points (Figure 13e sweeps 8..32768 total cells) all fit; resolutions
// beyond it use the world-keyed open-addressed table instead so memory stays
// proportional to cells actually touched.
const maxDenseCells = 1 << 18

// Graph is the approximate graph of a query result. It is built for one
// region and either rebuilt (Reset) or advanced in place (Advance) for the
// next; both lifecycles recycle all storage. Nothing carries across a
// Reset but that recycled capacity, so what an arena retains is bounded by
// the largest result it has built, not by every object it has ever hashed
// (§8.2 prices the graph against the result it models).
type Graph struct {
	store      *pagestore.Store
	lat        lattice
	gridOn     bool
	resolution int

	ids  []pagestore.ObjectID
	vert idtable.Map[pagestore.ObjectID, int32] // object ID → vertex (tombstoned entries stay until compaction)
	adj  [][]int32
	// edges counts undirected edges among live vertices (kills remove their
	// edges eagerly, so adjacency lists never contain dead vertices).
	edges int
	// parent/rank implement union-find over vertices for O(α) incremental
	// connectivity. Union-find has no deletion: kills mark it dirty and
	// ensureConnectivity rebuilds it lazily over the live vertices.
	parent  []int32
	rank    []int8
	ufDirty bool

	// Tombstones: dead[v] marks an evicted vertex. Its slot, vertex-table
	// entry and grid-cell chain entries stay behind (skipped by scans) until
	// compact squeezes them out; re-adding the object resurrects the slot.
	dead      []bool
	deadCount int
	// clipped[v] records that v's segment was clipped by the lattice window
	// when last hashed; window growth re-walks exactly these vertices.
	clipped []bool

	// Grid-cell directory: cell → head of its occupant chain in
	// entVert/entNext (−1 terminates). Dense mode indexes cellHead by the
	// cell's window-local index, with cellGen validating slots against
	// cellEpoch; sparse mode keys the open-addressed cellMap64 by the cell's
	// packed world coordinates. The first window growth migrates dense
	// directories to world keys, since a moving window would otherwise
	// renumber every local index.
	denseCells bool
	cellSlots  []cellSlot
	cellEpoch  uint32
	cellMap64  idtable.Map[uint64, int32]
	ents       []entry
	// cellCount[v] counts v's chain entries; entLive counts chain entries
	// belonging to live vertices, so §8.2 memory accounting can exclude
	// tombstoned entries awaiting compaction. touchedCells lists every
	// distinct occupied cell by its directory index — the dense slot, or the
	// world key once migrated — so migration and compaction visit occupied
	// cells, never the directory's full capacity.
	cellCount    []int32
	entLive      int
	touchedCells []uint64
	// cellsTouched counts distinct cells with at least one occupant this
	// query, for memory accounting (§8.2).
	cellsTouched int

	// Delta-work counters, reset at every lifecycle boundary (Reset, Advance,
	// AdvanceWithin): buildVerts counts vertices inserted, resurrected or
	// re-walked; buildEdges counts edges created plus edges removed by kills;
	// maintOps counts the cheap per-slot bookkeeping of lazy connectivity
	// rebuilds, directory migration and compaction. The prefetchers charge
	// modeled build cost from these, so delta builds are billed delta work.
	buildVerts int
	buildEdges int
	maintOps   int64

	// ops counts elementary traversal operations (vertex pops and edge
	// scans); Figures 14 and 16 report prediction cost, which this counter
	// makes deterministic and machine-independent.
	ops int64
	// keyScratch avoids re-allocating the voxel-walk buffer per object;
	// visitGen/visitEpoch/stack recycle the traversal working set of
	// ReachableFrom and ReachableCrossings the same way; remapScratch,
	// entScratch and the entAlt arrays are compaction's working set.
	keyScratch []uint64
	// pairGen/pairEpoch dedupe connect attempts within one vertex's hash
	// walk: objects sharing several cells would otherwise re-scan adjacency
	// per shared cell.
	pairGen      []uint32
	pairEpoch    uint32
	visitGen     []uint32
	visitEpoch   uint32
	marked       markStamp // the state the last MarkComponents stamped
	stack        []int32
	remapScratch []int32
	entScratch   []int32
	headScratch  []int32
	entsAlt      []entry
}

// New creates an empty graph whose grid hashing covers bounds with the given
// total cell count (the paper's grid resolution, Figure 13e). A resolution
// of 0 disables grid hashing; vertices are then connected only explicitly
// via ConnectExplicit (the polygon-mesh path).
func New(store *pagestore.Store, bounds geom.AABB, resolution int) *Graph {
	g := &Graph{store: store}
	g.Reset(bounds, resolution)
	return g
}

// Reset reconfigures the graph for a new query region, dropping all vertices
// and edges while keeping every backing array for reuse. A graph reset for
// each query behaves identically to a freshly allocated one but stops
// allocating once its arenas have grown to the workload's steady state.
func (g *Graph) Reset(bounds geom.AABB, resolution int) {
	var lat lattice
	if resolution > 0 {
		lat = makeLattice(bounds, resolution)
	}
	g.resetToLattice(lat, resolution)
}

// resetToLattice is Reset with an explicit lattice, so equivalence tests can
// rebuild a fresh graph on the exact (grown) window an advanced graph uses.
func (g *Graph) resetToLattice(lat lattice, resolution int) {
	g.ids = g.ids[:0]
	g.adj = g.adj[:0]
	g.parent = g.parent[:0]
	g.rank = g.rank[:0]
	g.dead = g.dead[:0]
	g.clipped = g.clipped[:0]
	g.pairGen = g.pairGen[:0]
	g.deadCount = 0
	g.ufDirty = false
	g.edges = 0
	g.vert.Reset()
	g.ents = g.ents[:0]
	g.cellCount = g.cellCount[:0]
	g.entLive = 0
	g.touchedCells = g.touchedCells[:0]
	g.cellsTouched = 0
	g.resetBuildCounters()

	g.resolution = resolution
	g.gridOn = resolution > 0
	if !g.gridOn {
		return
	}
	g.lat = lat
	n := g.lat.numCells()
	g.denseCells = n <= maxDenseCells
	g.cellMap64.Reset()
	if g.denseCells {
		if cap(g.cellSlots) < n {
			g.cellSlots = make([]cellSlot, n)
		} else {
			g.cellSlots = g.cellSlots[:n]
		}
		g.cellEpoch++
		if g.cellEpoch == 0 { // wrapped: stale stamps could collide, clear
			for i := range g.cellSlots {
				g.cellSlots[i].gen = 0
			}
			g.cellEpoch = 1
		}
	}
}

func (g *Graph) resetBuildCounters() {
	g.buildVerts = 0
	g.buildEdges = 0
	g.maintOps = 0
}

// CanAdvance reports whether the graph can be carried into a query at
// (bounds, resolution) without a rebuild: the resolution must match, the
// implied cell size must equal the current lattice's (a different query
// volume changes closeness semantics), and the grown window must stay within
// the lattice's packed coordinate range. Explicit-adjacency graphs
// (resolution 0) always carry over.
func (g *Graph) CanAdvance(bounds geom.AABB, resolution int) bool {
	if resolution != g.resolution {
		return false
	}
	if !g.gridOn {
		return resolution <= 0
	}
	return g.lat.sameCell(bounds, resolution) && g.lat.canCover(bounds)
}

// Advance carries the graph from the previous query's result set to the
// next: removed objects are tombstoned (their edges detached eagerly, their
// slots and cell-chain entries left behind until compaction), surviving
// vertices keep their grid-cell chains and adjacency untouched, and added
// objects are inserted and hashed as usual. The lattice window grows — never
// shrinks — to cover the new bounds; survivors whose segments were clipped
// by the old window are re-walked when growth uncovers more of them.
// Connectivity is rebuilt lazily on the next connectivity query.
// Callers must check CanAdvance first; resolution is the caller's (matching)
// grid resolution.
func (g *Graph) Advance(bounds geom.AABB, resolution int, removed, added []pagestore.ObjectID) {
	g.maybeCompact()
	g.resetBuildCounters()
	for _, id := range removed {
		if v, ok := g.vert.Get(id); ok && !g.dead[v] {
			g.kill(v)
		}
	}
	g.growWindow(bounds)
	for _, id := range added {
		g.AddObject(id)
	}
}

// AdvanceWithin carries the graph forward keeping every live vertex whose
// object intersects bounds and tombstoning the rest — the gap-corridor
// lifecycle: structure recovered from pages read for earlier corridors stays
// usable at zero additional I/O as long as it lies inside the new corridor.
// Returns false (graph untouched) when the lattice cannot be carried over.
func (g *Graph) AdvanceWithin(bounds geom.AABB, resolution int) bool {
	if !g.CanAdvance(bounds, resolution) {
		return false
	}
	g.maybeCompact()
	g.resetBuildCounters()
	for v := int32(0); v < int32(len(g.ids)); v++ {
		if !g.dead[v] && !g.store.Object(g.ids[v]).IntersectsBox(bounds) {
			g.kill(v)
		}
	}
	g.growWindow(bounds)
	return true
}

// growWindow extends the lattice window to cover bounds, migrating a dense
// cell directory to world keys on first growth (a moved window renumbers
// every local index) and re-walking the clipped survivors the growth
// uncovered.
func (g *Graph) growWindow(bounds geom.AABB) {
	if !g.gridOn || g.lat.covers(bounds) {
		return
	}
	if g.denseCells {
		g.migrateToWorldKeys()
	}
	old := g.lat
	if !g.lat.grow(bounds) {
		return
	}
	for v := int32(0); v < int32(len(g.ids)); v++ {
		if g.dead[v] || !g.clipped[v] {
			continue
		}
		s := g.store.Object(g.ids[v]).Seg
		if sameClip(&old, &g.lat, s) {
			continue
		}
		g.buildVerts++
		g.hashVertex(v, true)
	}
}

// migrateToWorldKeys moves a dense cell directory into the world-keyed
// sparse table. Runs once per delta lifecycle, before the first window
// growth, over the occupied cells touchedCells lists (rewritten in place
// from slots to keys). The model still charges the scan of the whole
// (small, ≤ resolution-sized) initial window the migration was priced at.
func (g *Graph) migrateToWorldKeys() {
	for i, c := range g.touchedCells {
		key := g.lat.denseKey(int(c))
		g.cellMap64.Put(key, g.cellSlots[c].head)
		g.touchedCells[i] = key
	}
	g.chargeScan(int64(g.lat.numCells()))
	g.denseCells = false
}

// chargeScan charges a sequential full-array pass to the maintenance
// counter at a 1/16 discount: streaming gen-check scans cost an order less
// per slot than the random-access probe work maintOps otherwise counts.
func (g *Graph) chargeScan(n int64) {
	g.maintOps += n/16 + 1
}

// NumVertices returns the number of live vertices.
func (g *Graph) NumVertices() int { return len(g.ids) - g.deadCount }

// NumEdges returns the number of undirected edges among live vertices.
func (g *Graph) NumEdges() int { return g.edges }

// BuildVertices returns the vertices inserted, resurrected or re-walked
// since the last lifecycle boundary — the per-object work of this build.
func (g *Graph) BuildVertices() int { return g.buildVerts }

// BuildEdges returns the edges created plus edges detached by kills since
// the last lifecycle boundary — the per-edge work of this build.
func (g *Graph) BuildEdges() int { return g.buildEdges }

// MaintOps returns the elementary maintenance operations (lazy connectivity
// rebuilds, directory migration, compaction) since the last lifecycle
// boundary.
func (g *Graph) MaintOps() int64 { return g.maintOps }

// ObjectOf returns the stored object of vertex v.
func (g *Graph) ObjectOf(v int32) pagestore.Object {
	return g.store.Object(g.ids[v])
}

// VertexOf returns the live vertex of an object, or -1 when absent or
// tombstoned.
func (g *Graph) VertexOf(id pagestore.ObjectID) int32 {
	if v, ok := g.vert.Get(id); ok && !g.dead[v] {
		return v
	}
	return -1
}

// Contains reports whether the object is a live vertex.
func (g *Graph) Contains(id pagestore.ObjectID) bool {
	v, ok := g.vert.Get(id)
	return ok && !g.dead[v]
}

// ForEachLive calls f for every live vertex in index order.
func (g *Graph) ForEachLive(f func(v int32, id pagestore.ObjectID)) {
	for v := int32(0); v < int32(len(g.ids)); v++ {
		if !g.dead[v] {
			f(v, g.ids[v])
		}
	}
}

// AddObject inserts the object as a vertex (idempotently) and, when grid
// hashing is enabled, connects it to every object sharing a grid cell.
// It returns the object's vertex.
func (g *Graph) AddObject(id pagestore.ObjectID) int32 {
	v, _ := g.AddObjectFirst(id)
	return v
}

// AddObjectFirst is AddObject also reporting whether the call inserted or
// resurrected the object's vertex; re-adding a live vertex reports false.
// Incremental builders use the flag to process each object exactly once per
// query.
func (g *Graph) AddObjectFirst(id pagestore.ObjectID) (int32, bool) {
	if v, ok := g.vert.Get(id); ok {
		if !g.dead[v] {
			return v, false
		}
		// Tombstoned: resurrect the slot. Its cell-chain entries are still in
		// place, so the re-walk connects to live occupants without chaining
		// the vertex twice.
		g.dead[v] = false
		g.deadCount--
		g.entLive += int(g.cellCount[v]) // its chain entries are live again
		g.buildVerts++
		if g.gridOn {
			g.hashVertex(v, true)
		}
		return v, true
	}
	v := int32(len(g.ids))
	g.ids = append(g.ids, id)
	g.vert.Put(id, v)
	if len(g.adj) < cap(g.adj) {
		// Recycle the retired adjacency list parked at this slot.
		g.adj = g.adj[:v+1]
		g.adj[v] = g.adj[v][:0]
	} else {
		g.adj = append(g.adj, nil)
	}
	g.parent = append(g.parent, v)
	g.rank = append(g.rank, 0)
	g.dead = append(g.dead, false)
	g.clipped = append(g.clipped, false)
	g.cellCount = append(g.cellCount, 0)
	g.pairGen = append(g.pairGen, 0)
	g.buildVerts++
	if g.gridOn {
		g.hashVertex(v, false)
	}
	return v, true
}

// hashVertex maps vertex v's segment onto the lattice, connects it to every
// live occupant of the cells it passes through, and appends it to their
// chains. checkPresent guards re-walks (resurrection, window growth): the
// vertex may already be chained into some of its cells and must not be
// chained twice. A vertex that starts the walk without edges (new or
// resurrected) has none the walk could repeat, and pairGen dedupes the walk
// itself, so its edges are linked without connect's duplicate scan.
func (g *Graph) hashVertex(v int32, checkPresent bool) {
	s := g.store.Object(g.ids[v]).Seg
	// Strict interior containment decides the clipped flag and the clip
	// fast path (strictly inside ⇒ clips to the full segment).
	allInside := g.lat.strictlyContains(s.A) && g.lat.strictlyContains(s.B)
	dense := g.denseCells
	g.keyScratch = g.lat.segmentCells(s, g.keyScratch[:0], allInside, dense)
	g.beginPairWalk(v)
	fresh := len(g.adj[v]) == 0
	added := int32(0)
	for _, c := range g.keyScratch {
		head := int32(-1)
		if dense {
			if slot := g.cellSlots[c]; slot.gen == g.cellEpoch {
				head = slot.head
			} else {
				g.cellsTouched++
				g.touchedCells = append(g.touchedCells, c)
			}
		} else if h, ok := g.cellMap64.Get(c); ok {
			head = h
		} else {
			g.cellsTouched++
			g.touchedCells = append(g.touchedCells, c)
		}
		if g.scanChain(v, head, fresh) && checkPresent {
			continue
		}
		g.ents = append(g.ents, entry{vert: v, next: head})
		added++
		if dense {
			g.cellSlots[c] = cellSlot{head: int32(len(g.ents)) - 1, gen: g.cellEpoch}
		} else {
			g.cellMap64.Put(c, int32(len(g.ents))-1)
		}
	}
	g.cellCount[v] += added
	g.entLive += int(added)
	g.clipped[v] = !allInside
}

// beginPairWalk starts a connect-dedup epoch for one vertex's hash walk.
func (g *Graph) beginPairWalk(v int32) {
	g.pairEpoch++
	if g.pairEpoch == 0 { // wrapped: stale stamps could collide, clear
		for i := range g.pairGen {
			g.pairGen[i] = 0
		}
		g.pairEpoch = 1
	}
	g.pairGen[v] = g.pairEpoch // never self-connect
}

// scanChain connects v to the live occupants of one cell chain, reporting
// whether v itself is already chained there. fresh is hashVertex's: link
// instead of connect.
func (g *Graph) scanChain(v, head int32, fresh bool) (present bool) {
	for e := head; e >= 0; e = g.ents[e].next {
		w := g.ents[e].vert
		if w == v {
			present = true
			continue
		}
		if g.dead[w] || g.pairGen[w] == g.pairEpoch {
			continue
		}
		g.pairGen[w] = g.pairEpoch
		if fresh {
			g.link(v, w)
		} else {
			g.connect(v, w)
		}
	}
	return present
}

// ConnectExplicit adds an edge between two objects' vertices, inserting the
// vertices if needed. This is the explicit-graph path for datasets with
// adjacency information (polygon meshes, road topology).
func (g *Graph) ConnectExplicit(a, b pagestore.ObjectID) {
	va := g.AddObject(a)
	vb := g.AddObject(b)
	g.connect(va, vb)
}

// connect adds an undirected edge if absent. Duplicate suppression scans the
// shorter adjacency list; grid hashing yields short lists at sane
// resolutions. The modeled graph building cost counts the edges added, not
// the scan.
func (g *Graph) connect(a, b int32) {
	if a == b {
		return
	}
	la, lb := g.adj[a], g.adj[b]
	shorter := la
	if len(lb) < len(la) {
		shorter = lb
	}
	other := b
	if len(lb) < len(la) {
		other = a
	}
	for _, w := range shorter {
		if w == other {
			return
		}
	}
	g.link(a, b)
}

// link adds the undirected edge a–b, which the caller knows is absent.
func (g *Graph) link(a, b int32) {
	g.adj[a] = append(g.adj[a], b)
	g.adj[b] = append(g.adj[b], a)
	g.edges++
	g.buildEdges++
	g.union(a, b)
}

// kill tombstones vertex v: its edges are detached eagerly (adjacency lists
// must stay free of dead vertices so traversals need no liveness checks),
// its cell-chain entries stay behind as tombstones skipped by later scans,
// and — since union-find cannot delete — connectivity is marked for a lazy
// per-epoch rebuild.
func (g *Graph) kill(v int32) {
	n := len(g.adj[v])
	for _, w := range g.adj[v] {
		g.detachHalfEdge(w, v)
	}
	g.edges -= n
	g.buildEdges += n
	g.adj[v] = g.adj[v][:0]
	g.dead[v] = true
	g.deadCount++
	g.entLive -= int(g.cellCount[v])
	if n > 0 {
		g.ufDirty = true
	}
}

// detachHalfEdge removes v from w's adjacency list (swap-remove).
func (g *Graph) detachHalfEdge(w, v int32) {
	a := g.adj[w]
	for i, x := range a {
		if x == v {
			a[i] = a[len(a)-1]
			g.adj[w] = a[:len(a)-1]
			return
		}
	}
}

// find returns the union-find root of v with path halving.
func (g *Graph) find(v int32) int32 {
	for g.parent[v] != v {
		g.parent[v] = g.parent[g.parent[v]]
		v = g.parent[v]
	}
	return v
}

func (g *Graph) union(a, b int32) {
	ra, rb := g.find(a), g.find(b)
	if ra == rb {
		return
	}
	if g.rank[ra] < g.rank[rb] {
		ra, rb = rb, ra
	}
	g.parent[rb] = ra
	if g.rank[ra] == g.rank[rb] {
		g.rank[ra]++
	}
}

// ensureConnectivity rebuilds union-find over the live vertices if a kill
// invalidated it. Union-find supports no deletion, so the delta lifecycle
// defers the rebuild until a connectivity query actually consults it —
// at most once per epoch, and never for pure builds.
func (g *Graph) ensureConnectivity() {
	if !g.ufDirty {
		return
	}
	g.ufDirty = false
	for v := range g.parent {
		g.parent[v] = int32(v)
		g.rank[v] = 0
	}
	ops := int64(len(g.parent))
	for v := int32(0); v < int32(len(g.ids)); v++ {
		if g.dead[v] {
			continue
		}
		for _, w := range g.adj[v] {
			ops++
			if w > v {
				g.union(v, w)
			}
		}
	}
	g.maintOps += ops
}

// Components returns the connected components of the live graph, each a list
// of vertices. Component order is deterministic (by smallest contained
// vertex).
func (g *Graph) Components() [][]int32 {
	g.ensureConnectivity()
	byRoot := make(map[int32]int)
	var comps [][]int32
	for v := int32(0); v < int32(len(g.ids)); v++ {
		if g.dead[v] {
			continue
		}
		r := g.find(v)
		i, ok := byRoot[r]
		if !ok {
			i = len(comps)
			byRoot[r] = i
			comps = append(comps, nil)
		}
		comps[i] = append(comps[i], v)
	}
	return comps
}

// maybeCompact squeezes tombstones out when they outnumber the live
// vertices. Called only at lifecycle boundaries, before any vertex handles
// of the coming query are handed out, because compaction renumbers vertices.
func (g *Graph) maybeCompact() {
	if g.deadCount >= 64 && g.deadCount*2 >= len(g.ids) {
		g.compact()
	}
}

// compact renumbers the live vertices (index order preserved), rewrites
// adjacency and cell chains in place without re-hashing any geometry, and
// rebuilds the vertex table. Costs O(slots + entries); no voxel walks.
func (g *Graph) compact() {
	remap := g.remapScratch
	if cap(remap) < len(g.ids) {
		remap = make([]int32, len(g.ids))
	}
	remap = remap[:len(g.ids)]
	n := int32(0)
	for v := 0; v < len(g.ids); v++ {
		if g.dead[v] {
			remap[v] = -1
			continue
		}
		remap[v] = n
		if int32(v) != n {
			g.ids[n] = g.ids[v]
			// Swap, not copy: the dead slot's backing array parks at the
			// tail for recycling by later inserts.
			g.adj[n], g.adj[v] = g.adj[v], g.adj[n]
			g.clipped[n] = g.clipped[v]
			g.cellCount[n] = g.cellCount[v]
			g.pairGen[n] = g.pairGen[v]
		}
		n++
	}
	g.chargeScan(int64(len(g.ids)))
	g.remapScratch = remap
	g.ids = g.ids[:n]
	g.adj = g.adj[:n]
	g.clipped = g.clipped[:n]
	g.cellCount = g.cellCount[:n]
	g.pairGen = g.pairGen[:n]
	g.dead = g.dead[:n]
	for v := int32(0); v < n; v++ {
		g.dead[v] = false
	}
	g.deadCount = 0
	// Reset union-find to the identity forest: the old parent pointers use
	// pre-renumbering indices. Unions during the coming build operate on the
	// identity forest; ensureConnectivity rebuilds the real one lazily.
	g.parent = g.parent[:n]
	g.rank = g.rank[:n]
	for v := int32(0); v < n; v++ {
		g.parent[v] = v
		g.rank[v] = 0
	}
	g.ufDirty = true

	for v := int32(0); v < n; v++ {
		a := g.adj[v]
		for i := range a {
			a[i] = remap[a[i]]
		}
		g.maintOps += int64(len(a))
	}
	g.vert.Reset()
	for v := int32(0); v < n; v++ {
		g.vert.Put(g.ids[v], v)
	}
	g.maintOps += int64(n)
	if g.gridOn {
		g.compactChains(remap)
	}
}

// compactChains rewrites every cell's occupant chain dropping tombstoned
// entries and applying the vertex renumbering, preserving each chain's
// head-first order. The entry arrays ping-pong with their Alt twins so the
// rewrite recycles storage.
func (g *Graph) compactChains(remap []int32) {
	old := g.ents
	neu := g.entsAlt[:0]
	touched := 0
	rewrite := func(head int32) int32 {
		tmp := g.entScratch[:0]
		for e := head; e >= 0; e = old[e].next {
			if w := remap[old[e].vert]; w >= 0 {
				tmp = append(tmp, w)
			}
		}
		g.entScratch = tmp
		if len(tmp) == 0 {
			return -1
		}
		touched++
		// Push in reverse so the new chain reads head-first in the old order.
		h := int32(-1)
		for i := len(tmp) - 1; i >= 0; i-- {
			neu = append(neu, entry{vert: tmp[i], next: h})
			h = int32(len(neu)) - 1
		}
		return h
	}
	if g.denseCells {
		kept := g.touchedCells[:0]
		for _, c := range g.touchedCells {
			h := rewrite(g.cellSlots[c].head)
			if h < 0 {
				g.cellSlots[c].gen = g.cellEpoch - 1 // cell emptied
				continue
			}
			g.cellSlots[c].head = h
			kept = append(kept, c)
		}
		g.touchedCells = kept
	} else {
		// Rewrite chains via the touched-cell list and REBUILD the table:
		// iterating the table's high-water capacity every compaction would
		// dominate steady-state Advance over a long corridor, and the
		// rebuild also drops entries for cells whose chains emptied.
		heads := g.headScratch[:0]
		keys := g.keyScratch[:0]
		for _, key := range g.touchedCells {
			head, ok := g.cellMap64.Get(key)
			if !ok || head < 0 {
				continue
			}
			if h := rewrite(head); h >= 0 {
				keys = append(keys, key)
				heads = append(heads, h)
			}
		}
		g.cellMap64.Reset()
		for i, key := range keys {
			g.cellMap64.Put(key, heads[i])
		}
		g.headScratch = heads
		g.keyScratch = keys[:0]
		g.touchedCells = append(g.touchedCells[:0], keys...)
	}
	g.chargeScan(int64(len(old)))
	g.entsAlt = old[:0]
	g.ents = neu
	g.entLive = len(neu)
	g.cellsTouched = touched
}

// liveCells estimates the distinct cells with at least one live occupant.
// With no tombstones this is the maintained cellsTouched counter (exact);
// with tombstones the estimate is capped by the live chain entries — an
// upper bound on distinct live cells — so §8.2 accounting never charges the
// tombstoned corridor a delta lifecycle accumulates between compactions.
// (Counting exactly would walk every touched cell's chain, an O(corridor)
// scan per query that measurably dominates steady-state Advance.)
func (g *Graph) liveCells() int {
	if !g.gridOn {
		return 0
	}
	if g.deadCount == 0 || g.cellsTouched < g.entLive {
		return g.cellsTouched
	}
	return g.entLive
}

// Ops returns the cumulative count of elementary traversal operations.
func (g *Graph) Ops() int64 { return g.ops }

// ChargeFullTraversal adds the ops a traversal from EVERY live vertex would
// perform — each live vertex pops once and each adjacency entry is scanned
// once, V + 2E in total — without walking anything. Exactly equivalent to
// MarkReachable over all live vertices for cost accounting (§7.3's "forced
// to traverse the entire graph" charge).
func (g *Graph) ChargeFullTraversal() {
	g.ops += int64(g.NumVertices()) + 2*int64(g.edges)
}

// beginVisit prepares the recycled visited-set for a new traversal and
// returns the (empty) recycled stack. A vertex is marked visited by stamping
// visitGen[v] with the current epoch.
func (g *Graph) beginVisit() []int32 {
	if len(g.visitGen) < len(g.ids) {
		g.visitGen = make([]uint32, len(g.ids)+len(g.ids)/2)
		g.visitEpoch = 0
	}
	g.visitEpoch++
	if g.visitEpoch == 0 {
		for i := range g.visitGen {
			g.visitGen[i] = 0
		}
		g.visitEpoch = 1
	}
	return g.stack[:0]
}

// visited reports and sets the visit mark of v for the current traversal.
func (g *Graph) visitedOnce(v int32) bool {
	if g.visitGen[v] == g.visitEpoch {
		return true
	}
	g.visitGen[v] = g.visitEpoch
	return false
}

// MemoryBytes estimates the memory footprint of the graph's major data
// structures — adjacency lists, vertex table and grid-cell directory —
// mirroring the accounting of §8.2 ("the graph (adjacency list) and queues
// used for graph traversal"). Only slots live for the current query are
// charged: the arena's recycled capacity belongs to the prefetcher, not to
// this query's graph.
func (g *Graph) MemoryBytes() int64 {
	live := int64(g.NumVertices())
	var b int64
	b += live * 4                   // ids
	b += live * (4 + 4 + 4)         // vertex-table slot (key+val+gen)
	b += live * 5                   // parent + rank
	b += int64(g.entLive) * (4 + 4) // live cell occupant chain entries
	slot := int64(4 + 4 + 4)        // dense directory slot (head+gen+key)
	if g.gridOn && !g.denseCells {
		slot = 8 + 4 + 4 // world-keyed slot
	}
	b += int64(g.liveCells()) * slot
	for v, a := range g.adj {
		if g.dead[v] {
			continue
		}
		b += 24 + int64(len(a))*4 // slice header + payload
	}
	return b
}
