package engine

import (
	"slices"
	"time"

	"scout/internal/cache"
	"scout/internal/fault"
	"scout/internal/pagestore"
)

// pageCache is the cache surface a shard turn needs. The plain LRU
// cache.Cache (an engine's shard slice, a session's private cache) and the
// striped cache.Striped (the cache the sessions of a commit share) both
// satisfy it. Neither takes a lock: a fleet is a single-coordinator object.
type pageCache interface {
	Lookup(pagestore.PageID) bool
	Contains(pagestore.PageID) bool
	Insert(pagestore.PageID) bool
	Clear()
}

// shard is one shard's state: its slice of the prefetch cache, a disk with
// its own heads and seek ledger over the shard's physical range, its own
// prefetch-budget arbiter (the "per-shard arbiter pool") and scratch. The
// coordinator visits the shards in index order; within one phase a shard
// writes only its own state and result slot and reads other shards' scratch
// (miss) as left by the previous phase.
type shard struct {
	disk *pagestore.Disk
	// cache is the cache the current turn reads and fills. With private
	// per-session caches (a one-shard serving fleet only) bind installs the
	// turn's session's, out of private. shared is cache as the striped cache
	// the sessions share, nil otherwise: injected stalls address its stripes.
	cache   pageCache
	private []pageCache
	shared  *cache.Striped
	arb     *arbiter           // nil on a single-session fleet: one session has nobody to share a window with
	miss    []pagestore.PageID // the current demand turn's misses, in ascending physical order (lookup)
	read    []pagestore.PageID // the pages the last sweep served here read (sweepBatch)
}

// demandOut is shard i's result slot for one demand turn.
type demandOut struct {
	io     time.Duration // storage service time of the misses homed here (serveMisses)
	stall  time.Duration // injected cache-shard stall delay
	stalls int64
	hits   int
	pages  int // demand pages routed to this shard (arbiter evidence)
	miss   int // miss pages actually served
}

// prefetchOut is shard i's result slot for one prefetch window.
type prefetchOut struct {
	grant time.Duration
	spent time.Duration
	n     int
}

// demandMerge is the coordinator's view of one merged demand turn.
type demandMerge struct {
	hits        int
	residual    time.Duration // slowest shard (io plus stall) + route charge
	stallEvents int64
	fanout      int
	routed      int // miss pages shipped from non-home shards
}

// ladder is a prefetch window's prediction set in the shape the per-page
// flush reads: the gap-traversal pages in plan order, then the incremental
// request ladder, request i's pages (reqPages(i), ascending) resolved only
// when the flush reaches them. The sweep reads the same set as one elevator
// batch instead — a plain slice, kept out of this struct because the router
// retains it as a part, and a retained field would drag the closure to the
// heap every turn.
type ladder struct {
	traversal []pagestore.PageID
	requests  int
	reqPages  func(i int) []pagestore.PageID
}

// serving is the multi-session half of a fleet's configuration (see
// ServeConfig for the fields); nil builds a single-session fleet.
type serving struct {
	sessions     int
	policy       Policy
	interference time.Duration
	private      bool
	cacheShards  int
}

// fleet is the execution backend under every turn (DESIGN.md §14): the page
// space partitioned into contiguous Hilbert ranges of the layout key
// (pagestore.Partition), each owned by a shard with its own cache slice,
// disk heads and seek state; a stateless Router that splits every
// demand set and prediction set by range; and the failover state that routes
// storage reads — demand misses and prefetch windows alike — along replica
// chains. The shards' disks are modelled as
// running in parallel — each sub-batch is priced on its own shard's head,
// one shard after another on the calling goroutine, and the merged service
// time is the slowest shard plus a per-page routing charge for pages shipped
// from non-home shards — so the arithmetic is deterministic and a fleet is a
// single-coordinator object, like cache.Cache and pagestore.Disk.
//
// Both drivers own one: Engine.RunSequence (one session, its own virtual
// clock) and SessionPlans.Serve (the multi-session commit loop). One range,
// one replica and one session are configurations, not code paths: with a
// one-range partition every split is the identity, every chain has one
// member, and the turn's arithmetic is that of a single disk and cache.
type fleet struct {
	store     *pagestore.Store
	maxBridge pagestore.PageID // CostModel.MaxBridge: the gap an elevator run reads through
	router    Router
	shards    []*shard
	// ha routes storage reads along replica chains (failover.go). Without
	// replication or shard faults it is a one-member chain with a nil
	// injector, which routes every demand miss to its home for free.
	ha *haState
	// stalls injects cache-shard stalls into demand lookups; nil unless a
	// shared serving cache is under fault injection (a private or
	// single-session cache has no cross-session shard contention to stall).
	stalls *fault.Injector
	// perPage selects the seed's per-page read and flush (Config.BatchedIO
	// false), which only a one-range fleet built with shards == 0 honours.
	perPage bool

	// Per-turn scratch: the demand set's routing (Router.route: each shard's
	// run of its physical order, each position's shard) and lookup outcomes,
	// the prediction set's parts (Router.SplitRuns: subslices of an elevator
	// batch), the current query's home shard and per-shard result slots.
	cut    []int
	at     []int32
	missed []bool
	runs   [][]pagestore.PageID
	home   int
	faults faultTotals // disk fault counters as of the last faultEvidence call
	demand []demandOut
	pref   []prefetchOut
	estBuf []time.Duration
}

// newFleet builds the shard fleet over the store's current layout. shards
// == 0 is the flat configuration — one range that honours Config.BatchedIO
// and serving.private, with nothing to replicate, hedge or fault at shard
// granularity — and shards >= 1 a sharded one, which always reads through
// the batched elevator path. The cache capacity splits across shards ±1
// page. A single-session fleet (srv == nil) gives each shard one disk head
// and a plain LRU; a serving fleet one head per session with the
// interference ledger, an arbiter, and either one striped cache the sessions
// share or, with serving.private, a full-size LRU per session. Arbiter and
// shared cache are private to the commit that builds the fleet, which runs on
// one goroutine, so neither takes a lock.
// cfg.Faults arms every shard disk; when it is a *fault.Injector it also
// drives the shard-fault domains and cache-shard stalls.
func newFleet(store *pagestore.Store, cfg Config, shards int, srv *serving) *fleet {
	n, replicas, hedge := shards, cfg.Replicas, cfg.Hedge
	inj, _ := cfg.Faults.(*fault.Injector)
	f := &fleet{store: store, maxBridge: cfg.Cost.MaxBridge()}
	if srv != nil && !srv.private {
		f.stalls = inj
	}
	if shards == 0 {
		n, replicas, hedge, inj = 1, 1, 0, nil
		f.perPage = !cfg.BatchedIO
	}
	part := pagestore.NewReplicatedPartition(store, n, replicas)
	f.router = NewRouter(store, part, cfg.Cost)
	f.ha = newHAState(part, inj, cfg.Cost, hedge)
	f.cut = make([]int, 0, n+1)
	f.demand = make([]demandOut, n)
	f.pref = make([]prefetchOut, n)

	capacity := cacheCapacity(cfg, store)
	base, extra := capacity/n, capacity%n
	f.shards = make([]*shard, n)
	for i := range f.shards {
		sc := base
		if i < extra {
			sc++
		}
		sh := &shard{}
		if srv == nil {
			sh.disk = pagestore.NewDisk(store, cfg.Cost)
			sh.cache = cache.New(sc)
		} else {
			sh.disk = pagestore.NewSharedDisk(store, cfg.Cost, srv.sessions, srv.interference)
			sh.arb = newArbiter(srv.policy, srv.sessions)
			if srv.private {
				sh.private = make([]pageCache, srv.sessions)
				for s := range sh.private {
					sh.private[s] = cache.New(sc)
				}
			} else {
				sh.shared = cache.NewStriped(sc, resolveCacheShards(sc, srv.cacheShards))
				sh.cache = sh.shared
			}
		}
		if cfg.Faults != nil {
			sh.disk.SetFaults(cfg.Faults, pagestore.DefaultRetryPolicy())
		}
		if cfg.Backing != nil {
			sh.disk.SetBacking(cfg.Backing)
		}
		f.shards[i] = sh
	}
	return f
}

// bind sets the read context of the serving turn that follows, on every
// shard: reads move session s's head, pay the interference penalty for
// `contenders` sessions with I/O in flight and roll injected faults at the
// turn's commit time, and lookups and inserts go to session s's cache when
// caches are private. A single-session fleet never binds: its disks keep
// their one head and their own fault clock (accumulated I/O time).
func (f *fleet) bind(s, contenders int, now time.Duration) {
	for _, sh := range f.shards {
		sh.disk.At(s, contenders, now)
		if sh.private != nil {
			sh.cache = sh.private[s]
		}
	}
}

// reset starts a sequence cold: the bound caches cleared and the heads
// forgotten ("after executing each sequence of queries, we clear the
// prefetch cache, the operating system cache and the disk buffers", §7.1).
func (f *fleet) reset() {
	for _, sh := range f.shards {
		sh.cache.Clear()
		sh.disk.ResetHead()
	}
}

// demandTurn serves one query's demand set at virtual time now. order is the
// set's physical order (physicalOrder; empty when pages already are in it),
// which routes it (Router.route), orders each shard's misses and, in
// coldCost, prices it. The turn: route the set by shard range; on every
// shard forget the head (it does not survive user think time — the OS and
// other processes move it — so every query starts cold, exactly the
// assumption behind ColdCost); charge stalls and run the cache lookups
// (lookup); read the misses through the failover router (serveMisses: each
// miss sub-batch read on its serving shard); then merge — the residual is the
// slowest shard's read-plus-stall (the shard disks run in parallel) plus
// Route per miss page shipped from a non-home shard. Remote cache hits stay
// free: a hit is returned by its shard from memory and its handoff, a
// memory copy, is noise we do not model. The cache holds prefetched data only
// ("4GB of memory to cache prefetched data", §7.1) — demand misses are NOT
// inserted, so the hit rate is a pure measure of prediction accuracy, which
// is what makes the paper's Figure 3 baselines meaningful. The prefetch
// slots are reset here so a turn that sheds its window records zero spend.
func (f *fleet) demandTurn(pages []pagestore.PageID, order []int32, now time.Duration) demandMerge {
	f.cut, f.at = f.router.route(pages, order, f.cut, f.at)
	outs := f.demand
	var m demandMerge
	// The query's home shard owns the largest share of its demand set (lowest
	// index on ties, shard 0 for an empty query): the requesting session is
	// modelled as colocated with it for the duration of the query.
	f.home = 0
	for i, sh := range f.shards {
		n := f.cut[i+1] - f.cut[i]
		if n > 0 {
			m.fanout++
		}
		if n > f.cut[f.home+1]-f.cut[f.home] {
			f.home = i
		}
		f.pref[i] = prefetchOut{}
		sh.disk.ResetHead()
		sh.miss = sh.miss[:0]
		outs[i] = demandOut{pages: n}
	}
	f.lookup(pages, order, now)
	f.serveMisses(now)

	served := 0
	for i := range outs {
		if io := outs[i].io + outs[i].stall; io > m.residual {
			m.residual = io
		}
		m.hits += outs[i].hits
		m.stallEvents += outs[i].stalls
		served += outs[i].miss
	}
	m.routed = served - outs[f.home].miss
	m.residual += f.router.Charge(m.routed)
	return m
}

// lookup runs the demand set's cache lookups, each on its shard's cache, in
// query order — LRU recency is order-sensitive, so that order is part of the
// contract — charging the injected cache-shard stalls (a stalled stripe
// charges its penalty on every access, hit or miss: the stall is in front of
// the data, not behind it). It leaves each shard's misses in sh.miss in
// ascending physical order, ready for Disk.ReadSorted: when the set already
// is in that order (an empty order: every demand set of the insertion
// layout) the misses are collected as they come, else by a walk of each
// shard's run of the physical order.
func (f *fleet) lookup(pages []pagestore.PageID, order []int32, now time.Duration) {
	sorted := len(order) == 0
	if !sorted {
		f.missed = slices.Grow(f.missed[:0], len(pages))[:len(pages)]
	}
	for j, pg := range pages {
		i := 0
		if f.at != nil { // nil on a one-range fleet: route never assigns
			i = int(f.at[j])
		}
		sh, o := f.shards[i], &f.demand[i]
		if f.stalls != nil {
			if d := f.stalls.ShardStall(sh.shared.ShardIndex(pg), now); d > 0 {
				o.stall += d
				o.stalls++
			}
		}
		hit := sh.cache.Lookup(pg)
		switch {
		case hit:
			o.hits++
		case sorted:
			sh.miss = append(sh.miss, pg)
		}
		if !sorted {
			f.missed[j] = !hit
		}
	}
	if sorted {
		return
	}
	for i, sh := range f.shards {
		for _, j := range order[f.cut[i]:f.cut[i+1]] {
			if f.missed[j] {
				sh.miss = append(sh.miss, pages[j])
			}
		}
	}
}

// coldCost prices the last demand turn (pages, order: its demand set) as if
// nothing were cached anywhere: the slowest shard's cold sweep over its run
// of the physical order plus routing for every page a non-home shard owns.
func (f *fleet) coldCost(pages []pagestore.PageID, order []int32) time.Duration {
	var slowest time.Duration
	remote := 0
	for i := range f.shards {
		lo, hi := f.cut[i], f.cut[i+1]
		if c := coldSweep(f.store, f.router.cost, pages, order, lo, hi); c > slowest {
			slowest = c
		}
		if i != f.home {
			remote += hi - lo
		}
	}
	return slowest + f.router.Charge(remote)
}

// served settles what the last demand turn could not deliver: it counts the
// miss pages a replica served (failedOver) and those whose whole chain was
// down (lost), and returns the page set the client was answered with —
// pages itself unless something was lost, in which case the lost homes' miss
// pages are dropped in place, preserving order (result hashing and the
// prefetcher observation depend on it).
func (f *fleet) served(pages []pagestore.PageID) (kept []pagestore.PageID, failedOver, lost int) {
	for j, sh := range f.shards {
		if t := f.ha.routes[j].target; t < 0 {
			lost += len(sh.miss)
		} else if t != j {
			failedOver += len(sh.miss)
		}
	}
	if lost == 0 {
		return pages, failedOver, 0
	}
	dropped := make(map[pagestore.PageID]struct{}, lost)
	for j, sh := range f.shards {
		if f.ha.routes[j].target < 0 {
			for _, pg := range sh.miss {
				dropped[pg] = struct{}{}
			}
		}
	}
	kept = pages[:0]
	for _, pg := range pages {
		if _, gone := dropped[pg]; !gone {
			kept = append(kept, pg)
		}
	}
	return kept, failedOver, lost
}

// prefetchTurn spends one prefetch window of session s. Every shard asks its
// arbiter for a grant against the full budget (a fleet without arbiters
// grants the budget itself) and spends it on its part of the prediction set:
// the modelled shard disks work side by side, so the fleet may spend up to S
// grants of device time — and prefetch up to S times more pages — while the
// window (the slowest shard's spend) still closes on time. That is the
// scale-out win the shard1 experiment measures.
//
// A per-page fleet flushes with prefetchPages over the ladder; every other
// fleet reads batch, an elevator batch — shard ranges are contiguous in
// physical order, so each home's part is a run of it (Router.SplitRuns),
// read in place. A caller fills the one its fleet reads. Each part is routed
// (routeWindow), the slowest one hedged when hedging is armed (planHedge),
// and swept on its serving shard (sweepBatch) — the hedge's duplicate too,
// the cheaper outcome winning — and only then do the pages read enter the
// home's cache, since the cache slice is the home's and the winner must be
// known. Homes are swept in shard order, so every disk sees its sweeps in
// home order whichever homes it serves. Reads are charged to the context
// bind set for this turn. grant0 is shard 0's grant, which paces the
// background scrub.
func (f *fleet) prefetchTurn(s int, contenders []int, batch []pagestore.PageID, l ladder, budget, now time.Duration) (prefetched int, io, grant0 time.Duration) {
	ha := f.ha
	if !f.perPage {
		f.runs = f.router.SplitRuns(batch, f.runs)
		for j := range f.shards {
			ha.routes[j] = f.routeWindow(j, now)
		}
		if ha.hedge > 0 && ha.part.Replicas() > 1 {
			f.planHedge(now)
		}
	}
	for i, sh := range f.shards {
		o := &f.pref[i]
		o.grant = budget
		if sh.arb != nil {
			o.grant = sh.arb.Grant(s, contenders, budget)
		}
		if o.grant <= 0 {
			continue
		}
		if f.perPage {
			o.n, o.spent = prefetchPages(sh.cache, sh.disk, l.traversal, l.requests, l.reqPages, o.grant)
			continue
		}
		r := &ha.routes[i]
		if r.target < 0 {
			continue
		}
		sv := f.shards[r.target]
		o.spent, sv.read = sweepBatch(f.store, sh.cache, sv.disk, f.runs[i], f.maxBridge, o.grant, r.factor, r.target != i, sv.read)
		read := sv.read
		if r.hedge >= 0 {
			hv := f.shards[r.hedge]
			var spent time.Duration
			spent, hv.read = sweepBatch(f.store, sh.cache, hv.disk, f.runs[i], f.maxBridge, o.grant, r.hedgeFactor, true, hv.read)
			ha.stats.HedgedWindows++
			// The cheaper outcome wins; on a spend tie the primary does (more
			// pages for the same time never loses, and ties must break
			// deterministically).
			if spent < o.spent {
				ha.stats.HedgeWins++
				o.spent, read = spent, hv.read
			}
		}
		o.n = len(read)
		for _, pg := range read {
			sh.cache.Insert(pg)
		}
	}
	for i := range f.pref {
		prefetched += f.pref[i].n
		if f.pref[i].spent > io {
			io = f.pref[i].spent
		}
	}
	return prefetched, io, f.pref[0].grant
}

// routeWindow routes home j's part of a prefetch window at virtual time now;
// an empty part goes nowhere (target -1). A serving fleet reads windows on
// the home only and ignores shard health: an outaged home skips its window
// and a browned one reads at its multiplier, delivering fewer pages per
// grant — demand failover is what protects waiting clients, and duplicating
// background windows under multi-session contention only burns shared
// device time. A single-session fleet walks the replica chain quietly
// (routeQuiet).
func (f *fleet) routeWindow(j int, now time.Duration) haRoute {
	r := haRoute{target: -1, k: -1, factor: 1, hedge: -1, hedgeFactor: 1}
	switch inj := f.ha.inj; {
	case len(f.runs[j]) == 0:
	case f.shards[j].arb == nil: // single-session
		r = f.ha.routeQuiet(j, 0, now)
	case !inj.ShardOutage(j, len(f.shards), now):
		r.target, r.k, r.factor = j, 0, inj.ShardBrownout(j, now)
	}
	return r
}

// prefetchPages is the per-page prefetch flush: it reads the plan's uncached
// pages into the cache until the budget is exhausted — first the
// gap-traversal pages in plan order (gap traversal reads them in
// structure-following priority), then the incremental request ladder,
// request i's pages (reqPages(i), in ascending order, as a disk scheduler
// would issue them, so contiguous runs earn their discount) only once the
// flush gets there: a window that closes early never pays for the ladder's
// later rungs. The read that crosses the budget still completes — the disk
// cannot abort a read — and closes the window. It returns the pages
// prefetched and the I/O time spent.
func prefetchPages(c pageCache, d *pagestore.Disk, traversal []pagestore.PageID, requests int, reqPages func(i int) []pagestore.PageID, budget time.Duration) (int, time.Duration) {
	var spent time.Duration
	prefetched := 0

	readPage := func(pg pagestore.PageID) bool {
		if c.Contains(pg) {
			return true // already cached: free (still in cache)
		}
		spent += d.ReadPage(pg)
		c.Insert(pg)
		prefetched++
		return spent <= budget
	}

	for _, pg := range traversal {
		if !readPage(pg) {
			return prefetched, spent
		}
	}
	for i := 0; i < requests; i++ {
		for _, pg := range reqPages(i) {
			if !readPage(pg) {
				return prefetched, spent
			}
		}
	}
	return prefetched, spent
}

// appendUncached appends to dst the pages that their home shard's cache
// does not hold. The sweep would skip the others anyway; a prediction set
// filtered as it is accumulated keeps them out of elevatorBatch's sort.
func (f *fleet) appendUncached(dst, pages []pagestore.PageID) []pagestore.PageID {
	part := f.router.part
	for _, pg := range pages {
		if !f.shards[part.ShardOf(f.store, pg)].cache.Contains(pg) {
			dst = append(dst, pg)
		}
	}
	return dst
}

// elevatorBatch turns an accumulated prediction set into one elevator
// batch, in place: ascending physical order, with duplicates (overlapping
// ladder rungs), made adjacent by the sort, collapsed so each page is read
// once.
func elevatorBatch(store *pagestore.Store, buf []pagestore.PageID) []pagestore.PageID {
	store.ElevatorSort(buf)
	k := 0
	for i, pg := range buf {
		if i == 0 || pg != buf[i-1] {
			buf[k] = pg
			k++
		}
	}
	return buf[:k]
}

// sweepBatch is the batched prefetch flush of one home's part, on disk d:
// it walks an elevator batch, skips pages the home's cache c holds, grows
// elevator runs by Store.Runs' rule (one ReadSorted per run: internal gaps
// are bridged, the boundary to the previous run seeks), and stops after the
// run that crosses the budget — a half-fetched run would waste its seek. It
// trades the incremental ladder's priority order for physical locality;
// layout1 measures that trade. Work is proportional to the pages scanned
// before that stop, not to the batch.
//
// Each run costs its read at the brownout multiplier factor (1 = none)
// plus, when d serves the range from its replica slice (replica), the
// per-page replica surcharge; ChargeHA bills both once, after the last run.
// The sweep inserts nothing: it returns the time spent and the pages read,
// in sweep order, appended to scratch[:0], and the caller inserts them into
// c once it knows the winner. Every Contains thus sees the pre-flush cache —
// an insert can evict a cached page that sits later in the batch, and that
// page was cached when the flush was issued.
func sweepBatch(store *pagestore.Store, c pageCache, d *pagestore.Disk, sorted []pagestore.PageID, maxBridge pagestore.PageID, budget time.Duration, factor float64, replica bool, scratch []pagestore.PageID) (time.Duration, []pagestore.PageID) {
	var spent, brown time.Duration
	var repPages int64
	repCost := d.Model().ReplicaRead
	readRun := func(run []pagestore.PageID) {
		base := d.ReadSorted(run)
		spent += base
		if factor > 1 {
			extra := time.Duration(float64(base) * (factor - 1))
			brown += extra
			spent += extra
		}
		if replica {
			repPages += int64(len(run))
			spent += time.Duration(len(run)) * repCost
		}
	}
	read := scratch[:0]
	start := 0 // read[start:] is the run being grown
	var last pagestore.PageID
	for _, pg := range sorted {
		if c.Contains(pg) {
			continue
		}
		phys := store.PhysicalPage(pg)
		if len(read) > start && phys-last > maxBridge+1 {
			readRun(read[start:])
			start = len(read)
			if spent > budget {
				break
			}
		}
		read = append(read, pg)
		last = phys
	}
	if len(read) > start {
		readRun(read[start:])
	}
	d.ChargeHA(brown, repPages)
	return spent, read
}

// planHedge marks the hedged prefetch part: estimate every routed home's
// part as a cold elevator pass (haState.sweepEstimate) scaled by its
// brownout factor and replica surcharge, and when the slowest estimate
// exceeds Hedge times the median, issue that part to its next live chain
// member too. One hedge per window — the point is trimming the straggler
// that sets PrefetchIO (a max over shards), and duplicating more than the
// argmax only burns replica bandwidth. Only a single-session fleet hedges,
// and its parts hold uncached pages only (spendWindow's appendUncached), so
// each estimate prices what the sweep may read.
func (f *fleet) planHedge(now time.Duration) {
	ha := f.ha
	est := f.estBuf[:0]
	slowJ, slowEst := -1, time.Duration(-1)
	for j, part := range f.runs {
		r := &ha.routes[j]
		if r.target < 0 {
			continue
		}
		c := ha.sweepEstimate(f.store, part)
		if r.factor > 1 {
			c = time.Duration(float64(c) * r.factor)
		}
		if r.target != j {
			c += time.Duration(len(part)) * ha.cost.ReplicaRead
		}
		est = append(est, c)
		if c > slowEst {
			slowJ, slowEst = j, c
		}
	}
	f.estBuf = est
	if len(est) < 2 {
		return
	}
	slices.Sort(est)
	median := est[len(est)/2]
	if median <= 0 || float64(slowEst) <= ha.hedge*float64(median) {
		return
	}
	r := &ha.routes[slowJ]
	if alt := ha.routeQuiet(slowJ, r.k+1, now); alt.target >= 0 {
		r.hedge, r.hedgeFactor = alt.target, alt.factor
	}
}

// setPriority forwards a class weight to every shard's arbiter.
func (f *fleet) setPriority(session int, w float64) {
	for _, sh := range f.shards {
		sh.arb.SetPriority(session, w)
	}
}

// setShedding marks the session shedding (or not) on every shard's arbiter.
func (f *fleet) setShedding(session int, shed bool) {
	for _, sh := range f.shards {
		sh.arb.SetShedding(session, shed)
	}
}

// record feeds the turn's per-shard evidence into each shard's arbiter: the
// pages routed to the shard and the shard-local hits. Called every committed
// turn, shed windows included, so ledger EWMAs tick at one rate.
func (f *fleet) record(s int) {
	for i, sh := range f.shards {
		sh.arb.Record(s, f.demand[i].pages, f.demand[i].hits)
	}
}

// faultTotals are the disk counters a session's breaker scores.
type faultTotals struct {
	retries, timeouts, corrupt, repaired int64
}

// faultEvidence returns what the shard disks' fault counters gained since
// the last call: called once per committed turn, that is the turn's own
// evidence.
func (f *fleet) faultEvidence() faultTotals {
	var sum faultTotals
	for _, sh := range f.shards {
		st := sh.disk.Stats()
		sum.retries += st.FaultRetries
		sum.timeouts += st.TimedOutReads
		sum.corrupt += st.CorruptPages
		sum.repaired += st.RepairedPages
	}
	d := faultTotals{sum.retries - f.faults.retries, sum.timeouts - f.faults.timeouts,
		sum.corrupt - f.faults.corrupt, sum.repaired - f.faults.repaired}
	f.faults = sum
	return d
}

// tick ends a turn's evidence gathering: injected read retries fold into the
// shard health ledgers and every ledger ticks (haState.foldRetries).
func (f *fleet) tick(now time.Duration) {
	if !f.ha.plain {
		f.ha.foldRetries(f.shards, now)
	}
}

// diskStats returns the fleet-wide I/O statistics (per-shard stats folded
// with DiskStats.Add, so totals stay overflow-safe).
func (f *fleet) diskStats() (agg pagestore.DiskStats) {
	for _, sh := range f.shards {
		agg.Add(sh.disk.Stats())
	}
	return agg
}

// shardStats returns each shard disk's statistics, indexed by shard.
func (f *fleet) shardStats() []pagestore.DiskStats {
	out := make([]pagestore.DiskStats, len(f.shards))
	for i, sh := range f.shards {
		out[i] = sh.disk.Stats()
	}
	return out
}

// cacheStats folds the counters of every cache of the fleet — each shard's
// shared cache, or its per-session private ones.
func (f *fleet) cacheStats() (agg cache.Stats) {
	for _, sh := range f.shards {
		for _, c := range sh.private {
			agg.Add(c.(*cache.Cache).Stats())
		}
		if sh.shared != nil {
			agg.Add(sh.shared.Stats())
		}
	}
	return agg
}

// fnvOffset/fnvPrime are the FNV-1a constants behind SequenceResult.ResultHash.
const (
	fnvOffset uint64 = 14695981039346656037
	fnvPrime  uint64 = 1099511628211
)

// hashResult folds one query's served object IDs into the sequence result
// hash: query index first (so an empty result still advances the fold),
// then every ID in served order.
func hashResult(h uint64, qi int, result []pagestore.ObjectID) uint64 {
	h = (h ^ uint64(qi)) * fnvPrime
	for _, id := range result {
		h = (h ^ uint64(id)) * fnvPrime
	}
	return h
}
