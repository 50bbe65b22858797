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
// (miss, batch) as left by the previous phase.
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
	read    []pagestore.PageID // sweepBatch scratch (lazy flush)
	batch   []pagestore.PageID // assembled sub-batch (HA flush)
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
	stall       time.Duration // summed across shards, reporting only
	stallEvents int64
	fanout      int
	routed      int // miss pages shipped from non-home shards
	charge      time.Duration
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
// storage reads along replica chains. The shards' disks are modelled as
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
	// haFlush selects the prefetch flush that can fail over and hedge
	// (flushHA). It needs every sub-batch assembled up front, so a fleet
	// with nothing to fail over to keeps the lazy sweep, and so does
	// serving: demand failover is what protects waiting clients —
	// duplicating background windows under multi-session contention only
	// burns shared device time.
	haFlush bool

	// Per-turn scratch: the demand set's routing (Router.route: each shard's
	// run of its physical order, each position's shard) and lookup outcomes,
	// the prediction set's parts (runs: subslices of an elevator batch;
	// pparts: Split copies for the HA flush — kept apart, since Split appends
	// into its parts), the current query's home shard and per-shard result
	// slots.
	cut    []int
	at     []int32
	missed []bool
	runs   [][]pagestore.PageID
	pparts [][]pagestore.PageID
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
	f.haFlush = srv == nil && (part.Replicas() > 1 || hedge > 0 || f.ha.inj != nil)

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
		m.stall += outs[i].stall
		m.stallEvents += outs[i].stalls
		served += outs[i].miss
	}
	m.routed = served - outs[f.home].miss
	m.charge = f.router.Charge(m.routed)
	m.residual += m.charge
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
// The flush is the lazy elevator sweep (sweepBatch) over the shard's part of
// batch — shard ranges are contiguous in physical order, so each part of an
// elevator batch is a run of it (Router.SplitRuns), read in place — or, on a
// per-page fleet, prefetchPages over the ladder; a caller fills the one its
// fleet reads. Background reads have no
// failover here: an outaged home simply skips its window, a browned one
// sweeps at its multiplier and delivers fewer pages per grant. Reads are
// charged to the context bind set for this turn.
// grant0 is shard 0's grant, which paces the background scrub.
func (f *fleet) prefetchTurn(s int, contenders []int, batch []pagestore.PageID, l ladder, budget, now time.Duration) (prefetched int, io, grant0 time.Duration) {
	if !f.perPage {
		f.runs = f.router.SplitRuns(batch, f.runs)
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
		readRun := sh.disk.ReadSorted
		if inj := f.ha.inj; inj != nil {
			if inj.ShardOutage(i, len(f.shards), now) {
				continue
			}
			if factor := inj.ShardBrownout(i, now); factor > 1 {
				readRun = func(run []pagestore.PageID) time.Duration {
					base := sh.disk.ReadSorted(run)
					extra := time.Duration(float64(base) * (factor - 1))
					sh.disk.ChargeHA(extra, 0)
					return base + extra
				}
			}
		}
		o.n, o.spent, sh.read = sweepBatch(f.store, sh.cache, f.runs[i], f.maxBridge, o.grant, sh.read, readRun)
	}
	for i := range f.pref {
		prefetched += f.pref[i].n
		if f.pref[i].spent > io {
			io = f.pref[i].spent
		}
	}
	return prefetched, io, f.pref[0].grant
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

// assembleBatch is elevatorBatch over the uncached pages only, in place: the
// whole filtered batch up front, which only the HA flush needs (its hedge
// estimate prices every home's full sub-batch before any read). The lazy
// sweep filters as it goes, in sweepBatch.
func assembleBatch(store *pagestore.Store, c pageCache, buf []pagestore.PageID) []pagestore.PageID {
	k := 0
	for _, pg := range buf {
		if !c.Contains(pg) {
			buf[k] = pg
			k++
		}
	}
	return elevatorBatch(store, buf[:k])
}

// sweepBatch is the batched prefetch flush: it walks an elevator batch, skips
// cached pages, grows elevator runs by Store.Runs' rule (one readRun per run:
// internal gaps are bridged, the boundary to the previous run seeks), and
// stops after the run that crosses the budget — a half-fetched run would
// waste its seek. It trades the incremental ladder's priority order for
// physical locality; layout1 measures that trade. Work is proportional to the
// pages scanned before that stop, not to the batch.
//
// The pages read enter the cache only after the last run is priced, in sweep
// order: an insert can evict a cached page that sits later in the batch, and
// that page was cached when the flush was issued, so every Contains must see
// the pre-flush cache. Returns the pages read, the time spent, and the read
// pages' buffer (scratch, reused).
func sweepBatch(store *pagestore.Store, c pageCache, sorted []pagestore.PageID, maxBridge pagestore.PageID, budget time.Duration, scratch []pagestore.PageID, readRun func(run []pagestore.PageID) time.Duration) (int, time.Duration, []pagestore.PageID) {
	read := scratch[:0]
	start := 0 // read[start:] is the run being grown
	var spent time.Duration
	var last pagestore.PageID
	for _, pg := range sorted {
		if c.Contains(pg) {
			continue
		}
		phys := store.PhysicalPage(pg)
		if len(read) > start && phys-last > maxBridge+1 {
			spent += readRun(read[start:])
			start = len(read)
			if spent > budget {
				break
			}
		}
		read = append(read, pg)
		last = phys
	}
	if len(read) > start {
		spent += readRun(read[start:])
	}
	for _, pg := range read {
		c.Insert(pg)
	}
	return len(read), spent, read
}

// priceSweep prices one home's assembled prefetch sub-batch on this shard's
// disk under the window budget: the usual elevator runs, a brownout
// multiplier on each run's cost, and the per-page replica surcharge when
// this shard serves the range from its replica slice. It only prices — the
// delivered-page count n is replayed for cache insertion on the home shard
// once the (possibly hedged) winner is known. The budget closes on the run
// that crossed it, exactly like the lazy sweep.
func (sh *shard) priceSweep(store *pagestore.Store, batch []pagestore.PageID, maxBridge pagestore.PageID, budget time.Duration, factor float64, replica bool) prefetchOut {
	var spent, brown time.Duration
	var repPages int64
	repCost := sh.disk.Model().ReplicaRead
	n := 0
	store.Runs(batch, maxBridge, func(run []pagestore.PageID) bool {
		base := sh.disk.ReadSorted(run)
		cost := base
		if factor > 1 {
			extra := time.Duration(float64(base) * (factor - 1))
			brown += extra
			cost += extra
		}
		if replica {
			repPages += int64(len(run))
			cost += time.Duration(len(run)) * repCost
		}
		spent += cost
		n += len(run)
		return spent <= budget
	})
	sh.disk.ChargeHA(brown, repPages)
	return prefetchOut{spent: spent, n: n}
}

// flushHA is the prefetch flush with failover routing and hedged reads, over
// the window's raw prediction set (unsorted, duplicates allowed), in two
// passes over the homes:
//
//	A: each home assembles its sub-batch against its own cache (dedup +
//	   elevator order) and the coordinator routes it (routeQuiet —
//	   background work pays no probes and skips dead chains); then, when
//	   hedging is on, the slowest estimated sub-batch is marked for
//	   duplicate issue to its next live replica (planHedge), which needs
//	   every sub-batch assembled.
//	B: each home's serving shard prices its sweep — and the hedge shard the
//	   duplicate, the cheaper outcome winning — and the home replays the
//	   winner's delivered run prefix into its own cache: insertion must
//	   happen on the home (the cache slice is the home's) and needs the
//	   winner, which is why pricing and insertion are separate steps.
//
// Healthy chains reduce to home-serves-home with no hedge marks, and the
// passes replay the lazy sweep's disk and cache call sequences verbatim.
// Homes are priced in shard order, so every disk sees its sweeps in home
// order whichever homes it serves.
func (f *fleet) flushHA(pages []pagestore.PageID, budget, now time.Duration) (int, time.Duration) {
	f.pparts = f.router.Split(pages, f.pparts)
	ha := f.ha
	for j, sh := range f.shards {
		sh.batch = assembleBatch(f.store, sh.cache, append(sh.batch[:0], f.pparts[j]...))
		r := haRoute{target: j, factor: 1, hedge: -1, hedgeFactor: 1}
		if len(sh.batch) > 0 {
			r = ha.routeQuiet(j, now)
		}
		ha.routes[j] = r
	}
	if ha.hedge > 0 && ha.part.Replicas() > 1 {
		f.planHedge(now)
	}

	var spentMax time.Duration
	total := 0
	for j, sh := range f.shards {
		r := &ha.routes[j]
		if len(sh.batch) == 0 || r.target < 0 {
			continue
		}
		won := f.shards[r.target].priceSweep(f.store, sh.batch, f.maxBridge, budget, r.factor, r.target != j)
		if r.hedge >= 0 {
			hedged := f.shards[r.hedge].priceSweep(f.store, sh.batch, f.maxBridge, budget, r.hedgeFactor, true)
			ha.stats.HedgedWindows++
			// The cheaper outcome wins; on a spend tie the primary does (more
			// pages for the same time never loses, and ties must break
			// deterministically).
			if hedged.spent < won.spent {
				ha.stats.HedgeWins++
				won = hedged
			}
		}
		total += won.n
		if won.spent > spentMax {
			spentMax = won.spent
		}
		if left := won.n; left > 0 {
			f.store.Runs(sh.batch, f.maxBridge, func(run []pagestore.PageID) bool {
				for _, pg := range run {
					sh.cache.Insert(pg)
					left--
				}
				return left > 0
			})
		}
	}
	return total, spentMax
}

// planHedge marks the hedged prefetch sub-batch: estimate every routed
// shard's sweep as a cold elevator pass (haState.sweepEstimate) scaled by
// its brownout factor and replica surcharge, and when the slowest estimate
// exceeds Hedge times the median, issue that sub-batch to its next live
// chain member too. One hedge per window — the point is trimming the
// straggler that sets PrefetchIO (a max over shards), and duplicating more
// than the argmax only burns replica bandwidth.
func (f *fleet) planHedge(now time.Duration) {
	ha := f.ha
	est := f.estBuf[:0]
	slowJ, slowEst := -1, time.Duration(-1)
	for j, sh := range f.shards {
		r := &ha.routes[j]
		if len(sh.batch) == 0 || r.target < 0 {
			continue
		}
		c := ha.sweepEstimate(f.store, sh.batch)
		if r.factor > 1 {
			c = time.Duration(float64(c) * r.factor)
		}
		if r.target != j {
			c += time.Duration(len(sh.batch)) * ha.cost.ReplicaRead
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
	hc, hf := ha.hedgePick(slowJ, ha.routes[slowJ].k, now)
	if hc >= 0 {
		ha.routes[slowJ].hedge = hc
		ha.routes[slowJ].hedgeFactor = hf
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
// pages routed to the shard, the shard-local hits, and the shard's own
// prefetch spend. Called every committed turn, shed windows included, so
// ledger EWMAs tick at one rate.
func (f *fleet) record(s int) {
	for i, sh := range f.shards {
		sh.arb.Record(s, f.demand[i].pages, f.demand[i].hits, f.pref[i].spent)
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

// ledger merges one session's per-shard arbiter ledgers: Queries and the
// Shedding flag are fleet-wide properties (identical on every shard — all
// shards record every turn), Demand, Granted and Used sum across shards
// (Granted/Used are device-time, so a fleet may grant up to S windows per
// turn), and HitRate is the demand-weighted mean of the shard rates. One
// shard's ledger is returned verbatim: a weighted mean of one rate can be an
// ulp off it.
func (f *fleet) ledger(session int) SessionLedger {
	merged := f.shards[0].arb.Ledger(session)
	if len(f.shards) == 1 {
		return merged
	}
	merged.Demand, merged.Granted, merged.Used = 0, 0, 0
	var weighted, demandSum float64
	for _, sh := range f.shards {
		l := sh.arb.Ledger(session)
		merged.Demand += l.Demand
		merged.Granted += l.Granted
		merged.Used += l.Used
		weighted += l.Demand * l.HitRate
		demandSum += l.Demand
	}
	if demandSum > 0 {
		merged.HitRate = weighted / demandSum
	}
	return merged
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

// cacheStats folds every cache of the fleet — each shard's shared cache, or
// its per-session private ones — into one snapshot. Shared caches carry their
// epoch (shard 0's is reported) and internal shard count; plain LRUs have
// neither.
func (f *fleet) cacheStats() (agg cache.StatsSnapshot) {
	add := func(st cache.Stats) {
		agg.Hits += st.Hits
		agg.Misses += st.Misses
		agg.Inserted += st.Inserted
		agg.Evictions += st.Evictions
	}
	for i, sh := range f.shards {
		for _, c := range sh.private {
			add(c.(*cache.Cache).Stats())
		}
		if sh.shared != nil {
			snap := sh.shared.Stats()
			add(snap.Stats)
			agg.Shards += snap.Shards
			if i == 0 {
				agg.Epoch = snap.Epoch
			}
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
