package engine

import (
	"slices"
	"time"

	"scout/internal/cache"
	"scout/internal/fault"
	"scout/internal/pagestore"
	"scout/internal/prefetch"
	"scout/internal/workload"
)

// shard is one shard's state: its slice of the prefetch cache, a disk with
// its own heads and seek ledger over the shard's physical range, scratch,
// and — on the serving path only — its own prefetch-budget arbiter (the
// "per-shard arbiter pool"). The coordinator visits it in shard order
// (ShardSet.Do); within one phase a shard writes only its own state and
// result slot and reads other shards' scratch (miss, batch) as left by the
// previous phase.
type shard struct {
	disk  *pagestore.Disk
	cache *cache.Sharded
	arb   *Arbiter           // serving only
	miss  []pagestore.PageID // the current demand turn's misses (lookup)
	read  []pagestore.PageID // sweepBatch scratch (plain flush)
	batch []pagestore.PageID // assembled sub-batch (HA flush)
}

// lookup runs one demand part against the shard's cache, leaving the misses
// in sh.miss (always reset, so an empty part leaves no stale misses behind).
// A stalled cache shard charges its penalty on every access, hit or miss:
// the stall is in front of the data, not behind it. inj is nil unless fault
// injection is armed, which keeps the fault-free loop free of the per-page
// shard-index hash.
func (sh *shard) lookup(part []pagestore.PageID, inj *fault.Injector, now time.Duration) (hits int, stall time.Duration, stalls int64) {
	sh.miss = sh.miss[:0]
	for _, pg := range part {
		if inj != nil {
			if d := inj.ShardStall(sh.cache.ShardIndex(pg), now); d > 0 {
				stall += d
				stalls++
			}
		}
		if sh.cache.Lookup(pg) {
			hits++
		} else {
			sh.miss = append(sh.miss, pg)
		}
	}
	return hits, stall, stalls
}

// demandOut is shard i's result slot for one demand turn.
type demandOut struct {
	cold   time.Duration // the part's cold sweep (single-session engine only)
	io     time.Duration // storage service time of the misses homed here (haState.serveMisses)
	stall  time.Duration // injected cache-shard stall delay (serving only)
	stalls int64
	hits   int
	pages  int // demand pages routed to this shard (arbiter evidence)
	miss   int // miss pages actually served
}

// prefetchOut is shard i's result slot for one prefetch window.
type prefetchOut struct {
	spent time.Duration
	n     int
}

// ShardedEngine is the scale-out variant of Engine: the page space is
// partitioned into S contiguous Hilbert ranges of the layout key
// (pagestore.Partition), each owned by a shard with its own cache slice,
// disk head and seek state. A stateless Router splits every demand set and
// prefetch prediction set by range; the shards' disks are modelled as
// running in parallel — each per-shard elevator batch is priced on its own
// head, one shard after another on the coordinator, and the merged service
// time is the slowest shard (parallel I/O) plus a per-page routing charge for
// pages shipped from non-home shards. The plan phase (prefetcher observe +
// plan) is untouched, and the commit arithmetic is deterministic, so output
// is byte-identical run-to-run; with S=1 every split is a no-op and the
// result is bit-exact with the unsharded BatchedIO engine
// (TestShardedSingleShardBitExact).
//
// A ShardedEngine is a single-coordinator object: RunSequence must not be
// called concurrently on the same instance. Use Clone for parallel runs.
type ShardedEngine struct {
	store  *pagestore.Store
	index  Index
	cfg    Config
	shards int
	router Router
	set    *ShardSet[*shard]

	// Per-turn scratch: splits and per-shard result slots.
	parts    [][]pagestore.PageID
	pparts   [][]pagestore.PageID
	demand   []demandOut
	prefetch []prefetchOut
	counts   []int
	batchBuf []pagestore.PageID
	reqBuf   []pagestore.PageID

	// High-availability state (DESIGN.md §13). Every engine has one: without
	// replication or shard faults it is a one-member chain with a nil
	// injector, which routes every demand miss to its home for free. haFlush
	// selects the prefetch flush that can fail over and hedge
	// (executePlanShardedHA) — it needs every sub-batch assembled up front,
	// so a fleet with nothing to fail over to keeps the lazy sweep.
	ha        *haState
	haFlush   bool
	vclock    time.Duration // virtual serving clock: sum of Residual+Window over all queries run
	prefHedge []prefetchOut // hedge result slots for the prefetch flush
	estBuf    []time.Duration
}

// NewShardedEngine builds an S-shard engine over the store's current
// layout. The total cache capacity (same sizing rule as the unsharded
// engine) is split across shards ±1 page; each shard's cache is a
// cache.Sharded with a single internal shard, i.e. an exact LRU over that
// shard's slice, which is what makes S=1 cache behavior identical to the
// unsharded engine's. Reads always take the batched elevator path —
// Config.BatchedIO is implied.
func NewShardedEngine(store *pagestore.Store, index Index, cfg Config, shards int) *ShardedEngine {
	if cfg.Cost == (pagestore.CostModel{}) {
		cfg.Cost = pagestore.DefaultCostModel()
	}
	if shards < 1 {
		shards = 1
	}
	part := pagestore.NewReplicatedPartition(store, shards, cfg.Replicas)
	capacity := cacheCapacity(cfg, store)
	base, extra := capacity/shards, capacity%shards
	state := make([]*shard, shards)
	for i := range state {
		sc := base
		if i < extra {
			sc++
		}
		sh := &shard{
			disk:  pagestore.NewDisk(store, cfg.Cost),
			cache: cache.NewSharded(sc, 1),
		}
		if cfg.Faults != nil {
			sh.disk.SetFaults(cfg.Faults, cfg.Retry)
		}
		if cfg.Backing != nil {
			sh.disk.SetBacking(cfg.Backing)
		}
		state[i] = sh
	}
	e := &ShardedEngine{
		store:    store,
		index:    index,
		cfg:      cfg,
		shards:   shards,
		router:   NewRouter(store, part, cfg.Cost),
		set:      NewShardSet(state),
		demand:   make([]demandOut, shards),
		prefetch: make([]prefetchOut, shards),
		counts:   make([]int, shards),
	}
	inj, _ := cfg.Faults.(*fault.Injector)
	e.ha = newHAState(part, inj, cfg.Cost, cfg.Retry, cfg.Hedge)
	if part.Replicas() > 1 || cfg.Hedge > 0 || e.ha.inj != nil {
		e.haFlush = true
		e.prefHedge = make([]prefetchOut, shards)
	}
	return e
}

// HAStats returns the accumulated high-availability ledger (zero value when
// the engine runs without replication, hedging or shard faults).
func (e *ShardedEngine) HAStats() HAStats { return e.ha.stats }

// Shards returns the shard count.
func (e *ShardedEngine) Shards() int { return e.shards }

// Router exposes the engine's router (for tests).
func (e *ShardedEngine) Router() Router { return e.router }

// Close releases nothing — the engine owns no goroutines or files — and
// stays so that callers keep pairing NewShardedEngine with it.
func (e *ShardedEngine) Close() {}

// Clone creates an independent sharded engine over the same store and index
// with fresh shard state (parallel runs give every coordinator a clone).
func (e *ShardedEngine) Clone() *ShardedEngine {
	return NewShardedEngine(e.store, e.index, e.cfg, e.shards)
}

// ShardStats returns each shard disk's accumulated statistics, indexed by
// shard.
func (e *ShardedEngine) ShardStats() []pagestore.DiskStats {
	out := make([]pagestore.DiskStats, e.shards)
	for i := 0; i < e.shards; i++ {
		out[i] = e.set.State(i).disk.Stats()
	}
	return out
}

// Stats returns the fleet-wide I/O statistics (per-shard stats folded with
// DiskStats.Add).
func (e *ShardedEngine) Stats() pagestore.DiskStats {
	var agg pagestore.DiskStats
	for i := 0; i < e.shards; i++ {
		s := e.set.State(i).disk.Stats()
		agg.Add(s)
	}
	return agg
}

// ResetStats zeroes every shard disk's statistics.
func (e *ShardedEngine) ResetStats() {
	for i := 0; i < e.shards; i++ {
		e.set.State(i).disk.ResetStats()
	}
}

// RunSequence mirrors Engine.RunSequence step for step — same clearing
// discipline, same observe/plan flow, same window arithmetic — with the
// demand read and the prefetch flush split across the shards.
// Comments that would duplicate the unsharded path are omitted; see
// engine.go. Divergences:
//
//   - Cold and Residual price the slowest shard's elevator sweep (the
//     shards' disks run in parallel) plus Route per page shipped from a
//     non-home shard. Cold charges routing for the whole demand set (cold
//     means nothing is cached anywhere); Residual charges it for remote
//     misses only — a remote cache hit is returned by its shard from
//     memory and its handoff is folded into CacheHit-scale noise we do not
//     model, keeping hits free exactly as on the unsharded path.
//   - The prefetch window closes per shard: every shard may sweep up to the
//     same budget concurrently, so a window prefetches up to S times more
//     pages while PrefetchIO — the slowest shard's spend — still respects
//     the window. That is the scale-out win the shard1 experiment measures.
func (e *ShardedEngine) RunSequence(seq workload.Sequence, p prefetch.Prefetcher) SequenceResult {
	e.set.Do(func(i int, sh *shard) {
		sh.cache.Clear()
		sh.disk.ResetHead()
	})
	p.Reset()

	res := SequenceResult{}
	res.ResultHash = fnvOffset
	ratio := seq.Params.WindowRatio
	if ratio <= 0 {
		ratio = 1
	}

	var pageBuf []pagestore.PageID
	resultLen := 0
	for qi, q := range seq.Queries {
		tr := QueryTrace{Seq: qi}

		pageBuf = e.index.QueryPages(q.Region, pageBuf[:0])
		tr.ResultPages = len(pageBuf)
		e.parts = e.router.Split(pageBuf, e.parts)
		home := e.router.Home(e.parts)
		tr.Fanout = e.router.Fanout(e.parts)

		served := e.demandRead(pageBuf, &tr)
		outs, parts := e.demand, e.parts

		var coldMax, missMax time.Duration
		for i := range outs {
			if outs[i].cold > coldMax {
				coldMax = outs[i].cold
			}
			if outs[i].io > missMax {
				missMax = outs[i].io
			}
			tr.HitPages += outs[i].hits
			e.counts[i] = outs[i].miss
		}
		remoteMiss, missCharge := e.router.Charge(e.counts, home)
		for i := range e.counts {
			e.counts[i] = len(parts[i])
		}
		_, coldCharge := e.router.Charge(e.counts, home)
		tr.Cold = coldMax + coldCharge
		tr.Residual = missMax + missCharge
		tr.RoutedPages = remoteMiss

		result := e.store.AppendMatches(newResult(resultLen), q.Region, served)
		resultLen = len(result)
		res.ResultHash = hashResult(res.ResultHash, qi, result)
		p.Observe(prefetch.Observation{
			Seq:    qi,
			Region: q.Region,
			Center: q.Center,
			Result: result,
			Pages:  append([]pagestore.PageID(nil), served...),
		})
		plan := p.Plan()
		tr.GraphBuild = plan.GraphBuild
		tr.GraphDelta = plan.GraphDelta
		tr.Prediction = plan.Prediction

		tr.Window = time.Duration(ratio * float64(tr.Cold))
		budget := tr.Window
		if !plan.PredictionHidden {
			budget -= plan.Prediction
		}
		if qi < len(seq.Queries)-1 && budget > 0 {
			var prefetched int
			var ioTime time.Duration
			if e.haFlush {
				prefetched, ioTime = e.executePlanShardedHA(plan, budget)
			} else {
				prefetched, ioTime = e.executePlanSharded(plan, budget)
			}
			tr.Prefetched = prefetched
			tr.PrefetchIO = ioTime
		}

		if qi < len(seq.Queries)-1 {
			// The scrub cursor lives in the shared FileStore; shard 0's disk
			// carries the scrub ledger.
			e.set.State(0).disk.ScrubIdle(budget-tr.PrefetchIO, e.cfg.ScrubPages)
		}

		// Fold this query's injected read retries into shard health evidence,
		// tick every ledger, and advance the virtual serving clock by the
		// query's end-to-end span. The clock persists across sequences: fault
		// episodes are functions of total time served, not of per-sequence
		// offsets.
		e.ha.foldRetries(e.set, e.vclock)
		e.vclock += tr.Residual + tr.Window

		counted := !(e.cfg.SkipFirstQuery && qi == 0)
		if counted {
			res.HitPages += int64(tr.HitPages)
			res.TotalPages += int64(tr.ResultPages)
			res.Cold += tr.Cold
			res.Residual += tr.Residual
			res.GraphBuild += tr.GraphBuild
			res.Prediction += tr.Prediction
			if tr.GraphDelta {
				res.DeltaBuilds++
			}
		}
		res.LostPages += int64(tr.LostPages)
		res.Queries = append(res.Queries, tr)
	}
	return res
}

// gatherBatch accumulates the plan's whole prediction set — traversal pages
// plus every request's pages — into the coordinator's reusable buffer.
func (e *ShardedEngine) gatherBatch(plan prefetch.Plan) []pagestore.PageID {
	buf := append(e.batchBuf[:0], plan.TraversalPages...)
	for _, r := range plan.Requests {
		e.reqBuf = e.index.QueryPages(r.Region, e.reqBuf[:0])
		buf = append(buf, e.reqBuf...)
	}
	e.batchBuf = buf
	return buf
}

// executePlanSharded is executePlanBatched with the elevator batch split by
// shard range: each shard sweeps its part against its own cache under the
// full window budget (the modelled disks run side by side). Shard ranges
// are contiguous in physical order, so every part is itself an elevator
// batch, and with S=1 the single part is the global batch and the
// arithmetic is bit-exact with the unsharded flush.
func (e *ShardedEngine) executePlanSharded(plan prefetch.Plan, budget time.Duration) (int, time.Duration) {
	e.pparts = e.router.Split(elevatorBatch(e.store, e.gatherBatch(plan)), e.pparts)
	outs := e.prefetch
	parts := e.pparts
	maxBridge := e.cfg.Cost.MaxBridge()
	e.set.Do(func(i int, sh *shard) {
		outs[i].n, outs[i].spent, sh.read = sweepBatch(e.store, sh.cache, parts[i], maxBridge, budget, sh.read, sh.disk.ReadSorted)
	})

	var spentMax time.Duration
	total := 0
	for i := range outs {
		total += outs[i].n
		if outs[i].spent > spentMax {
			spentMax = outs[i].spent
		}
	}
	return total, spentMax
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

// demandRead is the demand read (DESIGN.md §12, §13), in two passes over the
// shards with the routing decision between them:
//
//	A: every home shard prices its cold sweep and runs its cache lookups —
//	   no storage reads yet, only the miss sub-batches are known after this.
//	B: haState.serveMisses routes each missing home along its replica chain
//	   at the current virtual time and sweeps the sub-batches on the chosen
//	   serving shards.
//
// It reads pageBuf's split (e.parts), fills e.demand, and returns the served
// page set: pageBuf itself unless a home's whole chain was down, in which
// case that home's miss pages are dropped from the result (the caller
// answers degraded after waiting out the client read deadline).
func (e *ShardedEngine) demandRead(pageBuf []pagestore.PageID, tr *QueryTrace) []pagestore.PageID {
	parts, outs, ha := e.parts, e.demand, e.ha
	e.set.Do(func(i int, sh *shard) {
		sh.disk.ResetHead()
		o := &outs[i]
		*o = demandOut{cold: sh.disk.ColdCost(parts[i])}
		o.hits, _, _ = sh.lookup(parts[i], nil, 0)
	})
	ha.serveMisses(e.set, e.vclock, outs)

	anyLost := false
	for j := range ha.routes {
		miss := len(e.set.State(j).miss)
		if miss == 0 {
			continue
		}
		if t := ha.routes[j].target; t < 0 {
			tr.LostPages += miss
			anyLost = true
		} else if t != j {
			tr.FailedOverPages += miss
		}
	}
	if !anyLost {
		return pageBuf
	}
	// Rebuild the served set without the lost homes' miss pages, preserving
	// pageBuf order (result hashing and the prefetcher observation depend
	// on it).
	lost := make(map[pagestore.PageID]struct{})
	for j := range ha.routes {
		if ha.routes[j].target < 0 {
			for _, pg := range e.set.State(j).miss {
				lost[pg] = struct{}{}
			}
		}
	}
	kept := pageBuf[:0]
	for _, pg := range pageBuf {
		if _, dropped := lost[pg]; !dropped {
			kept = append(kept, pg)
		}
	}
	return kept
}

// priceSweep prices one home's assembled prefetch sub-batch on this shard's
// disk under the window budget: the usual elevator runs, a brownout
// multiplier on each run's cost, and the per-page replica surcharge when
// this shard serves the range from its replica slice. It only prices — the
// delivered-page count n is replayed for cache insertion on the home shard
// once the (possibly hedged) winner is known. The budget closes on the run
// that crossed it, exactly like the plain flush.
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

// executePlanShardedHA is executePlanSharded with failover routing and
// hedged reads, in three passes over the shards:
//
//	A: each home assembles its sub-batch against its own cache (dedup +
//	   elevator order), exactly as the plain path does inline.
//	B: the coordinator routes every sub-batch (routeQuiet — background work
//	   pays no probes and skips dead chains) and, when hedging is on, marks
//	   the slowest estimated sub-batch for duplicate issue to its next live
//	   replica (planHedge); the serving shards then price the sweeps.
//	C: the coordinator takes the cheaper outcome of each hedged pair, and
//	   every home replays its winner's delivered run prefix into its own
//	   cache — insertion must happen on the home (the cache slice is the
//	   home's) and needs the winner, which is why pricing and insertion
//	   are separate passes.
//
// Healthy chains reduce to home-serves-home with no hedge marks, and the
// three passes replay the plain path's disk and cache call sequences
// verbatim.
func (e *ShardedEngine) executePlanShardedHA(plan prefetch.Plan, budget time.Duration) (int, time.Duration) {
	e.pparts = e.router.Split(e.gatherBatch(plan), e.pparts)
	parts := e.pparts
	maxBridge := e.cfg.Cost.MaxBridge()
	ha := e.ha
	now := e.vclock

	e.set.Do(func(i int, sh *shard) {
		sh.batch = sh.batch[:0]
		if len(parts[i]) == 0 {
			return
		}
		sh.batch = append(sh.batch, parts[i]...)
		sh.batch = assembleBatch(e.store, sh.cache, sh.batch)
	})

	mains, hedges := e.prefetch, e.prefHedge
	for j := 0; j < e.shards; j++ {
		mains[j] = prefetchOut{}
		hedges[j] = prefetchOut{}
		r := haRoute{target: j, factor: 1, hedge: -1, hedgeFactor: 1}
		if len(e.set.State(j).batch) > 0 {
			r = ha.routeQuiet(j, now)
		}
		ha.routes[j] = r
	}
	if ha.hedge > 0 && ha.part.Replicas() > 1 {
		e.planHedge(now)
	}

	e.set.Do(func(t int, sh *shard) {
		for j := 0; j < e.shards; j++ {
			r := &ha.routes[j]
			batch := e.set.State(j).batch
			if len(batch) == 0 {
				continue
			}
			if r.target == t {
				mains[j] = sh.priceSweep(e.store, batch, maxBridge, budget, r.factor, t != j)
			}
			if r.hedge == t {
				hedges[j] = sh.priceSweep(e.store, batch, maxBridge, budget, r.hedgeFactor, true)
			}
		}
	})

	for j := 0; j < e.shards; j++ {
		r := &ha.routes[j]
		if r.hedge < 0 || len(e.set.State(j).batch) == 0 {
			continue
		}
		ha.stats.HedgedWindows++
		// The cheaper outcome wins; on a spend tie the primary does (more
		// pages for the same time never loses, and ties must break
		// deterministically).
		if hedges[j].spent < mains[j].spent {
			ha.stats.HedgeWins++
			mains[j] = hedges[j]
		}
	}

	e.set.Do(func(i int, sh *shard) {
		left := mains[i].n
		if left == 0 {
			return
		}
		e.store.Runs(sh.batch, maxBridge, func(run []pagestore.PageID) bool {
			for _, pg := range run {
				sh.cache.Insert(pg)
				left--
			}
			return left > 0
		})
	})

	var spentMax time.Duration
	total := 0
	for j := 0; j < e.shards; j++ {
		total += mains[j].n
		if mains[j].spent > spentMax {
			spentMax = mains[j].spent
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
func (e *ShardedEngine) planHedge(now time.Duration) {
	ha := e.ha
	est := e.estBuf[:0]
	slowJ, slowEst := -1, time.Duration(-1)
	for j := 0; j < e.shards; j++ {
		r := &ha.routes[j]
		batch := e.set.State(j).batch
		if len(batch) == 0 || r.target < 0 {
			continue
		}
		c := ha.sweepEstimate(e.store, batch)
		if r.factor > 1 {
			c = time.Duration(float64(c) * r.factor)
		}
		if r.target != j {
			c += time.Duration(len(batch)) * ha.cost.ReplicaRead
		}
		est = append(est, c)
		if c > slowEst {
			slowJ, slowEst = j, c
		}
	}
	e.estBuf = est
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
