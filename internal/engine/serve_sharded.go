package engine

import (
	"time"

	"scout/internal/cache"
	"scout/internal/fault"
	"scout/internal/pagestore"
)

// serveShard is one commit-phase shard worker's private state: its slice of
// the shared cache, a shared-style disk with per-session heads over the
// shard's physical range, and its own prefetch-budget arbiter — the
// "per-shard arbiter pool". Only the shard's worker goroutine touches it
// during a fan-out; the coordinator may read it between fan-outs (the
// ShardSet's WaitGroup gives the happens-before edge).
type serveShard struct {
	disk  *sharedDisk
	cache *cache.Sharded
	arb   *Arbiter
	miss  []pagestore.PageID
	read  []pagestore.PageID // sweepBatch scratch
}

// serveDemandOut is shard i's result slot for one turn's demand fan-out.
type serveDemandOut struct {
	io     time.Duration // miss sweep plus this shard's stall delay
	stall  time.Duration
	stalls int64
	hits   int
	pages  int // demand pages routed to this shard (arbiter evidence)
	miss   int
}

// servePrefetchOut is shard i's result slot for one granted window.
type servePrefetchOut struct {
	grant time.Duration
	spent time.Duration
	n     int
}

// demandMerge is the coordinator's view of one merged demand turn.
type demandMerge struct {
	hits        int
	residual    time.Duration // slowest shard (io incl. stall) + route charge
	stall       time.Duration // summed across shards, reporting only
	stallEvents int64
	fanout      int
	routed      int // miss pages shipped from non-home shards
	charge      time.Duration
}

// serveShardSet is the sharded backend of the commit loop (ServeConfig.
// Shards > 0): S shard workers over contiguous Hilbert ranges of the layout
// key, driven through the same plan-then-fan-out router as the
// single-session ShardedEngine. The commit loop stays the single
// coordinator — fan-outs from the event loop are sequential — so the
// virtual-time arithmetic is deterministic; the parallelism lives inside
// each fan-out. With one shard every split is a no-op, shard 0's cache,
// disk and arbiter are built exactly like the unsharded serve's, and the
// whole turn is bit-exact with the unsharded BatchedIO commit path
// (TestServeShardedSingleShardBitExact).
type serveShardSet struct {
	router Router
	set    *ShardSet[*serveShard]
	inj    *fault.Injector // nil unless fault injection is armed

	parts  [][]pagestore.PageID
	pparts [][]pagestore.PageID
	counts []int
	demand []serveDemandOut
	pref   []servePrefetchOut
	home   int

	// ha, non-nil when ServeConfig.Replicas > 1 or shard faults are
	// planned, carries the replicated partition, the per-shard health
	// ledgers and the failover routes for the current turn (DESIGN.md
	// §13). Nil keeps demandTurn on the single-fan-out replication-free
	// path byte-identically.
	ha        *haState
	haRetries []int64
}

// newServeShardSet builds the shard fleet for one Serve call: the cache
// capacity splits across shards ±1 page (each slice sized through
// resolveCacheShards, the same rule as the unsharded serve cache), and each
// shard gets its own per-session disk heads, interference ledger and
// arbiter. inj must be nil unless the caller's faultsOn gate passed, so the
// fault-free path stays branch-free inside the workers.
func newServeShardSet(store *pagestore.Store, cfg ServeConfig, sessions, capacity int, inj *fault.Injector) *serveShardSet {
	shards := cfg.Shards
	base, extra := capacity/shards, capacity%shards
	state := make([]*serveShard, shards)
	for i := range state {
		sc := base
		if i < extra {
			sc++
		}
		sh := &serveShard{
			disk:  newSharedDisk(store, cfg.Engine.Cost, cfg.InterferenceSeek, sessions),
			cache: cache.NewSharded(sc, resolveCacheShards(sc, cfg.CacheShards)),
			arb:   NewArbiter(cfg.Policy, sessions),
		}
		if inj != nil {
			sh.disk.setFaults(inj, cfg.Retry)
		}
		if cfg.Engine.Backing != nil {
			sh.disk.setBacking(cfg.Engine.Backing)
		}
		state[i] = sh
	}
	replicas := cfg.Replicas
	if replicas < 1 {
		replicas = 1
	}
	if replicas > shards {
		replicas = shards
	}
	part := pagestore.NewReplicatedPartition(store, shards, replicas)
	sv := &serveShardSet{
		router: NewRouter(store, part, cfg.Engine.Cost),
		set:    NewShardSet(state),
		inj:    inj,
		counts: make([]int, shards),
		demand: make([]serveDemandOut, shards),
		pref:   make([]servePrefetchOut, shards),
	}
	shardFaults := inj != nil && inj.Plan().ShardFaultsEnabled()
	if replicas > 1 || shardFaults {
		var haInj *fault.Injector
		if shardFaults {
			haInj = inj
		}
		sv.ha = newHAState(part, haInj, cfg.Engine.Cost, cfg.Retry, 0)
		sv.haRetries = make([]int64, shards)
	}
	return sv
}

// setPriority forwards a class weight to every shard's arbiter.
func (sv *serveShardSet) setPriority(session int, w float64) {
	for i := 0; i < sv.set.Shards(); i++ {
		sv.set.State(i).arb.SetPriority(session, w)
	}
}

// setShedding marks the session shedding (or not) on every shard's arbiter.
func (sv *serveShardSet) setShedding(session int, shed bool) {
	for i := 0; i < sv.set.Shards(); i++ {
		sv.set.State(i).arb.SetShedding(session, shed)
	}
}

// demandTurn runs one turn's demand phase: split the demand set by shard
// range, fan out (each shard resets the session's head, charges stalls on
// its own cache's shard index, looks up its pages and sweeps its misses in
// one elevator batch), then merge — the residual is the slowest shard's
// sweep-plus-stall (the shard disks run in parallel) plus Route per miss
// page shipped from a non-home shard. Remote cache hits stay free, exactly
// as hits never touch the residual on the unsharded path. The prefetch
// slots are reset here so a turn that sheds its window records zero spend.
func (sv *serveShardSet) demandTurn(s int, pages []pagestore.PageID, contenders int, now time.Duration) demandMerge {
	sv.parts = sv.router.Split(pages, sv.parts)
	sv.home = sv.router.Home(sv.parts)
	parts, outs, prefs, inj := sv.parts, sv.demand, sv.pref, sv.inj
	if sv.ha == nil {
		sv.set.Do(func(i int, sh *serveShard) {
			o := &outs[i]
			*o = serveDemandOut{}
			prefs[i] = servePrefetchOut{}
			sh.disk.resetHead(s)
			part := parts[i]
			o.pages = len(part)
			sh.miss = sh.miss[:0]
			for _, pg := range part {
				if inj != nil {
					if d := inj.ShardStall(sh.cache.ShardIndex(pg), now); d > 0 {
						o.stall += d
						o.stalls++
					}
				}
				if sh.cache.Lookup(pg) {
					o.hits++
				} else {
					sh.miss = append(sh.miss, pg)
				}
			}
			o.miss = len(sh.miss)
			o.io = sh.disk.readBatch(s, sh.miss, contenders, now) + o.stall
		})
	} else {
		sv.demandTurnHA(s, contenders, now)
	}
	m := demandMerge{fanout: sv.router.Fanout(parts)}
	for i := range outs {
		if outs[i].io > m.residual {
			m.residual = outs[i].io
		}
		m.hits += outs[i].hits
		m.stall += outs[i].stall
		m.stallEvents += outs[i].stalls
		sv.counts[i] = outs[i].miss
	}
	m.routed, m.charge = sv.router.Charge(sv.counts, sv.home)
	m.residual += m.charge
	return m
}

// demandTurnHA is demandTurn's fault-tolerant body (DESIGN.md §13), the
// serve-path twin of ShardedEngine.demandHA: fan-out A prices stalls and
// runs the cache lookups, the coordinator chain-walks every missing home's
// replica at the turn's commit time, and fan-out B sweeps each miss
// sub-batch on its serving shard — browned sweeps billed at their
// multiplier, replica-slice pages surcharged per page. A home whose whole
// chain is down contributes its discovery charge plus the client read
// deadline as its service time (the session is answered degraded; the
// pages are counted lost in the HA ledger). Health evidence — outage
// probes, brownout service, injected read retries — folds into the
// per-shard ledgers at the end of the turn, so a shard that stays sick
// trips once and is then skipped for free until its cooldown probe.
func (sv *serveShardSet) demandTurnHA(s, contenders int, now time.Duration) {
	parts, outs, prefs, inj, ha := sv.parts, sv.demand, sv.pref, sv.inj, sv.ha
	sv.set.Do(func(i int, sh *serveShard) {
		o := &outs[i]
		*o = serveDemandOut{}
		prefs[i] = servePrefetchOut{}
		sh.disk.resetHead(s)
		part := parts[i]
		o.pages = len(part)
		sh.miss = sh.miss[:0]
		for _, pg := range part {
			if inj != nil {
				if d := inj.ShardStall(sh.cache.ShardIndex(pg), now); d > 0 {
					o.stall += d
					o.stalls++
				}
			}
			if sh.cache.Lookup(pg) {
				o.hits++
			} else {
				sh.miss = append(sh.miss, pg)
			}
		}
		o.miss = len(sh.miss)
	})

	for j := 0; j < sv.set.Shards(); j++ {
		r := haRoute{target: j, factor: 1, hedge: -1, hedgeFactor: 1}
		if len(parts[j]) > 0 && len(sv.set.State(j).miss) > 0 {
			r = ha.routeDemand(j, now)
		}
		ha.routes[j] = r
	}

	sv.set.Do(func(t int, sh *serveShard) {
		for j := 0; j < sv.set.Shards(); j++ {
			r := &ha.routes[j]
			if r.target != t || len(parts[j]) == 0 {
				continue
			}
			miss := sv.set.State(j).miss
			base := sh.disk.readBatch(s, miss, contenders, now)
			var extra time.Duration
			if r.factor > 1 {
				extra = time.Duration(float64(base) * (r.factor - 1))
			}
			var repPages int64
			if t != j {
				repPages = int64(len(miss))
			}
			rep := sh.disk.chargeHA(extra, repPages)
			outs[j].io = r.pre + base + extra + rep + outs[j].stall
		}
	})

	for j := 0; j < sv.set.Shards(); j++ {
		r := &ha.routes[j]
		if len(parts[j]) == 0 {
			continue
		}
		miss := sv.set.State(j).miss
		if len(miss) == 0 {
			outs[j].io = outs[j].stall
			continue
		}
		switch {
		case r.target < 0:
			ha.stats.LostBatches++
			ha.stats.LostPages += int64(len(miss))
			ha.stats.LostDelay += ha.retry.Timeout
			outs[j].miss = 0
			outs[j].io = r.pre + outs[j].stall
		case r.target != j:
			ha.stats.FailedOverBatches++
			ha.stats.FailedOverPages += int64(len(miss))
		}
		if r.target >= 0 && r.factor > 1 {
			ha.stats.BrownedBatches++
			x := outs[j].io - r.pre - outs[j].stall
			if r.target != j {
				x -= time.Duration(len(miss)) * ha.cost.ReplicaRead
			}
			ha.stats.BrownoutDelay += x - time.Duration(float64(x)/r.factor)
		}
	}

	for i := 0; i < sv.set.Shards(); i++ {
		retries := sv.set.State(i).disk.stats.FaultRetries
		ha.evidence[i] += float64(retries - sv.haRetries[i])
		sv.haRetries[i] = retries
	}
	ha.observe(now)
}

// prefetchTurn runs one granted prefetch window: the step's plan-time
// elevator batch (step.batch) splits by shard range (each part stays an elevator batch)
// and every shard asks ITS arbiter for a grant against the full window
// budget — the shard disks sweep concurrently, so the fleet may spend up to
// S grants of device time while the window (PrefetchIO, the slowest shard's
// spend) still closes on time. That is the scale-out win. grant0 is shard
// 0's grant, which paces the background scrub exactly like the unsharded
// grant does.
func (sv *serveShardSet) prefetchTurn(s int, batch []pagestore.PageID, budget time.Duration, contenders []int, now time.Duration) (prefetched int, io, grant0 time.Duration) {
	sv.pparts = sv.router.Split(batch, sv.pparts)
	parts, outs := sv.pparts, sv.pref
	nc := len(contenders)
	ha := sv.ha
	sv.set.Do(func(i int, sh *serveShard) {
		o := &outs[i]
		grant := sh.arb.Grant(s, contenders, budget)
		o.grant = grant
		if grant <= 0 {
			return
		}
		factor := 1.0
		if ha != nil {
			// Background reads have no failover on the serve path (demand
			// failover is what protects waiting clients): an outaged home
			// simply skips its window, a browned one sweeps at its
			// multiplier and delivers fewer pages per grant. ShardOutage/
			// ShardBrownout are pure, so this is safe on the workers.
			if ha.inj.ShardOutage(i, sv.set.Shards(), now) {
				return
			}
			factor = ha.inj.ShardBrownout(i, now)
		}
		o.n, o.spent, sh.read = sweepBatch(sh.disk.store, sh.cache, parts[i], sh.disk.model.MaxBridge(), grant, sh.read, func(run []pagestore.PageID) time.Duration {
			base := sh.disk.readSweep(s, run, nc, now)
			if factor > 1 {
				extra := time.Duration(float64(base) * (factor - 1))
				sh.disk.chargeHA(extra, 0)
				base += extra
			}
			return base
		})
	})
	for i := range outs {
		prefetched += outs[i].n
		if outs[i].spent > io {
			io = outs[i].spent
		}
	}
	return prefetched, io, outs[0].grant
}

// record feeds the turn's per-shard evidence into each shard's arbiter:
// the pages routed to the shard, the shard-local hits, and the shard's own
// prefetch spend. Called every committed turn, mirroring the unsharded
// arb.Record placement, so ledger EWMAs tick at the same rate.
func (sv *serveShardSet) record(s int) {
	outs, prefs := sv.demand, sv.pref
	sv.set.Do(func(i int, sh *serveShard) {
		sh.arb.Record(s, outs[i].pages, outs[i].hits, prefs[i].spent)
	})
}

// faultCounters sums the fault-evidence counters across the shard disks;
// the commit loop differences them around a turn to feed the breaker.
func (sv *serveShardSet) faultCounters() (retries, timeouts, corrupt, repaired int64) {
	for i := 0; i < sv.set.Shards(); i++ {
		st := &sv.set.State(i).disk.stats
		retries += st.FaultRetries
		timeouts += st.TimedOutReads
		corrupt += st.CorruptPages
		repaired += st.RepairedPages
	}
	return
}

// scrubbing reports whether the fleet has a durable backing to scrub.
func (sv *serveShardSet) scrubbing() bool { return sv.set.State(0).disk.backing != nil }

// scrubStep advances the background scrub on shard 0's disk — the scrub
// cursor lives in the shared FileStore, one ledger owns its accounting.
func (sv *serveShardSet) scrubStep(max int) { sv.set.State(0).disk.scrubStep(max) }

// ledger merges one session's per-shard arbiter ledgers: Queries and the
// Shedding flag are fleet-wide properties (identical on every shard — all
// shards record every turn), Demand, Granted and Used sum across shards
// (Granted/Used are device-time, so a fleet may grant up to S windows per
// turn), and HitRate is the demand-weighted mean of the shard rates. One
// shard returns its ledger verbatim, keeping S=1 bit-exact.
func (sv *serveShardSet) ledger(session int) SessionLedger {
	if sv.set.Shards() == 1 {
		return sv.set.State(0).arb.Ledger(session)
	}
	merged := sv.set.State(0).arb.Ledger(session)
	merged.Demand, merged.Granted, merged.Used = 0, 0, 0
	var weighted, demandSum float64
	for i := 0; i < sv.set.Shards(); i++ {
		l := sv.set.State(i).arb.Ledger(session)
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

// finish folds the fleet's disk, interference and cache ledgers into the
// result (per-shard disk stats kept in shard order for the experiments)
// and stops the workers.
func (sv *serveShardSet) finish(res *ServeResult) {
	if sv.ha != nil {
		res.HA = sv.ha.stats
	}
	res.ShardDisks = make([]pagestore.DiskStats, sv.set.Shards())
	for i := 0; i < sv.set.Shards(); i++ {
		d := sv.set.State(i).disk
		res.ShardDisks[i] = d.stats
		res.Disk.Add(d.stats)
		res.InterferenceSeeks += d.interferenceSeeks
		res.Interference += d.interferenceTime
		snap := sv.set.State(i).cache.Stats()
		if i == 0 {
			res.Cache.Epoch = snap.Epoch
		}
		res.Cache.Hits += snap.Hits
		res.Cache.Misses += snap.Misses
		res.Cache.Inserted += snap.Inserted
		res.Cache.Evictions += snap.Evictions
		res.Cache.Shards += snap.Shards
	}
	sv.set.Close()
}
