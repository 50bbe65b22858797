package engine

import (
	"time"

	"scout/internal/cache"
	"scout/internal/fault"
	"scout/internal/pagestore"
)

// servePrefetchOut is shard i's result slot for one granted window.
type servePrefetchOut struct {
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

// serveShardSet is the sharded backend of the commit loop (ServeConfig.
// Shards > 0): S shards over contiguous Hilbert ranges of the layout key,
// driven through the same split-route-merge router as the single-session
// ShardedEngine. The commit loop is the single coordinator and visits the
// shards in order (ShardSet.Do), so the virtual-time arithmetic is
// deterministic; the fleet's parallelism is modelled — max over the shards'
// service times — not executed. With one shard every split is a no-op,
// shard 0's cache, disk and arbiter are built exactly like the unsharded
// serve's, and the whole turn is bit-exact with the unsharded BatchedIO
// commit path (TestServeShardedSingleShardBitExact).
type serveShardSet struct {
	router Router
	set    *ShardSet[*shard]
	inj    *fault.Injector // nil unless fault injection is armed

	parts  [][]pagestore.PageID
	pparts [][]pagestore.PageID
	counts []int
	demand []demandOut
	pref   []servePrefetchOut

	// ha carries the replicated partition, the per-shard health ledgers and
	// the failover routes for the current turn (DESIGN.md §13); with
	// ServeConfig.Replicas <= 1 and no shard faults planned it is a
	// one-member chain that routes every home to itself for free.
	ha *haState
}

// newServeShardSet builds the shard fleet for one Serve call: the cache
// capacity splits across shards ±1 page (each slice sized through
// resolveCacheShards, the same rule as the unsharded serve cache), and each
// shard gets its own per-session disk heads, interference ledger and
// arbiter. inj must be nil unless the caller's faultsOn gate passed, so the
// fault-free path stays branch-free inside the shard turns.
func newServeShardSet(store *pagestore.Store, cfg ServeConfig, sessions, capacity int, inj *fault.Injector) *serveShardSet {
	shards := cfg.Shards
	base, extra := capacity/shards, capacity%shards
	state := make([]*shard, shards)
	for i := range state {
		sc := base
		if i < extra {
			sc++
		}
		sh := &shard{
			disk:  pagestore.NewSharedDisk(store, cfg.Engine.Cost, sessions, cfg.InterferenceSeek),
			cache: cache.NewSharded(sc, resolveCacheShards(sc, cfg.CacheShards)),
			arb:   NewArbiter(cfg.Policy, sessions),
		}
		if inj != nil {
			sh.disk.SetFaults(inj, cfg.Retry)
		}
		if cfg.Engine.Backing != nil {
			sh.disk.SetBacking(cfg.Engine.Backing)
		}
		state[i] = sh
	}
	part := pagestore.NewReplicatedPartition(store, shards, cfg.Replicas)
	return &serveShardSet{
		router: NewRouter(store, part, cfg.Engine.Cost),
		set:    NewShardSet(state),
		inj:    inj,
		counts: make([]int, shards),
		demand: make([]demandOut, shards),
		pref:   make([]servePrefetchOut, shards),
		ha:     newHAState(part, inj, cfg.Engine.Cost, cfg.Retry, 0),
	}
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
// range, visit every shard (each binds its disk to the session's head, the
// contender count and the turn's commit time, resets that head, charges
// stalls on its own cache's shard index and looks up its pages), read the
// misses through the failover router (haState.serveMisses: each miss
// sub-batch swept in one elevator batch on its serving shard), then merge —
// the residual is the slowest shard's sweep-plus-stall (the shard disks run
// in parallel) plus Route per miss page shipped from a non-home shard.
// Remote cache hits stay free, exactly as hits never touch the residual on
// the unsharded path. Health evidence — outage probes, brownout service,
// injected read retries — folds into the per-shard ledgers at the end of the
// demand phase, so a shard that stays sick trips once and is then skipped
// for free until its cooldown probe. The prefetch slots are reset here so a
// turn that sheds its window records zero spend.
func (sv *serveShardSet) demandTurn(s int, pages []pagestore.PageID, contenders int, now time.Duration) demandMerge {
	sv.parts = sv.router.Split(pages, sv.parts)
	home := sv.router.Home(sv.parts)
	parts, outs, prefs, inj := sv.parts, sv.demand, sv.pref, sv.inj
	sv.set.Do(func(i int, sh *shard) {
		prefs[i] = servePrefetchOut{}
		sh.disk.At(s, contenders, now)
		sh.disk.ResetHead()
		o := &outs[i]
		*o = demandOut{pages: len(parts[i])}
		o.hits, o.stall, o.stalls = sh.lookup(parts[i], inj, now)
	})
	sv.ha.serveMisses(sv.set, now, outs)
	sv.ha.foldRetries(sv.set, now)

	m := demandMerge{fanout: sv.router.Fanout(parts)}
	for i := range outs {
		if io := outs[i].io + outs[i].stall; io > m.residual {
			m.residual = io
		}
		m.hits += outs[i].hits
		m.stall += outs[i].stall
		m.stallEvents += outs[i].stalls
		sv.counts[i] = outs[i].miss
	}
	m.routed, m.charge = sv.router.Charge(sv.counts, home)
	m.residual += m.charge
	return m
}

// prefetchTurn runs one granted prefetch window: the step's plan-time
// elevator batch (step.batch) splits by shard range (each part stays an
// elevator batch) and every shard asks ITS arbiter for a grant against the
// full window budget — the modelled shard disks sweep side by side, so the
// fleet may spend up to S grants of device time while the window
// (PrefetchIO, the slowest shard's spend) still closes on time. That is the
// scale-out win. The sweeps are charged to the read context demandTurn bound
// for this turn (same session, contenders and commit time). grant0 is shard
// 0's grant, which paces the background scrub exactly like the unsharded
// grant does.
func (sv *serveShardSet) prefetchTurn(s int, batch []pagestore.PageID, budget time.Duration, contenders []int, now time.Duration) (prefetched int, io, grant0 time.Duration) {
	sv.pparts = sv.router.Split(batch, sv.pparts)
	parts, outs := sv.pparts, sv.pref
	ha := sv.ha
	sv.set.Do(func(i int, sh *shard) {
		o := &outs[i]
		grant := sh.arb.Grant(s, contenders, budget)
		o.grant = grant
		if grant <= 0 {
			return
		}
		// Background reads have no failover on the serve path (demand
		// failover is what protects waiting clients): an outaged home simply
		// skips its window, a browned one sweeps at its multiplier and
		// delivers fewer pages per grant. ShardOutage/ShardBrownout are
		// nil-safe: no shard faults, no outage, factor 1.
		if ha.inj.ShardOutage(i, sv.set.Shards(), now) {
			return
		}
		factor := ha.inj.ShardBrownout(i, now)
		o.n, o.spent, sh.read = sweepBatch(sh.disk.Store(), sh.cache, parts[i], sh.disk.Model().MaxBridge(), grant, sh.read, func(run []pagestore.PageID) time.Duration {
			base := sh.disk.ReadSorted(run)
			if factor > 1 {
				extra := time.Duration(float64(base) * (factor - 1))
				sh.disk.ChargeHA(extra, 0)
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
	sv.set.Do(func(i int, sh *shard) {
		sh.arb.Record(s, outs[i].pages, outs[i].hits, prefs[i].spent)
	})
}

// faultCounters sums the fault-evidence counters across the shard disks
// (only those four fields are filled); the commit loop differences them
// around a turn to feed the breaker.
func (sv *serveShardSet) faultCounters() (sum pagestore.DiskStats) {
	for i := 0; i < sv.set.Shards(); i++ {
		st := sv.set.State(i).disk.Stats()
		sum.FaultRetries += st.FaultRetries
		sum.TimedOutReads += st.TimedOutReads
		sum.CorruptPages += st.CorruptPages
		sum.RepairedPages += st.RepairedPages
	}
	return sum
}

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
// result (per-shard disk stats kept in shard order for the experiments).
func (sv *serveShardSet) finish(res *ServeResult) {
	res.HA = sv.ha.stats
	res.ShardDisks = make([]pagestore.DiskStats, sv.set.Shards())
	for i := 0; i < sv.set.Shards(); i++ {
		d := sv.set.State(i).disk
		res.ShardDisks[i] = d.Stats()
		res.Disk.Add(d.Stats())
		seeks, penalty := d.Interference()
		res.InterferenceSeeks += seeks
		res.Interference += penalty
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
}
