package engine

import (
	"time"

	"scout/internal/fault"
	"scout/internal/pagestore"
)

// This file is the shard fault-tolerance layer (DESIGN.md §13): a per-shard
// health ledger reusing the PR 6 breaker shape, chain-walking failover
// routing over the replicated partition, the demand read's storage half
// (serveMisses) and the hedged-prefetch pick. Every fleet, whatever its
// driver, shard count and replication degree, reads its demand misses
// through here: an unreplicated fleet with no shard faults is a one-member
// chain and a nil injector, which routes every home to itself and charges
// nothing. All decisions are pure functions of (fault plan, virtual time,
// health state driven by the same), which keeps every run byte-identical for
// any worker count.

// HAStats is the fleet-wide high-availability ledger one run accumulates. All zero when replication and shard faults are off.
type HAStats struct {
	// FailedOverPages counts demand miss pages served by a replica shard
	// instead of their sick home.
	FailedOverPages int64
	// OutageProbes counts failed attempts against outaged shards during
	// chain walks (each charges one Seek of fast-fail: the router abandons
	// a dead primary at the first error when a replica exists).
	OutageProbes int64
	// HedgedWindows counts prefetch sub-batches issued to both the routed
	// shard and its replica; HedgeWins the subset where the replica's
	// outcome was cheaper and won.
	HedgedWindows int64
	HedgeWins     int64
	// FailoverTrips counts shard health-ledger trips.
	FailoverTrips int64
}

// failoverBreakerConfig tunes the per-shard health ledger. It reuses the
// breaker struct but trips faster and cools quicker than the per-session
// prefetch breaker: one outage discovery (weight 3, alpha 0.5) reaches the
// 1.5 trip score immediately — an outage is unambiguous evidence, and every
// query routed at a dead primary pays a probe until the ledger trips.
func failoverBreakerConfig() BreakerConfig {
	return BreakerConfig{Enabled: true, Alpha: 0.5, TripScore: 1.5, Cooldown: 100 * time.Millisecond}
}

// haRoute is the coordinator's routing decision for one home shard's
// storage read.
type haRoute struct {
	// target is the serving shard, or -1 when every chain member was down
	// (the sub-batch is lost).
	target int
	// k is target's position in the replica chain (0 = the home itself).
	k int
	// factor is the serving shard's brownout multiplier (1 = none).
	factor float64
	// pre is the discovery charge paid before the serving read: one Seek
	// per fast-fail probe of an outaged chain member, plus the client's
	// read deadline when the chain exhausted.
	pre time.Duration
	// hedge is the hedged-prefetch alternate shard (-1 = none) and
	// hedgeFactor its brownout multiplier. Demand routing never hedges.
	hedge       int
	hedgeFactor float64
}

// readDeadline is one read's fault-recovery cap on every fleet disk
// (pagestore.ReadTimeout): the time a client waits out for a sub-batch whose
// whole replica chain is down.
const readDeadline = pagestore.ReadTimeout

// haState is the failover router's mutable state: the replicated partition,
// the (possibly nil) shard-fault injector, one health breaker per shard,
// and per-turn scratch. Single-coordinator, like everything merged on
// the virtual clock.
type haState struct {
	part  *pagestore.Partition
	inj   *fault.Injector
	cost  pagestore.CostModel
	hedge float64 // hedged-prefetch threshold; 0 = off
	// plain marks a fleet of one-member chains with no shard-fault injector:
	// every home serves itself at factor 1, there is nowhere to fail over to
	// and nothing to skip, so no route is walked and no health evidence kept.
	plain bool

	health   []breaker
	routes   []haRoute
	evidence []float64
	retries  []int64 // per-shard DiskStats.FaultRetries already folded into evidence
	stats    HAStats
}

// newHAState builds the failover router for a shard fleet. inj is the
// fleet's fault injector, or nil; only its shard-fault domains concern the
// router, so an injector that plans none is dropped — h.inj != nil means
// shard faults are armed. hedge 0 disables hedged prefetch.
func newHAState(part *pagestore.Partition, inj *fault.Injector, cost pagestore.CostModel, hedge float64) *haState {
	if inj != nil && !inj.Plan().ShardFaultsEnabled() {
		inj = nil
	}
	n := part.Shards()
	h := &haState{
		part:     part,
		inj:      inj,
		cost:     cost,
		hedge:    hedge,
		plain:    part.Replicas() <= 1 && inj == nil,
		health:   make([]breaker, n),
		routes:   make([]haRoute, n),
		evidence: make([]float64, n),
		retries:  make([]int64, n),
	}
	cfg := failoverBreakerConfig()
	for i := range h.health {
		h.health[i].cfg = cfg
	}
	return h
}

// routeDemand picks the serving shard for home j's demand misses at
// virtual time now, walking the replica chain j, (j+1)%S, ... and charging
// discovery honestly:
//
//   - pass 1 walks the members the health ledger likes: a tripped member
//     still cooling down is skipped for free — that is the ledger's whole
//     value (once its cooldown elapses it is attempted again, as the
//     half-open probe); an attempted member that is outaged charges one
//     Seek of fast-fail (the router abandons a dead shard at the first
//     error and re-issues) and 3 points of health evidence; the first
//     live member serves, at its brownout multiplier, which also feeds
//     the ledger (factor-1 points — a 4x brownout is as alarming as a
//     timed-out read);
//   - pass 2 runs only when pass 1 found nothing: the ledger's advice is
//     advice, not truth, and a client read must not fail on a stale trip
//     — so the skipped members are attempted after all, same charging. A
//     merely sick (tripped, browned) shard therefore NEVER loses data;
//   - only a chain whose every member is genuinely outaged loses the
//     sub-batch, and the requesting client waits out its read deadline
//     (pagestore.ReadTimeout — the fast-fail probes happened inside that
//     deadline, so it replaces them rather than stacking on top). Under
//     the single-victim outage model this cannot happen for R >= 2.
func (h *haState) routeDemand(j int, now time.Duration) haRoute {
	r := haRoute{target: -1, k: -1, factor: 1, hedge: -1, hedgeFactor: 1}
	shards := h.part.Shards()
	attempt := func(k int) bool {
		c := h.part.ReplicaShard(j, k)
		if h.inj.ShardOutage(c, shards, now) {
			h.evidence[c] += 3
			h.stats.OutageProbes++
			r.pre += h.cost.Seek
			return false
		}
		r.target, r.k = c, k
		r.factor = h.inj.ShardBrownout(c, now)
		if r.factor > 1 {
			h.evidence[c] += r.factor - 1
		}
		return true
	}
	var probed uint64
	for k := 0; k < h.part.Replicas(); k++ {
		if !h.health[h.part.ReplicaShard(j, k)].allowPrefetch(now) {
			continue
		}
		probed |= 1 << uint(k)
		if attempt(k) {
			return r
		}
	}
	for k := 0; k < h.part.Replicas(); k++ {
		if probed&(1<<uint(k)) != 0 {
			continue
		}
		if attempt(k) {
			return r
		}
	}
	r.pre = readDeadline
	return r
}

// serveMisses is the demand read's storage half, run after the lookup
// pass left every home shard's misses in its shard.miss, in ascending
// physical order (DESIGN.md §14). For each missing home, in shard order, the
// coordinator walks its replica chain (routeDemand) at virtual time now,
// reads the miss sub-batch on the serving shard — one elevator sweep as it
// stands, or page by page on a per-page fleet; a browned shard's read billed
// at its multiplier, replica-slice reads surcharged per page — and settles
// the outcome into the HA ledger. demand[j].io receives home j's storage
// service time (discovery charge included) and demand[j].miss the pages
// actually served. A home whose whole chain is down loses its misses: it
// serves none, its service time is the discovery charge (the client waits
// out its read deadline and is answered degraded), and the pages are counted
// lost, never silently zero-costed; routes[j].target < 0 marks it for the
// caller.
//
// With every chain healthy each home serves itself, so a one-member chain
// issues exactly one read per missing shard and charges nothing else. Each
// disk sees its reads in home order, whichever homes it serves.
func (f *fleet) serveMisses(now time.Duration) {
	h := f.ha
	for j, home := range f.shards {
		r := haRoute{target: j, factor: 1, hedge: -1, hedgeFactor: 1}
		miss := home.miss
		if len(miss) > 0 && !h.plain {
			r = h.routeDemand(j, now)
		}
		h.routes[j] = r
		o := &f.demand[j]
		if len(miss) == 0 {
			continue
		}
		if r.target < 0 {
			o.io = r.pre
			continue
		}
		o.miss = len(miss)

		sh := f.shards[r.target]
		var base time.Duration
		if f.perPage {
			base = sh.disk.ReadPages(miss)
		} else {
			base = sh.disk.ReadSorted(miss)
		}
		var extra time.Duration
		if r.factor > 1 {
			extra = time.Duration(float64(base) * (r.factor - 1))
		}
		var repPages int64
		if r.target != j {
			repPages = int64(len(miss))
			h.stats.FailedOverPages += repPages
		}
		o.io = r.pre + base + extra + sh.disk.ChargeHA(extra, repPages)
	}
}

// foldRetries ends a turn: each shard disk's injected read retries since
// the last turn fold into its health evidence, then every ledger ticks
// (observe). A plain fleet has no routing decision for the evidence to
// inform, so fleet.tick leaves its ledgers untouched and HAStats stays zero.
func (h *haState) foldRetries(shards []*shard, now time.Duration) {
	for i := range h.retries {
		retries := shards[i].disk.Stats().FaultRetries
		h.evidence[i] += float64(retries - h.retries[i])
		h.retries[i] = retries
	}
	h.observe(now)
}

// routeQuiet mirrors routeDemand for background work, walking home j's
// chain from position from on: no probe charges, no health evidence, no
// half-open arming — the prefetch flush reuses the demand turn's discoveries
// at the same virtual time — and the first member that is neither tripped
// nor outaged serves, at its brownout factor. From 0 it routes a window
// part; from the routed position + 1 it picks the hedge's alternate. A chain
// with no such member returns target -1: the part is simply skipped
// (background reads have no waiting client).
func (h *haState) routeQuiet(j, from int, now time.Duration) haRoute {
	r := haRoute{target: -1, k: -1, factor: 1, hedge: -1, hedgeFactor: 1}
	shards := h.part.Shards()
	for k := from; k < h.part.Replicas(); k++ {
		c := h.part.ReplicaShard(j, k)
		if !h.health[c].allows(now) || h.inj.ShardOutage(c, shards, now) {
			continue
		}
		r.target, r.k = c, k
		r.factor = h.inj.ShardBrownout(c, now)
		return r
	}
	return r
}

// observe ticks every shard's health ledger with the evidence the current
// turn accumulated (outage probes, brownout service, injected read
// retries), then clears it. Shards with zero evidence decay; a clean
// half-open probe closes its ledger and home routing resumes.
func (h *haState) observe(now time.Duration) {
	for i := range h.health {
		before := h.health[i].trips
		h.health[i].observe(now, h.evidence[i])
		h.stats.FailoverTrips += h.health[i].trips - before
		h.evidence[i] = 0
	}
}

// sweepEstimate prices a physically sorted batch as a cold elevator sweep —
// the pure cost estimate hedging thresholds on, taken before any shard
// sweeps. It deliberately ignores the serving disk's current head (a
// coordinator deciding before it issues the window would not know it);
// hedging is a threshold heuristic, not an exact prediction.
func (h *haState) sweepEstimate(store *pagestore.Store, sorted []pagestore.PageID) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	seeks, bridged, _ := h.cost.SweepCost(store, sorted, pagestore.InvalidPage)
	return time.Duration(seeks)*h.cost.Seek +
		time.Duration(int64(len(sorted))+bridged)*h.cost.Transfer
}

// allows reports allowPrefetch's decision without arming the half-open
// probe — a read-only peek for the failover router's background paths
// (hedge picks, prefetch routing), which must not consume the probe that
// demand routing owns.
func (b *breaker) allows(now time.Duration) bool {
	if !b.cfg.Enabled || !b.open {
		return true
	}
	return b.probing || now >= b.openedAt+b.cfg.Cooldown
}
