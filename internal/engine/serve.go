// Multi-session serving: N concurrent navigation sessions — each with its
// own prefetcher clone and virtual clock — share one shard fleet (fleet.go):
// by default a fleet of one, i.e. one page cache and one disk. Execution is
// split into two phases so the output is byte-identical for any worker
// count:
//
//  1. a parallel PLAN phase: each session independently runs its
//     prefetcher over its own query trajectory (observations and plans
//     depend only on the immutable store and index, never on cache state)
//     and resolves every planned region to sorted page lists;
//  2. a sequential COMMIT phase: a discrete-event loop replays the
//     sessions' queries against the fleet — per shard a cache, a
//     pagestore.Disk with one head per session plus a seek-interference
//     penalty per contender, and a prefetch-budget arbiter — in
//     virtual-time order with session ID as the deterministic tie-break.
//
// The split is exact, not an approximation: a prefetcher's Observation
// carries the query's result objects, which are a pure function of the
// query region, so the planning trajectory is independent of what the
// cache happened to hold. Only serving costs (hits, residual I/O, window
// prefetching) depend on shared state, and those all commit in phase 2.
package engine

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"time"

	"scout/internal/cache"
	"scout/internal/fault"
	"scout/internal/pagestore"
	"scout/internal/prefetch"
	"scout/internal/workload"
)

// SessionWorkload binds one session's query sequences to its prefetcher.
// Each session must get its own prefetcher instance (clones are fine); the
// serving layer Resets it at every sequence start, exactly like
// Engine.RunSequence.
type SessionWorkload struct {
	Sequences  []workload.Sequence
	Prefetcher prefetch.Prefetcher
	// Class is the session's workload-class index into ServeConfig.Classes
	// (out of range — including the zero value with no classes configured —
	// means the neutral default class).
	Class int
}

// ServeConfig parameterizes a multi-session run.
type ServeConfig struct {
	// Engine supplies cache sizing, the cost model and SkipFirstQuery,
	// exactly as for a single-session engine.
	Engine Config
	// Policy selects how the arbiter splits prefetch budgets between
	// contending sessions.
	Policy Policy
	// PrivateCaches gives every session its own full-size single-threaded
	// cache instead of one shared lock-striped cache: the "N independent
	// replicas" baseline, and the mode in which (with Unarbitrated policy
	// and no interference) the commit loop drives the fleet exactly as N
	// isolated RunSequence calls would. Shards 0 only: a private cache
	// cannot split across shards.
	PrivateCaches bool
	// CacheShards is the shared cache's shard count (rounded up to a power
	// of two; 0 = 16). Ignored with PrivateCaches.
	CacheShards int
	// InterferenceSeek is the extra seek latency charged per contending
	// session on every seek: queueing and head-stealing on the shared
	// disk. 0 disables cross-session disk interference.
	InterferenceSeek time.Duration
	// Workers bounds the plan phase's parallelism (0 = GOMAXPROCS).
	// Results are byte-identical for any value.
	Workers int
	// Faults injects deterministic faults into the commit phase: transient
	// read errors and slow pages on the shard disks, stalled cache shards,
	// starved arbiter windows and, with Shards > 0, shard outages and
	// brownouts (see internal/fault). Nil — or an injector whose Plan is
	// disabled — keeps the serve byte-identical to the fault-free seed. It
	// replaces Engine.Faults, which a serve never reads.
	Faults *fault.Injector
	// Retry bounds recovery from injected transient read faults; zero
	// fields take pagestore.DefaultRetryPolicy when faults are armed.
	Retry pagestore.RetryPolicy
	// Breaker configures the per-session circuit breaker that sheds
	// PREFETCH windows (never demand reads) when a session's fault
	// evidence EWMA trips. The zero value disables it.
	Breaker BreakerConfig
	// Admission gates new sessions at arrival — their first commit step,
	// which under open-loop arrivals happens at the generated arrival time:
	// over the concurrency ceiling they are rejected outright or admitted
	// degraded (prefetch permanently shed). The zero value disables it.
	// With the open-loop generator enabled, a rejected session's counted
	// queries are charged to LostQueries (they enter the SLO-rate
	// denominator as violations); closed-loop rejection keeps the seed's
	// skip-silently accounting byte-exactly.
	Admission AdmissionConfig
	// SLO is the per-query response-time objective: counted queries whose
	// response (residual I/O plus injected stalls) exceeds it are SLO
	// violations. 0 disables SLO accounting. A session's class can
	// override it (ClassSpec.SLO).
	SLO time.Duration
	// Arrivals configures the open-loop session generator (DESIGN.md §11):
	// seeded Poisson or bursty arrival times, so offered load sweeps
	// independently of session count. The zero value keeps the closed-loop
	// seed behavior byte-exactly: every session present at time zero.
	Arrivals ArrivalConfig
	// Classes defines the workload classes sessions bind to via
	// SessionWorkload.Class: per-class prefetch-budget priorities in the
	// arbiter, per-class SLOs, and per-class abandonment patience under
	// open-loop arrivals. Nil means one neutral class (the seed behavior).
	Classes []ClassSpec
	// Shards is the fleet's shard count (DESIGN.md §12, §14): the page space
	// splits into that many contiguous Hilbert ranges of the layout key,
	// each a shard with its own slice of the cache, its own per-session
	// disk heads and its own prefetch-budget arbiter; demand reads and
	// prefetch windows split by shard, are priced shard by shard on the
	// commit loop, and merge as max-over-shards service time plus a
	// per-page routing charge (CostModel.Route) for pages shipped from
	// non-home shards. 0 and 1 both build the one-range fleet and differ
	// only in how it is configured: 0 honours Engine.BatchedIO and
	// PrivateCaches, never arms the shard-fault domains (there is no fleet
	// to fault) and reports Shards 0 with no ShardDisks; >= 1 always reads
	// through the batched elevator path, rejects PrivateCaches, and arms
	// whatever shard faults the injector plans.
	Shards int
	// Replicas is the fleet's chained range-replication degree (DESIGN.md
	// §13): with R > 1 each shard's range is also readable from
	// the next R-1 shards and demand misses fail over along the chain when
	// their home is outaged or its health ledger has tripped, at
	// CostModel.ReplicaRead per replica-served page. 0 or 1 is a one-member
	// chain: every home serves itself and no read pays the surcharge. The
	// serve path's background prefetch never hedges (demand failover is what
	// protects waiting clients — duplicating background windows under
	// multi-session contention only burns shared device time). Requires
	// Shards > 0.
	Replicas int
}

// classSpec resolves a session's class (normalized weight), reporting
// whether one is configured.
func (c ServeConfig) classSpec(idx int) (ClassSpec, bool) {
	if idx < 0 || idx >= len(c.Classes) {
		return ClassSpec{}, false
	}
	return c.Classes[idx], true
}

// AdmissionConfig parameterizes Serve's admission control. Under fault
// pressure every marginal session adds seek interference for everyone; the
// ceiling caps how many in-flight sessions a newcomer may join.
type AdmissionConfig struct {
	// Enabled turns admission control on. Off (the zero value) admits
	// everything, exactly like the seed.
	Enabled bool
	// MaxConcurrent is the in-flight session ceiling: a session whose
	// first commit step sees this many contenders (sessions with disk I/O
	// still in flight) is not admitted normally (default 8).
	MaxConcurrent int
	// Degrade admits over-ceiling sessions with prefetch permanently shed
	// instead of rejecting them: they still answer queries (demand reads
	// only) but never compete for prefetch budget.
	Degrade bool
}

// DefaultAdmissionConfig returns the enabled gate at its documented
// defaults (reject, ceiling 8).
func DefaultAdmissionConfig() AdmissionConfig {
	return AdmissionConfig{Enabled: true, MaxConcurrent: 8}
}

// withDefaults fills zero tuning fields of an enabled config.
func (c AdmissionConfig) withDefaults() AdmissionConfig {
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = DefaultAdmissionConfig().MaxConcurrent
	}
	return c
}

// SessionResult is one session's outcome.
type SessionResult struct {
	Session int
	// Sequences holds one SequenceResult per sequence, identical in shape
	// to Engine.RunSequence's output.
	Sequences []SequenceResult
	// Responses lists the counted queries' response times (residual I/O)
	// in execution order — the raw samples behind p50/p95.
	Responses []time.Duration
	// Completed is the virtual time the session's last response was
	// delivered.
	Completed time.Duration
	// Ledger is the arbiter's final view of the session.
	Ledger SessionLedger
	// Rejected marks a session admission turned away at its first commit
	// step: it executed no queries. Degraded marks one admitted with
	// prefetch permanently shed.
	Rejected bool
	Degraded bool
	// Class is the session's workload-class index; Arrival its open-loop
	// arrival time (0 under closed loop). Abandoned marks a session that
	// gave up mid-trajectory after a response exceeded its class patience;
	// LostQueries counts the counted-query slots it (or a rejection)
	// forfeited — open-loop accounting only.
	Class       int
	Arrival     time.Duration
	Abandoned   bool
	LostQueries int64
	// FaultRetries / TimedOutReads are the session's share of the shared
	// disk's fault recoveries; ShardStalls counts its lookups that hit a
	// stalled cache shard.
	FaultRetries  int64
	TimedOutReads int64
	ShardStalls   int64
	// CorruptPages / RepairedPages are the session's share of the durable
	// backend's detected corruption (zero without a backing store).
	CorruptPages  int64
	RepairedPages int64
	// BreakerTrips counts times the session's circuit breaker opened;
	// ShedPrefetches counts prefetch windows shed (breaker open or
	// degraded admission).
	BreakerTrips   int64
	ShedPrefetches int64
	// SLOViolations counts counted queries over ServeConfig.SLO.
	SLOViolations int64
}

// Aggregate merges the session's per-sequence results.
func (s SessionResult) Aggregate() Aggregate {
	var agg Aggregate
	for _, r := range s.Sequences {
		agg.add(r)
	}
	return agg
}

// ServeResult is the outcome of a multi-session run.
type ServeResult struct {
	Sessions []SessionResult
	// Cache folds the fleet's caches: the shared cache's epoch-stamped
	// snapshot (summed over shards, shard 0's epoch), or with PrivateCaches
	// the per-session caches' counters (no epoch, Shards 0).
	Cache cache.StatsSnapshot
	// Disk aggregates all sessions' I/O.
	Disk pagestore.DiskStats
	// InterferenceSeeks counts seeks that paid a nonzero interference
	// penalty; Interference is the total penalty time charged.
	InterferenceSeeks int64
	Interference      time.Duration
	// Makespan is the latest response delivery across sessions.
	Makespan time.Duration
	// Queries counts every executed query (including each sequence's
	// uncounted first query).
	Queries int64
	// Robustness ledger (all zero on a fault-free run with breaker and
	// admission off — the seed configuration).
	//
	// ShardStalls counts demand lookups that hit a stalled cache shard and
	// StallDelay the total latency they charged. StarvedWindows counts
	// prefetch windows lost to injected arbiter starvation. BreakerTrips /
	// ShedPrefetches aggregate the per-session breaker activity.
	ShardStalls    int64
	StallDelay     time.Duration
	StarvedWindows int64
	BreakerTrips   int64
	ShedPrefetches int64
	// RejectedSessions / DegradedSessions count admission outcomes.
	RejectedSessions int
	DegradedSessions int
	// SLOViolations counts counted queries whose response exceeded the
	// effective SLO — the session's class SLO when set, else
	// ServeConfig.SLO (0 when no SLO was set).
	SLOViolations int64
	// Open-loop churn ledger (all zero with the generator disabled — the
	// closed-loop seed accounting). AbandonedSessions counts sessions that
	// gave up after a response exceeded their class patience; LostQueries
	// the counted-query slots forfeited by rejections and abandonments,
	// which SLORate charges as violations.
	AbandonedSessions int
	LostQueries       int64
	// Classes aggregates per-class outcomes when ServeConfig.Classes is
	// set (nil otherwise).
	Classes []ClassResult
	// Fleet ledger. Shards echoes the configured shard count; ShardDisks
	// holds each shard disk's stats in shard order when it is > 0 (Disk is
	// their fold); RoutedPages counts demand miss pages shipped from
	// non-home shards and RouteCharge the total per-page routing time
	// billed into residuals (both zero on a one-range fleet).
	Shards      int
	ShardDisks  []pagestore.DiskStats
	RoutedPages int64
	RouteCharge time.Duration
	// HA is the fleet's high-availability ledger (failovers, probes, lost
	// sub-batches, brownout surcharges); zero unless replication or shard
	// faults were configured.
	HA HAStats
}

// CountedQueries returns the number of counted queries served (the pooled
// response-sample count).
func (r ServeResult) CountedQueries() int64 {
	var n int64
	for _, s := range r.Sessions {
		n += int64(len(s.Responses))
	}
	return n
}

// SLORate returns the fraction of counted queries that violated the SLO.
// Under open-loop arrivals the denominator includes lost queries (rejected
// or abandoned trajectories' counted slots) and charges each as a
// violation: a query the system refused to serve cannot count as meeting
// its objective. Closed-loop runs have LostQueries 0, so the seed's rate is
// unchanged bit-for-bit.
func (r ServeResult) SLORate() float64 {
	n := r.CountedQueries() + r.LostQueries
	if n == 0 {
		return 0
	}
	return float64(r.SLOViolations+r.LostQueries) / float64(n)
}

// AbandonRate returns the fraction of sessions that abandoned mid-run
// (always 0 under closed loop).
func (r ServeResult) AbandonRate() float64 {
	if len(r.Sessions) == 0 {
		return 0
	}
	return float64(r.AbandonedSessions) / float64(len(r.Sessions))
}

// Goodput returns SLO-meeting counted queries per simulated second — the
// robustness experiment's headline metric: rejecting a session costs its
// queries, but saving everyone else's SLO can still win.
func (r ServeResult) Goodput() float64 {
	if r.Makespan <= 0 {
		return 0
	}
	return float64(r.CountedQueries()-r.SLOViolations) / r.Makespan.Seconds()
}

// Throughput returns served queries per simulated second.
func (r ServeResult) Throughput() float64 {
	if r.Makespan <= 0 {
		return 0
	}
	return float64(r.Queries) / r.Makespan.Seconds()
}

// HitRate pools the counted hit rate across sessions.
func (r ServeResult) HitRate() float64 {
	var hit, total int64
	for _, s := range r.Sessions {
		a := s.Aggregate()
		hit += a.HitPages
		total += a.TotalPages
	}
	if total == 0 {
		return 0
	}
	return float64(hit) / float64(total)
}

// Responses pools every session's response samples (execution order within
// a session, sessions concatenated in ID order).
func (r ServeResult) Responses() []time.Duration {
	var out []time.Duration
	for _, s := range r.Sessions {
		out = append(out, s.Responses...)
	}
	return out
}

// Percentile returns the nearest-rank p-th percentile (0 < p ≤ 100) of the
// samples, or 0 when empty. The input is not modified.
func Percentile(samples []time.Duration, p float64) time.Duration {
	if len(samples) == 0 {
		return 0
	}
	sorted := make([]time.Duration, len(samples))
	copy(sorted, samples)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	rank := int(math.Ceil(float64(len(sorted))*p/100)) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return sorted[rank]
}

// step is one planned query: everything phase 1 can precompute without
// touching shared state.
type step struct {
	seqIdx, queryIdx int
	last             bool // last query of its sequence: no prefetch window I/O
	pages            []pagestore.PageID
	cold             time.Duration
	window           time.Duration
	graphBuild       time.Duration
	prediction       time.Duration
	graphDelta       bool
	predictionHidden bool
	traversal        []pagestore.PageID
	reqPages         [][]pagestore.PageID // per plan request, sorted ascending
	// batch is the batched flush's view of the same prediction set, one
	// elevator batch; like cold, bound to the layout installed at plan time.
	batch []pagestore.PageID
}

// resolveCacheShards picks a shared cache's internal shard count: the
// configured value, or a default of 16 halved until every shard holds at
// least 8 pages — tiny caches (scaled-down test datasets) would otherwise
// quantize to ~1 page per shard and destroy LRU behavior.
func resolveCacheShards(capacity, configured int) int {
	if configured > 0 {
		return configured
	}
	shards := 16
	for shards > 1 && capacity/shards < 8 {
		shards /= 2
	}
	return shards
}

// cacheCapacity sizes a fleet's prefetch cache, before it splits across
// shards.
func cacheCapacity(cfg Config, store *pagestore.Store) int {
	capacity := cfg.CachePages
	if capacity <= 0 {
		frac := cfg.CacheFraction
		if frac <= 0 {
			frac = defaultCacheFraction
		}
		capacity = int(frac * float64(store.NumPages()))
		if capacity < 1 {
			capacity = 1
		}
	}
	return capacity
}

// newResult returns the empty slice one query's result is refined into
// (pagestore.Store.AppendMatches). It is fresh for every query — observers
// may retain Observation.Result — and sized by the previous query's result
// length, which consecutive queries of a walk stay close to, so the refine
// allocates once instead of climbing an append ladder.
func newResult(prevLen int) []pagestore.ObjectID {
	return make([]pagestore.ObjectID, 0, prevLen)
}

// SessionPlans is the reusable output of the plan phase: every session's
// full prefetcher trajectory, priced and page-resolved. Plans depend only
// on the immutable store/index, the workloads and the cost model — never
// on policy, cache mode or interference — so one plan set can be committed
// under many ServeConfigs (the mu* policy ablations do exactly that
// instead of re-running SCOUT per policy). Plans are read-only during
// commit and safe to reuse.
type SessionPlans struct {
	store *pagestore.Store
	index Index
	cost  pagestore.CostModel
	// layout names the store layout the steps were priced and elevator-
	// sorted under (step.cold, step.batch); Serve refuses any other.
	layout string
	steps  [][]step
	// classes carries each session's workload-class index into the commit
	// phase (class binding is part of the workload, not the config, so one
	// plan set commits under many class configurations).
	classes []int
}

// class returns session i's workload-class index (0 out of range, which is
// also the neutral default class).
func (p *SessionPlans) class(i int) int {
	if i < 0 || i >= len(p.classes) {
		return 0
	}
	return p.classes[i]
}

// countedSteps counts the counted-query slots in a step suffix — the
// queries a rejection or abandonment forfeits from the SLO denominator.
func countedSteps(steps []step, skipFirst bool) int64 {
	var n int64
	for _, st := range steps {
		if skipFirst && st.queryIdx == 0 {
			continue
		}
		n++
	}
	return n
}

// PlanSessions runs the plan phase only: each session's prefetcher runs
// over its own trajectory, fanned across workers goroutines (0 =
// GOMAXPROCS). Deterministic for any worker count.
func PlanSessions(store *pagestore.Store, index Index, workloads []SessionWorkload, cost pagestore.CostModel, workers int) *SessionPlans {
	if cost == (pagestore.CostModel{}) {
		cost = pagestore.DefaultCostModel()
	}
	n := len(workloads)
	plans := &SessionPlans{store: store, index: index, cost: cost, layout: store.LayoutName(), steps: make([][]step, n), classes: make([]int, n)}
	for i := range workloads {
		plans.classes[i] = workloads[i].Class
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	var wg sync.WaitGroup
	sem := make(chan struct{}, workers)
	for i := range workloads {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			plans.steps[i] = planSession(store, index, workloads[i], cost)
		}(i)
	}
	wg.Wait()
	return plans
}

// Serve runs the session workloads to completion against one shard fleet —
// by default one shared cache, one shared disk and one prefetch-budget
// arbiter — and returns per-session results plus the shared-resource stats. Output is deterministic: the
// same store, workloads and config produce byte-identical results for any
// Workers value. To commit the same workloads under several configs
// without re-running the prefetchers, use PlanSessions + SessionPlans.Serve.
func Serve(store *pagestore.Store, index Index, workloads []SessionWorkload, cfg ServeConfig) ServeResult {
	return PlanSessions(store, index, workloads, cfg.Engine.Cost, cfg.Workers).Serve(cfg)
}

// Serve is the commit phase: the deterministic virtual-time event loop
// over the planned sessions. The plan's cost model overrides
// cfg.Engine.Cost — plans priced under one model must not be committed
// under another — nor under another layout: a Store.Relayout between
// PlanSessions and Serve would price the plan's cold costs and elevator
// batches with the wrong adjacency, so Serve panics instead.
func (p *SessionPlans) Serve(cfg ServeConfig) ServeResult {
	cfg.Engine.Cost = p.cost
	store := p.store
	if cur := store.LayoutName(); cur != p.layout {
		panic(fmt.Sprintf("engine: SessionPlans planned under layout %q, committed under layout %q: re-run PlanSessions after Store.Relayout", p.layout, cur))
	}
	plans := p.steps
	n := len(plans)
	if n == 0 {
		return ServeResult{}
	}

	if cfg.Shards > 0 && cfg.PrivateCaches {
		panic("engine: ServeConfig{Shards > 0, PrivateCaches: true}: per-session private caches cannot split across shards")
	}
	// Robustness machinery. faultsOn gates every injection-side branch so a
	// nil or disabled injector leaves the loop byte-identical to the seed;
	// breaker and admission are independent of injection (they react to
	// evidence, wherever it comes from).
	inj := cfg.Faults
	faultsOn := inj != nil && inj.Plan().Enabled()
	// The fleet is a single-session engine's plus the serving half: the
	// serving config's injector (only when live, so a fault-free run never
	// enters a fault branch), retry policy and replication degree replace
	// the engine config's, and background windows never hedge.
	ec := cfg.Engine
	ec.Faults, ec.Retry, ec.Replicas, ec.Hedge = nil, cfg.Retry, cfg.Replicas, 0
	if faultsOn {
		ec.Faults = inj
	}
	f := newFleet(store, ec, cfg.Shards, &serving{
		sessions:     n,
		policy:       cfg.Policy,
		interference: cfg.InterferenceSeek,
		private:      cfg.PrivateCaches,
		cacheShards:  cfg.CacheShards,
	})
	brkCfg := cfg.Breaker
	if brkCfg.Enabled {
		brkCfg = brkCfg.withDefaults()
	}
	breakers := make([]breaker, n)
	for i := range breakers {
		breakers[i].cfg = brkCfg
	}
	adm := cfg.Admission
	if adm.Enabled {
		adm = adm.withDefaults()
	}
	// Open-loop arrivals: each session's clock starts at its generated
	// arrival time, so the event loop interleaves arrivals, departures and
	// in-flight sessions in true virtual-time order — admission sees the
	// contender set at arrival, not at a synthetic time zero. Disabled, all
	// arrivals are zero and the loop is the closed-loop seed bit-for-bit.
	openLoop := cfg.Arrivals.Enabled
	var arrivals []time.Duration
	if openLoop {
		arrivals = cfg.Arrivals.ArrivalTimes(n)
	}
	// Class priorities reach the arbiter before any grant; with no classes
	// (or all-neutral weights) the arbiter arithmetic stays bit-exact.
	for i := 0; i < n; i++ {
		if cs, ok := cfg.classSpec(p.class(i)); ok {
			f.setPriority(i, cs.weight())
		}
	}

	type sessState struct {
		now       time.Duration
		busyUntil time.Duration
		stepIdx   int
		admitted  bool
		cur       SequenceResult
		out       SessionResult
	}
	states := make([]*sessState, n)
	for i := range states {
		states[i] = &sessState{out: SessionResult{Session: i, Class: p.class(i)}}
		if openLoop {
			states[i].now = arrivals[i]
			states[i].out.Arrival = arrivals[i]
		}
	}

	res := ServeResult{Shards: cfg.Shards}
	var contBuf []int
	for {
		// Next event: the unfinished session with the smallest clock,
		// lowest ID breaking ties.
		s := -1
		for i, st := range states {
			if st.stepIdx >= len(plans[i]) {
				continue
			}
			if s == -1 || st.now < states[s].now {
				s = i
			}
		}
		if s == -1 {
			break
		}
		ss := states[s]
		st := plans[s][ss.stepIdx]
		t := ss.now

		// Contenders: other sessions whose disk I/O is still in flight at
		// this virtual time.
		contBuf = contBuf[:0]
		for j, other := range states {
			if j != s && other.busyUntil > t {
				contBuf = append(contBuf, j)
			}
		}

		// Admission: a session's first commit step is where it "arrives" —
		// under open-loop arrivals that step happens at the generated
		// arrival time, so the gate sees the true in-flight set at arrival.
		// At or over the ceiling it is rejected (its whole trajectory
		// skipped — zero queries, zero disk time) or, with Degrade, admitted
		// with prefetch permanently shed. An open-loop rejection is not
		// silent: the trajectory's counted-query slots are charged to
		// LostQueries, so the SLO and goodput story keeps its denominator.
		if adm.Enabled && !ss.admitted {
			ss.admitted = true
			if len(contBuf) >= adm.MaxConcurrent {
				if adm.Degrade {
					ss.out.Degraded = true
					res.DegradedSessions++
					f.setShedding(s, true)
				} else {
					ss.out.Rejected = true
					res.RejectedSessions++
					if openLoop {
						lost := countedSteps(plans[s][ss.stepIdx:], cfg.Engine.SkipFirstQuery)
						ss.out.LostQueries += lost
						res.LostQueries += lost
					}
					ss.stepIdx = len(plans[s])
					continue
				}
			}
		}

		// The turn's reads are charged to session s's head, against the
		// current contenders, with faults rolled at the turn's commit time.
		f.bind(s, len(contBuf), t)
		if st.queryIdx == 0 && cfg.PrivateCaches {
			// Sequence start: private caches clear like RunSequence; the
			// shared cache persists — serving is continuous, one session
			// finishing a sequence must not flush everyone's working set.
			f.reset()
		}

		// The demand phase (fleet.demandTurn), then the health tick: outage
		// probes, brownout service and injected read retries fold into the
		// per-shard ledgers at the end of the demand phase, so a shard that
		// stays sick trips once and is then skipped for free until its
		// cooldown probe (the window's own retries fold in next turn).
		dm := f.demandTurn(st.pages, t)
		f.tick(t)
		tr := QueryTrace{
			Seq:         st.queryIdx,
			ResultPages: len(st.pages),
			HitPages:    dm.hits,
			Cold:        st.cold,
			Residual:    dm.residual,
			Window:      st.window,
			GraphBuild:  st.graphBuild,
			GraphDelta:  st.graphDelta,
			Prediction:  st.prediction,
			Fanout:      dm.fanout,
			RoutedPages: dm.routed,
		}
		res.RoutedPages += int64(dm.routed)
		res.RouteCharge += dm.charge
		ss.out.ShardStalls += dm.stallEvents
		res.ShardStalls += dm.stallEvents
		res.StallDelay += dm.stall

		budget := st.window
		if !st.predictionHidden {
			budget -= st.prediction
		}
		var grantTime time.Duration
		if !st.last && budget > 0 {
			// The prefetch window: shed it when the session is degraded or
			// its breaker is open (the budget share returns to the arbiter
			// pool), and lose it when the injector starves this arbiter
			// window for everyone.
			allow := true
			if ss.out.Degraded {
				allow = false
			} else if brkCfg.Enabled {
				shed := !breakers[s].allowPrefetch(t)
				allow = !shed
				f.setShedding(s, shed)
			}
			if !allow {
				ss.out.ShedPrefetches++
				res.ShedPrefetches++
			} else if faultsOn && inj.BudgetStarved(t) {
				res.StarvedWindows++
			} else {
				// Batched, the window is one elevator batch per session turn —
				// which also shrinks the span in which other sessions' in-flight
				// I/O counts as seek interference.
				tr.Prefetched, tr.PrefetchIO, grantTime = f.prefetchTurn(s, contBuf, st.batch, ladder{
					traversal: st.traversal,
					requests:  len(st.reqPages),
					reqPages:  func(i int) []pagestore.PageID { return st.reqPages[i] },
				}, budget, t)
			}
		}
		f.record(s)

		// Background scrub, paced from the idle remainder of the session's
		// GRANTED window: arbiter-aware (only the session's own share is
		// spent) and shedding-aware (a shed, starved or degraded window has
		// grantTime 0 and scrubs nothing). The cost is charged to the scrub
		// ledger only: it occupies window time the session was idle for
		// anyway, so it never extends busyUntil and never shows up as seek
		// interference to contenders. The scrub cursor lives in the one
		// FileStore, so one disk owns its ledger: shard 0's, whose grant
		// paces it.
		f.shards[0].disk.ScrubIdle(grantTime-tr.PrefetchIO, cfg.Engine.ScrubPages)

		// Per-query fault evidence: what the disk ledgers gained over this
		// turn (nothing reads a disk between turns) plus stalled-shard hits
		// and detected corruption feed the session's breaker.
		ev := f.faultEvidence()
		ss.out.FaultRetries += ev.retries
		ss.out.TimedOutReads += ev.timeouts
		ss.out.CorruptPages += ev.corrupt
		ss.out.RepairedPages += ev.repaired
		if brkCfg.Enabled && !ss.out.Degraded {
			breakers[s].observe(t+tr.Residual,
				faultScore(ev.retries, ev.timeouts, dm.stallEvents)+corruptionScore(ev.corrupt, ev.repaired))
		}

		counted := !(cfg.Engine.SkipFirstQuery && st.queryIdx == 0)
		if counted {
			ss.cur.HitPages += int64(tr.HitPages)
			ss.cur.TotalPages += int64(tr.ResultPages)
			ss.cur.Cold += tr.Cold
			ss.cur.Residual += tr.Residual
			ss.cur.GraphBuild += tr.GraphBuild
			ss.cur.Prediction += tr.Prediction
			if tr.GraphDelta {
				ss.cur.DeltaBuilds++
			}
			ss.out.Responses = append(ss.out.Responses, tr.Residual)
			slo := cfg.SLO
			if cs, ok := cfg.classSpec(ss.out.Class); ok && cs.SLO > 0 {
				slo = cs.SLO
			}
			if slo > 0 && tr.Residual > slo {
				ss.out.SLOViolations++
				res.SLOViolations++
			}
		}
		ss.cur.Queries = append(ss.cur.Queries, tr)
		res.Queries++

		ss.out.Completed = t + tr.Residual
		ss.busyUntil = t + tr.Residual + tr.PrefetchIO
		ss.now = t + tr.Residual + st.window
		ss.stepIdx++
		if st.last {
			ss.out.Sequences = append(ss.out.Sequences, ss.cur)
			ss.cur = SequenceResult{}
		} else if openLoop {
			// Patience: an open-loop session whose response blew past its
			// class patience gives up — the rest of its trajectory is
			// forfeited as lost queries and its partial sequence is flushed.
			if cs, ok := cfg.classSpec(ss.out.Class); ok && cs.Patience > 0 && tr.Residual > cs.Patience {
				lost := countedSteps(plans[s][ss.stepIdx:], cfg.Engine.SkipFirstQuery)
				ss.out.LostQueries += lost
				res.LostQueries += lost
				ss.out.Abandoned = true
				res.AbandonedSessions++
				ss.out.Sequences = append(ss.out.Sequences, ss.cur)
				ss.cur = SequenceResult{}
				ss.stepIdx = len(plans[s])
			}
		}
	}

	for i, ss := range states {
		ss.out.Ledger = f.ledger(i)
		ss.out.BreakerTrips = breakers[i].trips
		res.BreakerTrips += ss.out.BreakerTrips
		res.Sessions = append(res.Sessions, ss.out)
		if ss.out.Completed > res.Makespan {
			res.Makespan = ss.out.Completed
		}
	}
	res.Cache = f.cacheStats()
	res.Disk = f.diskStats()
	if cfg.Shards > 0 {
		res.ShardDisks = f.shardStats()
	}
	for _, sh := range f.shards {
		seeks, penalty := sh.disk.Interference()
		res.InterferenceSeeks += seeks
		res.Interference += penalty
	}
	res.HA = f.ha.stats
	if len(cfg.Classes) > 0 {
		res.Classes = make([]ClassResult, len(cfg.Classes))
		for i := range res.Classes {
			res.Classes[i].Name = cfg.Classes[i].Name
		}
		for _, s := range res.Sessions {
			if s.Class < 0 || s.Class >= len(res.Classes) {
				continue // unbound session: neutral default class, not aggregated
			}
			c := &res.Classes[s.Class]
			c.Sessions++
			if s.Rejected {
				c.Rejected++
			}
			if s.Abandoned {
				c.Abandoned++
			}
			c.Counted += int64(len(s.Responses))
			c.SLOViolations += s.SLOViolations
			c.LostQueries += s.LostQueries
		}
	}
	return res
}

// planSession runs one session's prefetcher over its whole trajectory and
// precomputes every step. Pure with respect to shared serving state.
func planSession(store *pagestore.Store, index Index, w SessionWorkload, cost pagestore.CostModel) []step {
	var steps []step
	var batchBuf []pagestore.PageID
	p := w.Prefetcher
	for si, seq := range w.Sequences {
		p.Reset()
		ratio := seq.Params.WindowRatio
		if ratio <= 0 {
			ratio = 1
		}
		resultLen := 0
		for qi, q := range seq.Queries {
			pages := index.QueryPages(q.Region, nil)
			cold := cost.ColdCostOn(store, pages)
			result := store.AppendMatches(newResult(resultLen), q.Region, pages)
			resultLen = len(result)
			p.Observe(prefetch.Observation{
				Seq:    qi,
				Region: q.Region,
				Center: q.Center,
				Result: result,
				Pages:  append([]pagestore.PageID(nil), pages...),
			})
			plan := p.Plan()
			st := step{
				seqIdx:           si,
				queryIdx:         qi,
				last:             qi == len(seq.Queries)-1,
				pages:            pages,
				cold:             cold,
				window:           time.Duration(ratio * float64(cold)),
				graphBuild:       plan.GraphBuild,
				prediction:       plan.Prediction,
				graphDelta:       plan.GraphDelta,
				predictionHidden: plan.PredictionHidden,
				traversal:        append([]pagestore.PageID(nil), plan.TraversalPages...),
			}
			batchBuf = append(batchBuf[:0], st.traversal...)
			for _, req := range plan.Requests {
				b := index.QueryPages(req.Region, nil)
				pagestore.SortPageIDs(b)
				st.reqPages = append(st.reqPages, b)
				batchBuf = append(batchBuf, b...)
			}
			st.batch = append([]pagestore.PageID(nil), elevatorBatch(store, batchBuf)...)
			steps = append(steps, st)
		}
	}
	return steps
}
