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
	"container/heap"
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
	// Engine supplies cache sizing and the cost model,
	// exactly as for a single-session engine.
	Engine Config
	// Policy selects how the arbiter splits prefetch budgets between
	// contending sessions.
	Policy Policy
	// PrivateCaches gives every session its own full-size LRU instead of one
	// striped cache the sessions share: the "N independent
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
	// Faults injects deterministic faults into the commit phase: transient
	// read errors and slow pages on the shard disks, stalled cache shards,
	// starved arbiter windows and, with Shards > 0, shard outages and
	// brownouts (see internal/fault). Nil — or an injector whose Plan is
	// disabled — keeps the serve byte-identical to the fault-free seed. It
	// replaces Engine.Faults, which a serve never reads.
	Faults *fault.Injector
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
	// violations. 0 disables SLO accounting.
	SLO time.Duration
	// Arrivals configures the open-loop session generator (DESIGN.md §11):
	// seeded Poisson or bursty arrival times, so offered load sweeps
	// independently of session count. The zero value keeps the closed-loop
	// seed behavior byte-exactly: every session present at time zero.
	Arrivals ArrivalConfig
	// Classes defines the workload classes sessions bind to via
	// SessionWorkload.Class: per-class prefetch-budget priorities in the
	// arbiter and per-class abandonment patience under open-loop arrivals.
	// Nil means one neutral class (the seed behavior).
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
	// PrivateCaches and never arms the shard-fault domains (there is no
	// fleet to fault); >= 1 always reads through the batched elevator path,
	// rejects PrivateCaches, and arms whatever shard faults the injector
	// plans.
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

// AdmissionConfig parameterizes Serve's admission control. Under fault
// pressure every marginal session adds seek interference for everyone; the
// ceiling caps how many in-flight sessions a newcomer may join.
type AdmissionConfig struct {
	// Enabled turns admission control on. Off (the zero value) admits
	// everything, exactly like the seed.
	Enabled bool
	// MaxConcurrent is the in-flight session ceiling: a session whose
	// first commit step sees this many contenders (sessions with disk I/O
	// still in flight) is not admitted normally (DefaultAdmissionConfig: 8).
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

// SessionResult is one session's outcome.
type SessionResult struct {
	// Sequences holds one SequenceResult per sequence, identical in shape
	// to Engine.RunSequence's output.
	Sequences []SequenceResult
	// Responses lists the counted queries' response times (residual I/O)
	// in execution order — the raw samples behind p50/p95.
	Responses []time.Duration
	// Completed is the virtual time the session's last response was
	// delivered.
	Completed time.Duration
	// Rejected marks a session admission turned away at its first commit
	// step: it executed no queries. Degraded marks one admitted with
	// prefetch permanently shed.
	Rejected bool
	Degraded bool
	// Abandoned marks a session that gave up mid-trajectory after a
	// response exceeded its class patience; LostQueries counts the
	// counted-query slots it (or a rejection) forfeited — open-loop
	// accounting only.
	Abandoned   bool
	LostQueries int64
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
	// Cache folds the counters of the fleet's caches: the shared caches,
	// or with PrivateCaches the per-session ones.
	Cache cache.Stats
	// Disk aggregates all sessions' I/O.
	Disk pagestore.DiskStats
	// Interference is the total seek-interference penalty time charged.
	Interference time.Duration
	// Makespan is the latest response delivery across sessions.
	Makespan time.Duration
	// Queries counts every executed query (including each sequence's
	// uncounted first query).
	Queries int64
	// Robustness ledger (all zero on a fault-free run with breaker and
	// admission off — the seed configuration).
	//
	// BreakerTrips / ShedPrefetches aggregate the per-session breaker
	// activity.
	BreakerTrips   int64
	ShedPrefetches int64
	// RejectedSessions / DegradedSessions count admission outcomes.
	RejectedSessions int
	DegradedSessions int
	// SLOViolations counts counted queries whose response exceeded
	// ServeConfig.SLO (0 when no SLO was set).
	SLOViolations int64
	// Open-loop churn ledger (all zero with the generator disabled — the
	// closed-loop seed accounting). AbandonedSessions counts sessions that
	// gave up after a response exceeded their class patience; LostQueries
	// the counted-query slots forfeited by rejections and abandonments,
	// which SLORate charges as violations.
	AbandonedSessions int
	LostQueries       int64
	// RoutedPages counts demand miss pages shipped from non-home shards
	// (zero on a one-range fleet).
	RoutedPages int64
	// HA is the fleet's high-availability ledger (failovers, probes,
	// hedges, trips); zero unless replication or shard faults were
	// configured.
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
	queryIdx int
	last     bool // last query of its sequence: no prefetch window I/O
	pages    []pagestore.PageID
	// order is the demand set's physical order (physicalOrder; empty when
	// pages already are in it) — the one order the commit routes the set by,
	// reads its misses in and cold is priced over. Like cold and batch, it is
	// bound to the layout installed at plan time.
	order            []int32
	cold             time.Duration
	window           time.Duration
	graphBuild       time.Duration
	prediction       time.Duration
	graphDelta       bool
	predictionHidden bool
	// ladder is the per-page flush's prediction set, resolved at plan time
	// into one page list: the plan's gap-traversal pages, then each
	// request's pages in ascending (index) order. batch is the batched
	// flush's view of the same set, one elevator batch; like cold, bound to
	// the layout installed at plan time.
	ladder []pagestore.PageID
	batch  []pagestore.PageID
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
	return max(int(cfg.CacheFraction*float64(store.NumPages())), 1)
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
	cost  pagestore.CostModel
	// layout names the store layout the steps were ordered, priced and
	// elevator-sorted under (step.order, step.cold, step.batch); Serve
	// refuses any other.
	layout string
	steps  [][]step
	// classes carries each session's workload-class index into the commit
	// phase (class binding is part of the workload, not the config, so one
	// plan set commits under many class configurations).
	classes []int
}

// PlanSessions runs the plan phase only: each session's prefetcher runs
// over its own trajectory, fanned across workers goroutines (0 =
// GOMAXPROCS). Deterministic for any worker count.
func PlanSessions(store *pagestore.Store, index Index, workloads []SessionWorkload, cost pagestore.CostModel, workers int) *SessionPlans {
	n := len(workloads)
	plans := &SessionPlans{store: store, cost: cost, layout: store.LayoutName(), steps: make([][]step, n), classes: make([]int, n)}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	var wg sync.WaitGroup
	sem := make(chan struct{}, workers)
	for i := range workloads {
		plans.classes[i] = workloads[i].Class
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

// Serve is the commit phase: the deterministic virtual-time event loop over
// the planned sessions (DESIGN.md §14). Each event is one session's next
// step: next takes it off the (virtual time, session ID) queue, admit gates
// a session's first step, turn commits it. The plan's cost model overrides
// cfg.Engine.Cost — plans priced under one model must not be committed under
// another — nor under another layout: a Store.Relayout between PlanSessions
// and Serve would price the plan's cold costs and elevator batches with the
// wrong adjacency, so Serve panics instead.
func (p *SessionPlans) Serve(cfg ServeConfig) ServeResult {
	if cur := p.store.LayoutName(); cur != p.layout {
		panic(fmt.Sprintf("engine: SessionPlans planned under layout %q, committed under layout %q: re-run PlanSessions after Store.Relayout", p.layout, cur))
	}
	if len(p.steps) == 0 {
		return ServeResult{}
	}
	c := p.newCommit(cfg)
	for c.q.Len() > 0 {
		s, t := c.next()
		if c.admit(s) {
			c.turn(s, t)
		}
	}
	return c.finish()
}

// queue orders the sessions with steps left by (virtual clock, session ID);
// its root is the next event.
type queue struct {
	ids []int
	now []time.Duration // each session's clock, indexed by session ID
}

func (q *queue) Len() int      { return len(q.ids) }
func (q *queue) Swap(i, j int) { q.ids[i], q.ids[j] = q.ids[j], q.ids[i] }
func (q *queue) Push(x any)    { q.ids = append(q.ids, x.(int)) }

func (q *queue) Less(i, j int) bool {
	a, b := q.ids[i], q.ids[j]
	return q.now[a] < q.now[b] || q.now[a] == q.now[b] && a < b
}

// Pop drops the last element. The loop only pops the root it has just
// served, so the value is never read, and none is boxed.
func (q *queue) Pop() any {
	q.ids = q.ids[:len(q.ids)-1]
	return nil
}

// session is one session's commit state. patience is its class patience
// under open-loop arrivals (0: it never abandons).
type session struct {
	stepIdx  int
	patience time.Duration
	brk      breaker
	cur      SequenceResult // the sequence in progress
	out      SessionResult
}

// commit is one run of the commit phase: the fleet, every session's state,
// the event queue, and the ServeResult counters that exist only per turn.
// Every per-session total is folded from the sessions in finish.
type commit struct {
	cfg   ServeConfig // with Engine.Cost set to the plans' cost model
	plans [][]step
	f     *fleet
	inj   *fault.Injector // nil unless the config's injector is live
	sess  []session
	q     queue
	// busy is when each session's disk I/O in flight ends; cont is the
	// current event's contenders, the other sessions still busy at its time.
	busy []time.Duration
	cont []int
	res  ServeResult
}

// newCommit builds the commit state: the fleet; each session's breaker,
// arbiter priority and patience, resolved once from its class; and the
// queue of sessions with steps, each at its arrival time.
func (p *SessionPlans) newCommit(cfg ServeConfig) *commit {
	if cfg.Shards > 0 && cfg.PrivateCaches {
		panic("engine: ServeConfig{Shards > 0, PrivateCaches: true}: per-session private caches cannot split across shards")
	}
	n := len(p.steps)
	cfg.Engine.Cost = p.cost
	c := &commit{cfg: cfg, plans: p.steps, sess: make([]session, n), q: queue{now: make([]time.Duration, n)},
		busy: make([]time.Duration, n)}
	// The fleet is a single-session engine's plus the serving half: the
	// serving config's injector (only when live, so a nil or disabled one
	// never enters a fault branch) and replication degree replace the
	// engine config's, and background windows never hedge.
	// Breaker and admission are independent of injection: they react to
	// evidence, wherever it comes from.
	ec := cfg.Engine
	ec.Faults, ec.Replicas, ec.Hedge = nil, cfg.Replicas, 0
	if inj := cfg.Faults; inj != nil && inj.Plan().Enabled() {
		ec.Faults, c.inj = inj, inj
	}
	c.f = newFleet(p.store, ec, cfg.Shards, &serving{
		sessions:     n,
		policy:       cfg.Policy,
		interference: cfg.InterferenceSeek,
		private:      cfg.PrivateCaches,
		cacheShards:  cfg.CacheShards,
	})
	// Open-loop arrivals: each session's clock starts at its generated
	// arrival time, so the queue interleaves arrivals, departures and
	// in-flight sessions in true virtual-time order — admission sees the
	// contender set at arrival, not at a synthetic time zero. Disabled, all
	// arrivals are zero and the loop is the closed-loop seed bit-for-bit.
	open := cfg.Arrivals.Enabled
	var arrivals []time.Duration
	if open {
		arrivals = cfg.Arrivals.ArrivalTimes(n)
	}
	for i := range c.sess {
		ss := &c.sess[i]
		ss.brk.cfg = cfg.Breaker
		// Class priorities reach the arbiter before any grant; with no
		// classes (or all-neutral weights) the arbiter arithmetic stays
		// bit-exact. An out-of-range class is the neutral default.
		if k := p.classes[i]; k >= 0 && k < len(cfg.Classes) {
			cs := cfg.Classes[k]
			c.f.setPriority(i, cs.weight())
			if open {
				ss.patience = cs.Patience
			}
		}
		if open {
			c.q.now[i] = arrivals[i]
		}
		if len(p.steps[i]) > 0 {
			c.q.ids = append(c.q.ids, i)
		}
	}
	heap.Init(&c.q)
	return c
}

// next returns the queue's root and collects its contenders: the other
// sessions whose disk I/O is still in flight at its virtual time. That is a
// pass over a dense slice, not an in-flight set: at any event a large share
// of the sessions is in flight, and the arbiter walks them in ID order
// (DESIGN.md §14).
func (c *commit) next() (s int, t time.Duration) {
	s = c.q.ids[0]
	t = c.q.now[s]
	cont := c.cont[:0]
	for j, until := range c.busy {
		if j != s && until > t {
			cont = append(cont, j)
		}
	}
	c.cont = cont
	return s, t
}

// admit gates a session's first commit step, where it "arrives": under
// open-loop arrivals that is its generated arrival time, so the gate sees the
// true in-flight set. At or over the ceiling the session is admitted with
// prefetch permanently shed (Degrade) or rejected, forfeiting its whole
// trajectory. admit reports whether the step is committed.
func (c *commit) admit(s int) bool {
	ss, adm := &c.sess[s], c.cfg.Admission
	if !adm.Enabled || ss.stepIdx > 0 || len(c.cont) < adm.MaxConcurrent {
		return true
	}
	if adm.Degrade {
		ss.out.Degraded = true
		c.f.setShedding(s, true)
		return true
	}
	ss.out.Rejected = true
	c.forfeit(s)
	return false
}

// forfeit removes session s, the queue's root, with the rest of its
// trajectory: a rejection or an abandonment. Under open-loop arrivals each
// unserved step that would have been counted is charged to LostQueries, so
// the SLO and goodput story keeps its denominator; a closed-loop rejection
// keeps the seed's skip-silently accounting.
func (c *commit) forfeit(s int) {
	ss := &c.sess[s]
	for _, st := range c.plans[s][ss.stepIdx:] {
		if c.cfg.Arrivals.Enabled && Counted(st.queryIdx) {
			ss.out.LostQueries++
		}
	}
	heap.Pop(&c.q)
}

// turn commits session s's next step at virtual time t, in stage order:
// bind, demand, tick, window, record, scrub, fault evidence, account,
// advance.
func (c *commit) turn(s int, t time.Duration) {
	f, ss := c.f, &c.sess[s]
	st := &c.plans[s][ss.stepIdx]
	// The turn's reads are charged to session s's head, against the current
	// contenders, with faults rolled at the turn's commit time.
	f.bind(s, len(c.cont), t)
	if st.queryIdx == 0 && c.cfg.PrivateCaches {
		// Sequence start: private caches clear like RunSequence; the shared
		// cache persists — serving is continuous, one session finishing a
		// sequence must not flush everyone's working set.
		f.reset()
	}

	// The demand phase (fleet.demandTurn), then the health tick: outage
	// probes, brownout service and injected read retries fold into the
	// per-shard ledgers at the end of the demand phase, so a shard that stays
	// sick trips once and is then skipped for free until its cooldown probe
	// (the window's own retries fold in next turn).
	dm := f.demandTurn(st.pages, st.order, t)
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
	c.res.RoutedPages += int64(dm.routed)

	var grant time.Duration
	tr.Prefetched, tr.PrefetchIO, grant = c.window(s, st, t)
	f.record(s)

	// Background scrub, paced from the idle remainder of the session's
	// GRANTED window: arbiter-aware (only the session's own share is spent)
	// and shedding-aware (a shed, starved or degraded window has grant 0 and
	// scrubs nothing). The cost is charged to the scrub ledger only: it
	// occupies window time the session was idle for anyway, so it never
	// extends busy and never shows up as seek interference to contenders.
	// The scrub cursor lives in the one FileStore, so one disk owns its
	// ledger: shard 0's, whose grant paces it.
	f.shards[0].disk.ScrubIdle(grant-tr.PrefetchIO, c.cfg.Engine.ScrubPages)

	// Per-query fault evidence: what the disk ledgers gained over this turn
	// (nothing reads a disk between turns) plus stalled-shard hits and
	// detected corruption feed the session's breaker.
	ev := f.faultEvidence()
	if c.cfg.Breaker.Enabled && !ss.out.Degraded {
		ss.brk.observe(t+tr.Residual,
			faultScore(ev.retries, ev.timeouts, dm.stallEvents)+corruptionScore(ev.corrupt, ev.repaired))
	}

	if ss.cur.account(tr) {
		ss.out.Responses = append(ss.out.Responses, tr.Residual)
		if c.cfg.SLO > 0 && tr.Residual > c.cfg.SLO {
			ss.out.SLOViolations++
		}
	}
	c.res.Queries++
	c.advance(s, st, tr, t)
}

// window spends the step's prefetch window — its window less any unhidden
// prediction time; a sequence's last query has none — unless it is shed (the
// session is degraded or its breaker open: the budget share returns to the
// arbiter pool) or the injector starves this arbiter window for everyone. It
// returns the pages prefetched, the I/O time and shard 0's grant (0 unless
// the window was spent).
func (c *commit) window(s int, st *step, t time.Duration) (int, time.Duration, time.Duration) {
	budget := st.window
	if !st.predictionHidden {
		budget -= st.prediction
	}
	if st.last || budget <= 0 {
		return 0, 0, 0
	}
	ss := &c.sess[s]
	shed := ss.out.Degraded
	if !shed && c.cfg.Breaker.Enabled {
		shed = !ss.brk.allowPrefetch(t)
		c.f.setShedding(s, shed)
	}
	switch {
	case shed:
		ss.out.ShedPrefetches++
	case c.inj != nil && c.inj.BudgetStarved(t):
		// The injector starved this arbiter window: nothing is spent.
	default:
		// Batched, the window is one elevator batch per session turn — which
		// also shrinks the span in which other sessions' in-flight I/O counts
		// as seek interference.
		return c.f.prefetchTurn(s, c.cont, st.batch, ladder{pages: st.ladder}, budget, t)
	}
	return 0, 0, 0
}

// advance moves session s past the step committed at t: the response is
// delivered at t + Residual, the disk stays busy through the prefetch I/O,
// and the next query issues when the window (user think time) closes. Under
// open-loop arrivals a response past the class patience makes the session
// abandon, flushing its partial sequence. A session with no steps left
// leaves the queue.
func (c *commit) advance(s int, st *step, tr QueryTrace, t time.Duration) {
	ss := &c.sess[s]
	ss.out.Completed = t + tr.Residual
	c.busy[s] = t + tr.Residual + tr.PrefetchIO
	ss.stepIdx++
	abandon := !st.last && ss.patience > 0 && tr.Residual > ss.patience
	if st.last || abandon {
		ss.out.Sequences = append(ss.out.Sequences, ss.cur)
		ss.cur = SequenceResult{}
	}
	switch {
	case abandon:
		ss.out.Abandoned = true
		c.forfeit(s)
	case ss.stepIdx == len(c.plans[s]):
		heap.Pop(&c.q)
	default:
		c.q.now[s] = t + tr.Residual + st.window
		heap.Fix(&c.q, 0)
	}
}

// finish folds the commit into its result: per session its breaker trips;
// the per-session totals, once; the fleet's cache, disk, interference and
// HA ledgers.
func (c *commit) finish() ServeResult {
	res, f := c.res, c.f
	res.Sessions = make([]SessionResult, len(c.sess))
	for i := range c.sess {
		s := &res.Sessions[i]
		*s = c.sess[i].out
		s.BreakerTrips = c.sess[i].brk.trips
		res.Makespan = max(res.Makespan, s.Completed)
		res.ShedPrefetches += s.ShedPrefetches
		res.BreakerTrips += s.BreakerTrips
		if s.Degraded {
			res.DegradedSessions++
		}
		if s.Rejected {
			res.RejectedSessions++
		}
		if s.Abandoned {
			res.AbandonedSessions++
		}
		res.SLOViolations += s.SLOViolations
		res.LostQueries += s.LostQueries
	}
	res.Cache = f.cacheStats()
	res.Disk = f.diskStats()
	for _, sh := range f.shards {
		res.Interference += sh.disk.Interference()
	}
	res.HA = f.ha.stats
	return res
}

// planSession runs one session's prefetcher over its whole trajectory and
// precomputes every step. Pure with respect to shared serving state.
func planSession(store *pagestore.Store, index Index, w SessionWorkload, cost pagestore.CostModel) []step {
	var steps []step
	var batchBuf []pagestore.PageID
	var keys []uint64
	p := w.Prefetcher
	for _, seq := range w.Sequences {
		p.Reset()
		ratio := seq.Params.WindowRatio
		resultLen := 0
		for qi, q := range seq.Queries {
			fq := filtered{keys: keys}
			filter(store, index, q.Region, &fq, resultLen)
			keys = fq.keys
			cold := coldSweep(store, cost, fq.pages, fq.order, 0, len(fq.pages))
			resultLen = len(fq.result)
			plan := observeQuery(p, qi, q, fq.result, fq.pages)
			batchBuf = append(batchBuf[:0], plan.TraversalPages...)
			for i := range plan.Requests {
				batchBuf = index.QueryPages(&plan.Requests[i], batchBuf)
			}
			st := step{
				queryIdx:         qi,
				last:             qi == len(seq.Queries)-1,
				pages:            fq.pages,
				order:            fq.order,
				cold:             cold,
				window:           time.Duration(ratio * float64(cold)),
				graphBuild:       plan.GraphBuild,
				prediction:       plan.Prediction,
				graphDelta:       plan.GraphDelta,
				predictionHidden: plan.PredictionHidden,
				ladder:           append([]pagestore.PageID(nil), batchBuf...),
			}
			st.batch = append([]pagestore.PageID(nil), elevatorBatch(store, batchBuf)...)
			steps = append(steps, st)
		}
	}
	return steps
}
