// Package engine executes guided spatial query sequences on the virtual
// clock, reproducing the resource timeline of the paper's Figure 2: the user
// issues a query, cache hits are served from the prefetch cache and misses
// from disk (residual I/O), the prefetcher computes its prediction, and the
// prefetch window — user analysis time, modeled as the paper's prefetch
// window ratio r = u/d times the query's cold retrieval time — is spent
// reading the planned pages into the cache until it closes.
//
// All times are simulated via pagestore.CostModel (see DESIGN.md §2);
// results are deterministic and machine-independent.
package engine

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"scout/internal/cache"
	"scout/internal/geom"
	"scout/internal/pagestore"
	"scout/internal/prefetch"
	"scout/internal/workload"
)

// Config parameterizes an engine run.
type Config struct {
	// CacheFraction sizes the prefetch cache as a fraction of the dataset's
	// pages. The paper grants 4 GB of cache for a 33 GB dataset (§7.1), a
	// ratio of ≈0.12.
	CacheFraction float64
	// Cost is the disk cost model.
	Cost pagestore.CostModel
	// BatchedIO routes disk reads through the batched elevator path:
	// residual misses go through Disk.ReadBatch, and the prefetch window
	// flushes each query's whole prediction set as one physically sorted
	// batch with the budget applied to runs, not pages (a half-fetched run
	// wastes its seek). False keeps the seed's per-page loop, whose goldens
	// are pinned byte-for-byte. Non-insertion physical layouts should set
	// it: per-page logical-order scheduling on a permuted layout pays a
	// seek per page. Only the flat configurations (New, ServeConfig.Shards
	// 0) read it; a sharded fleet is always batched.
	BatchedIO bool
	// Faults arms every shard disk with a deterministic fault injector (see
	// internal/fault); nil injects nothing and keeps the run byte-identical
	// to the seed. A *fault.Injector also drives the shard-fault domains
	// (outages, brownouts) of a NewShardedEngine fleet. Serve overrides this
	// field with ServeConfig.Faults.
	Faults pagestore.FaultInjector
	// Backing, when non-nil, arms the engine's disk with a durable
	// file-backed page store (DESIGN.md §10): every simulated read is also
	// physically performed and checksum-verified, wall time recorded in
	// DiskStats.WallRead. Nil keeps the pure simulation, byte-identical to
	// the seed. Clones share the backing store (its reads are
	// concurrency-safe); note that on-the-fly repair mutates the shared
	// file, so runs that need byte-identical output across worker counts
	// should use one worker when repair can occur.
	Backing *pagestore.FileStore
	// ScrubPages caps the background integrity scrub's per-window step: up
	// to this many pages are verified out of whatever prefetch-window time
	// the prefetcher left unused, so the scrub never starves demand reads
	// or planned prefetch. Zero disables scrubbing. Requires Backing.
	ScrubPages int
	// Replicas is a sharded fleet's chained range-replication degree
	// (DESIGN.md §13): each Hilbert range is also readable from the next
	// Replicas-1 shards, at CostModel.ReplicaRead per replica-served page.
	// 0 or 1 disables replication; degrees above the shard count clamp to
	// it. A flat engine (New) has one range and nothing to replicate.
	Replicas int
	// Hedge is a sharded engine's hedged-prefetch threshold: when the
	// slowest shard's estimated prefetch sweep exceeds Hedge times the
	// median shard estimate, that sub-batch is also issued to its next
	// live replica and the cheaper outcome wins (both disks bill the
	// work — hedging buys tail latency with duplicate I/O). 0 disables
	// hedging; it needs Replicas >= 2 to have an alternate to hedge to.
	Hedge float64
}

// defaultCacheFraction is the paper's setup: 4 GB of prefetch cache for a
// 33 GB data set (§7.1).
const defaultCacheFraction = 4.0 / 33.0

// DefaultConfig mirrors the paper's setup.
func DefaultConfig() Config {
	return Config{
		CacheFraction: defaultCacheFraction,
		Cost:          pagestore.DefaultCostModel(),
	}
}

// QueryTrace records the execution of one query for analysis.
type QueryTrace struct {
	Seq         int
	ResultPages int
	HitPages    int
	Cold        time.Duration // cold retrieval time (no cache)
	Residual    time.Duration // actual disk time for misses
	Window      time.Duration // prefetch window duration
	GraphBuild  time.Duration
	GraphDelta  bool // graph advanced incrementally (delta-cost GraphBuild)
	Prediction  time.Duration
	PrefetchIO  time.Duration // window time spent reading prefetch pages
	Prefetched  int           // pages prefetched during the window
	// Fanout is the number of shards the demand set touched (1 on a
	// one-range fleet, 0 for an empty query) and RoutedPages the miss pages
	// shipped from non-home shards (each charged CostModel.Route inside
	// Residual).
	Fanout      int
	RoutedPages int
	// FailedOverPages and LostPages are filled by RunSequence only: demand
	// miss pages served by a replica instead of their home shard, and
	// demand pages unserved because every member of their range's replica
	// chain was down (the client waited out its read deadline and was
	// answered without them).
	FailedOverPages int
	LostPages       int
}

// SequenceResult aggregates one sequence's execution.
type SequenceResult struct {
	Queries []QueryTrace
	// HitPages/TotalPages accumulate over counted queries (Counted).
	HitPages   int64
	TotalPages int64
	// Cold and Residual accumulate the response-time components over
	// counted queries; Speedup = Cold / (Residual + unhidden overheads).
	Cold       time.Duration
	Residual   time.Duration
	GraphBuild time.Duration
	Prediction time.Duration
	// DeltaBuilds counts the counted queries whose graph was advanced
	// incrementally rather than rebuilt.
	DeltaBuilds int64
	// ResultHash fingerprints the served result sets: an FNV-1a fold over
	// every query's object IDs, in query order, including skipped queries.
	// Two runs served byte-identical results iff their hashes match — the
	// ha1 replication-identity acceptance keys on it. Filled by
	// RunSequence; the serving commit loop replays result sets the plan
	// phase computed and leaves it zero.
	ResultHash uint64
	// LostPages totals QueryTrace.LostPages over all queries: demand pages
	// dropped from result sets because their whole replica chain was down.
	LostPages int64
}

// Counted reports whether the seq-th query of a sequence (0-based) enters
// hit-rate and response-time accounting: every query but the first, for
// which no prediction can exist, for any prefetcher.
func Counted(seq int) bool { return seq > 0 }

// account folds one query's trace into the sequence, for both drivers: the
// trace and its lost pages always; its pages, response-time components and
// delta build only when the query is Counted. It reports whether it was.
func (r *SequenceResult) account(tr QueryTrace) bool {
	r.Queries = append(r.Queries, tr)
	r.LostPages += int64(tr.LostPages)
	if !Counted(tr.Seq) {
		return false
	}
	r.HitPages += int64(tr.HitPages)
	r.TotalPages += int64(tr.ResultPages)
	r.Cold += tr.Cold
	r.Residual += tr.Residual
	r.GraphBuild += tr.GraphBuild
	r.Prediction += tr.Prediction
	if tr.GraphDelta {
		r.DeltaBuilds++
	}
	return true
}

// HitRate returns the sequence's cache hit rate.
func (r SequenceResult) HitRate() float64 {
	if r.TotalPages == 0 {
		return 0
	}
	return float64(r.HitPages) / float64(r.TotalPages)
}

// Speedup returns the response-time speedup versus no prefetching.
func (r SequenceResult) Speedup() float64 {
	denom := r.Residual
	if denom <= 0 {
		denom = time.Nanosecond
	}
	return float64(r.Cold) / float64(denom)
}

// Index is the spatial index contract the engine needs: prefetch.Index's.
// The FLAT index adds ordered retrieval on top, which SCOUT-OPT uses
// internally; the engine itself only needs candidate pages.
type Index = prefetch.Index

// filtered is one query's record: its filter step — candidate pages (the
// demand set, in index order), their physical order (physicalOrder, with keys
// its sort scratch) and the refined result — and, in RunSequence's slots, what
// the pipeline adds to it: the plan the prefetcher returned after observing
// it, mine when the inline coordinator filtered it itself, and panicked, a
// panic its filter step or its observation raised, for the goroutine that
// takes the slot to re-raise (slot).
type filtered struct {
	pages    []pagestore.PageID
	order    []int32
	keys     []uint64
	result   []pagestore.ObjectID
	plan     prefetch.Plan
	mine     bool
	panicked any
}

// filter runs one query's filter step — index probe, physical order, refine
// — into s, reusing its pages, order and keys; it writes nothing else, since
// in RunSequence's slots other goroutines read s's other fields meanwhile.
// The result is fresh (newResult, sized by prevLen), since observers may
// retain it. It reads only the immutable store and the index, so the plan
// phase and both of RunSequence's filtering goroutines run it, and which
// goroutine runs a query's step never shows in its output.
func filter(store *pagestore.Store, index Index, r geom.Region, s *filtered, prevLen int) {
	s.pages = index.QueryPages(r, s.pages[:0])
	s.order, s.keys = physicalOrder(store, s.pages, s.order, s.keys)
	s.result = store.AppendMatches(newResult(prevLen), r, s.pages)
}

// observeQuery hands the prefetcher query qi once it is answered — its
// region and path centre, the result and a private copy of the pages it was
// answered from — and returns the plan for the window after it. It is the
// one place an Observation is built: RunSequence's observe stage and its
// inline path, and the plan phase.
func observeQuery(p prefetch.Prefetcher, qi int, q workload.Query, result []pagestore.ObjectID, pages []pagestore.PageID) prefetch.Plan {
	p.Observe(prefetch.Observation{
		Seq:    qi,
		Region: q.Region,
		Center: q.Center,
		Result: result,
		Pages:  append([]pagestore.PageID(nil), pages...),
	})
	return p.Plan()
}

// Engine runs sequences against one dataset + index + prefetcher binding: the
// single-session driver of a shard fleet. New builds the flat configuration
// — one range, one disk head, one LRU, per-page or batched I/O as
// Config.BatchedIO says — and NewShardedEngine the scale-out one: S
// contiguous Hilbert ranges of the layout key, each with its own cache
// slice, disk head and seek state, optionally replicated and hedged. The
// plan phase (prefetcher observe + plan) is the same whatever the fleet, and
// the fleet's arithmetic is deterministic, so output is byte-identical
// run-to-run.
//
// An Engine is a single-coordinator object: RunSequence must not be called
// concurrently on the same instance. Use Clone for parallel runs.
type Engine struct {
	store  *pagestore.Store
	index  Index
	cfg    Config
	shards int // newFleet's shard argument: 0 through New
	fleet  *fleet
	// vclock is the virtual serving clock — the sum of Residual+Window over
	// all queries run. It persists across sequences: shard-fault episodes are
	// functions of total time served, not of per-sequence offsets.
	vclock time.Duration
	// batchBuf and reqBuf are the batched flush's reusable scratch: the
	// window's prediction set, and one request's pages.
	batchBuf, reqBuf []pagestore.PageID

	// The pipeline state (filterAhead, nextFiltered, observeAhead). slots
	// holds query i's record, reused across calls. claimed counts the filter
	// steps handed out: whoever filters query i claimed it there, exactly
	// once. lastLen is the last result length filtered, the next step's size
	// hint, kept across calls. ready carries the filter goroutine's finished
	// slots, in claim order, to their consumer — the observe stage, or the
	// coordinator when it observes inline — and planned carries the observe
	// stage's finished slots to the coordinator. helpers waits for both
	// goroutines.
	slots   []filtered
	claimed atomic.Int64
	lastLen atomic.Int64
	ready   chan int
	planned chan int
	helpers sync.WaitGroup
}

// New creates the flat engine. The store must be paginated (bulk-loaded).
func New(store *pagestore.Store, index Index, cfg Config) *Engine {
	return newEngine(store, index, cfg, 0)
}

// NewShardedEngine builds an S-shard engine over the store's current
// layout (shard counts below 1 are clamped to 1). The total cache capacity
// (same sizing rule as New) is split across shards ±1 page, each slice an
// exact LRU. Reads always take the batched elevator path — Config.BatchedIO
// is implied — and cfg.Replicas, cfg.Hedge and the shard-fault domains of a
// *fault.Injector in cfg.Faults take effect.
func NewShardedEngine(store *pagestore.Store, index Index, cfg Config, shards int) *Engine {
	return newEngine(store, index, cfg, max(shards, 1))
}

func newEngine(store *pagestore.Store, index Index, cfg Config, shards int) *Engine {
	if cfg.Cost == (pagestore.CostModel{}) {
		cfg.Cost = pagestore.DefaultCostModel()
	}
	return &Engine{store: store, index: index, cfg: cfg, shards: shards, fleet: newFleet(store, cfg, shards, nil)}
}

// Cache exposes shard 0's prefetch cache — the engine's whole cache unless
// it is sharded (for inspection in tests).
func (e *Engine) Cache() *cache.Cache { return e.fleet.shards[0].cache.(*cache.Cache) }

// Disk exposes shard 0's simulated disk — the engine's only disk unless it
// is sharded. It carries the background scrub's ledger: the scrub cursor
// lives in the one backing FileStore, so one disk owns it.
func (e *Engine) Disk() *pagestore.Disk { return e.fleet.shards[0].disk }

// Stats returns the fleet-wide I/O statistics.
func (e *Engine) Stats() pagestore.DiskStats { return e.fleet.diskStats() }

// ShardStats returns each shard disk's accumulated statistics, indexed by
// shard.
func (e *Engine) ShardStats() []pagestore.DiskStats { return e.fleet.shardStats() }

// HAStats returns the accumulated high-availability ledger (zero value when
// the engine runs without replication, hedging or shard faults).
func (e *Engine) HAStats() HAStats { return e.fleet.ha.stats }

// Close releases nothing — the engine owns no files, and its pipeline
// goroutines never outlive RunSequence — and stays so that callers keep
// pairing NewShardedEngine with it.
func (e *Engine) Close() {}

// Clone creates an engine over the same (immutable) store and index with
// fresh shard state — its own disk heads and prefetch caches. The parallel
// executor gives every worker a clone, so concurrent sequence runs share
// only read-only state.
func (e *Engine) Clone() *Engine {
	return newEngine(e.store, e.index, e.cfg, e.shards)
}

// RunSequence executes one guided sequence with the given prefetcher, one
// turn of the paper's Figure 2 timeline per query. State (caches, disk
// heads, prefetcher) is cleared first, matching the paper's methodology
// (§7.1).
//
// It runs as a three-stage pipeline. Each query's filter step depends only
// on its region, the store and the index, so a filter goroutine runs the
// whole sequence's filter steps ahead (filterAhead). What the prefetcher
// observes then depends only on the filter step, so an observe goroutine
// runs each query's Observe and Plan (observeAhead) while this one commits
// the query before it: demand turn, prefetch window, scrub, tick and
// accounting, in query order. The exception is a fleet with shard faults
// armed: it can drop pages from an answer, so the prefetcher must see the
// served subset, known only after the demand turn, and such a fleet observes
// inline here — and, rather than wait for a filter step, filters the next
// unclaimed query itself (nextFiltered). Both goroutines are gone when
// RunSequence returns, panics included; a panic in either, or in a filter
// step run here, is re-raised here with its original value when the
// sequence reaches the query that raised it.
func (e *Engine) RunSequence(seq workload.Sequence, p prefetch.Prefetcher) SequenceResult {
	f := e.fleet
	f.reset()
	p.Reset()

	res := SequenceResult{ResultHash: fnvOffset}
	ratio := seq.Params.WindowRatio
	if ratio <= 0 {
		ratio = 1
	}

	inline := f.ha.inj != nil
	e.startPipeline(seq.Queries, p, inline)
	defer e.stopPipeline()
	for qi, q := range seq.Queries {
		tr := QueryTrace{Seq: qi}

		// 1. Take the query's filtered pages (and its plan, unless observing
		// inline) and serve them: cache hits from the prefetch cache, misses
		// from disk (residual I/O) — see demandTurn. Cold charges routing for
		// the whole demand set (cold means nothing is cached anywhere),
		// Residual for remote misses only.
		var fq *filtered
		var plan prefetch.Plan
		if inline {
			fq = e.nextFiltered(seq.Queries, qi)
		} else {
			fq, plan = e.nextPlanned()
		}
		tr.ResultPages = len(fq.pages)
		dm := f.demandTurn(fq.pages, fq.order, e.vclock)
		tr.HitPages, tr.Residual = dm.hits, dm.residual
		tr.Fanout, tr.RoutedPages = dm.fanout, dm.routed
		tr.Cold = f.coldCost(fq.pages, fq.order)
		// A home whose whole replica chain was down drops its miss pages
		// from the result: the client waited out its read deadline (inside
		// Residual) and is answered without them. The result filtered ahead
		// covers every page, so the served subset is refined again here.
		var served []pagestore.PageID
		served, tr.FailedOverPages, tr.LostPages = f.served(fq.pages)
		result := fq.result
		if tr.LostPages > 0 {
			result = e.store.AppendMatches(newResult(len(result)), q.Region, served)
		}
		res.ResultHash = hashResult(res.ResultHash, qi, result)

		// 2. The prefetcher observes the completed query (content included:
		// SCOUT needs it, baselines ignore it) — on the observe stage, or here
		// on the subset a fleet with shard faults armed served.
		if inline {
			plan = observeQuery(p, qi, q, result, served)
		}
		tr.GraphBuild = plan.GraphBuild
		tr.GraphDelta = plan.GraphDelta
		tr.Prediction = plan.Prediction

		// 3. The prefetch window: user analysis takes r × cold time.
		// Prediction computation eats into the window unless the prefetcher
		// hides it under result retrieval (§6.2). The last query has no
		// window.
		tr.Window = time.Duration(ratio * float64(tr.Cold))
		budget := tr.Window
		if !plan.PredictionHidden {
			budget -= plan.Prediction
		}
		if qi < len(seq.Queries)-1 {
			if budget > 0 {
				tr.Prefetched, tr.PrefetchIO = e.spendWindow(plan, budget)
			}
			// 3b. Background integrity scrub, arbiter-aware by construction:
			// it runs only on window time that demand reads AND planned
			// prefetch left unused, and its per-window step is capped
			// (ScrubPages), so it can never starve either.
			e.Disk().ScrubIdle(budget-tr.PrefetchIO, e.cfg.ScrubPages)
		}

		// Fold this query's injected read retries into shard health evidence,
		// tick every ledger, and advance the virtual serving clock by the
		// query's end-to-end span.
		f.tick(e.vclock)
		e.vclock += tr.Residual + tr.Window

		// 4. Accounting.
		res.account(tr)
	}
	return res
}

// startPipeline starts the filter goroutine over queries (filterAhead) and,
// unless p is observed inline, the observe stage feeding p (observeAhead),
// after sizing the slots and channels for them, clearing the slots' mine
// marks and rewinding the claim counter on this goroutine.
func (e *Engine) startPipeline(queries []workload.Query, p prefetch.Prefetcher, inline bool) {
	n := len(queries)
	for len(e.slots) < n {
		e.slots = append(e.slots, filtered{})
	}
	for i := range e.slots[:n] {
		e.slots[i].mine = false
	}
	if cap(e.ready) < n {
		e.ready = make(chan int, n)
	}
	e.claimed.Store(0)
	e.helpers.Add(1)
	go e.filterAhead(queries)
	if inline {
		return
	}
	if cap(e.planned) < n {
		e.planned = make(chan int, n)
	}
	e.helpers.Add(1)
	go e.observeAhead(queries, p)
}

// claim hands out the next unfiltered query's index; past the sequence's
// end, every index is len(queries) or more.
func (e *Engine) claim() int { return int(e.claimed.Add(1)) - 1 }

// filterSlot runs query i's filter step into its slot, with the slot's own
// sort scratch and the engine's last result length as the size hint. A panic
// is recovered and recorded on the slot, so it is re-raised only when the
// sequence reaches query i, whichever goroutine ran the step.
func (e *Engine) filterSlot(i int, r geom.Region) {
	s := &e.slots[i]
	s.panicked = nil
	defer func() {
		if v := recover(); v != nil {
			s.panicked = v
		}
	}()
	filter(e.store, e.index, r, s, int(e.lastLen.Load()))
	e.lastLen.Store(int64(len(s.result)))
}

// filterAhead claims queries in counter order, runs each one's filter step
// into its slot and publishes the slot on e.ready, until the counter runs
// out. ready holds the whole sequence, so the goroutine never waits on its
// consumer: with a small ring and back-pressure the scheduler's hand-off ran
// both goroutines on one P and nothing overlapped.
func (e *Engine) filterAhead(queries []workload.Query) {
	defer e.helpers.Done()
	for i := e.claim(); i < len(queries); i = e.claim() {
		e.filterSlot(i, queries[i].Region)
		e.ready <- i
	}
}

// nextFiltered returns query i's slot for the inline coordinator, re-raising
// a panic its filter step recorded. While the slot is not ready the
// coordinator does not wait: it claims the next unfiltered query, filters it
// itself into that query's slot and marks the slot mine. It blocks on ready
// only once the counter has run out, when the filter goroutine holds query i.
func (e *Engine) nextFiltered(queries []workload.Query, i int) *filtered {
	for !e.slots[i].mine {
		select {
		case j := <-e.ready:
			// The filter goroutine publishes in claim order and query i is
			// not the coordinator's, so j is i.
			return e.slot(j)
		default:
		}
		k := e.claim()
		if k >= len(queries) {
			return e.slot(<-e.ready)
		}
		e.filterSlot(k, queries[k].Region)
		e.slots[k].mine = true
	}
	return e.slot(i)
}

// slot returns query i's slot, first re-raising on the calling goroutine a
// panic its filter step or its observation recorded.
func (e *Engine) slot(i int) *filtered {
	s := &e.slots[i]
	if s.panicked != nil {
		panic(s.panicked)
	}
	return s
}

// observeAhead is the observe stage: it takes every query's slot in order off
// e.ready — the filter goroutine filters them all, since the stage must never
// block on a probe — has p observe the query into the slot's plan and
// publishes the slot's index on e.planned. planned holds the whole sequence,
// so like filterAhead it never waits on the coordinator, and p's next Observe
// may run while the coordinator still reads the plan before it
// (prefetch.Prefetcher allows it). A panic follows the filter step's rule: a
// panic in Observe or Plan is recorded on the slot of the query being
// observed, a slot whose filter step panicked is not observed at all, and
// either slot is published and ends the stage, for the coordinator to
// re-raise the panic at that query's turn.
func (e *Engine) observeAhead(queries []workload.Query, p prefetch.Prefetcher) {
	defer e.helpers.Done()
	qi := 0
	defer func() {
		if v := recover(); v != nil {
			e.slots[qi].panicked = v
			e.planned <- qi
		}
	}()
	for ; qi < len(queries); qi++ {
		s := &e.slots[<-e.ready]
		if s.panicked == nil {
			s.plan = observeQuery(p, qi, queries[qi], s.result, s.pages)
		}
		e.planned <- qi
		if s.panicked != nil {
			return
		}
	}
}

// nextPlanned waits for the observe stage's next slot and returns it with
// its plan, re-raising on the calling goroutine a panic recorded on it.
func (e *Engine) nextPlanned() (*filtered, prefetch.Plan) {
	s := e.slot(<-e.planned)
	return s, s.plan
}

// stopPipeline waits for both helpers, empties their channels, which still
// hold the slots a panicking consumer did not take, and zeroes every slot's
// plan, so the engine keeps none of the prefetcher's memory alive.
func (e *Engine) stopPipeline() {
	e.helpers.Wait()
	for len(e.ready) > 0 {
		<-e.ready
	}
	for len(e.planned) > 0 {
		<-e.planned
	}
	for i := range e.slots {
		e.slots[i].plan = prefetch.Plan{}
	}
}

// spendWindow hands the plan's prediction set to the fleet in the shape its
// flush reads. The per-page flush resolves each request through the index
// only when it reaches it; the batched flush takes the whole set —
// traversal pages plus every request's pages, less those already cached —
// up front, as one elevator batch, whatever the fleet's replication, hedging
// or faults. The elevator sort drops the ladder's order anyway, so the
// batched flush probes only the requests no other request covers: a
// straight-line ladder's outermost rung holds every page of the rungs inside
// it.
func (e *Engine) spendWindow(plan prefetch.Plan, budget time.Duration) (int, time.Duration) {
	f := e.fleet
	var batch []pagestore.PageID
	var l ladder
	if f.perPage {
		l = ladder{pages: plan.TraversalPages, requests: len(plan.Requests), reqPages: func(i int) []pagestore.PageID {
			e.reqBuf = e.index.QueryPages(&plan.Requests[i], e.reqBuf[:0])
			return e.reqBuf
		}}
	} else {
		batch = f.appendUncached(e.batchBuf[:0], plan.TraversalPages)
		for i := range plan.Requests {
			if covered(plan.Requests, i) {
				continue
			}
			e.reqBuf = e.index.QueryPages(&plan.Requests[i], e.reqBuf[:0])
			batch = f.appendUncached(batch, e.reqBuf)
		}
		e.batchBuf = batch
		batch = elevatorBatch(e.store, batch)
	}
	n, io, _ := f.prefetchTurn(0, nil, batch, l, budget, e.vclock)
	return n, io
}

// covered reports whether request i's pages are all among another
// request's: box i lies inside box j, strictly or, for equal boxes, with j
// later, so exactly one of a set of equal boxes is not covered and the
// maximal requests cover every other. Under the Index contract this is
// exact: request i's pages overlap box i, so they overlap box j, and a
// box's probe returns every page that overlaps it. Ladders put the
// outermost rung last, so j counts down.
func covered(reqs []geom.AABB, i int) bool {
	b := reqs[i]
	for j := len(reqs) - 1; j >= 0; j-- {
		if j != i && reqs[j].ContainsBox(b) && (reqs[j] != b || j > i) {
			return true
		}
	}
	return false
}

// RunAll executes many sequences and aggregates their results.
func (e *Engine) RunAll(seqs []workload.Sequence, p prefetch.Prefetcher) Aggregate {
	return e.RunAllParallel(seqs, p, 1)
}

// RunEach executes the sequences and returns one result per sequence, in
// sequence order, fanning them out across `workers` goroutines (0 means
// GOMAXPROCS, as everywhere in the harness; 1 or a prefetcher without
// Clone runs sequentially). Worker counts above GOMAXPROCS are honored —
// the scheduler multiplexes them — so concurrency behavior is the same on
// every host. Sequences are independent by construction — RunSequence
// clears the cache, disk head and prefetcher first, and Reset restores a
// prefetcher to its freshly-constructed state — so the returned results are
// byte-identical whatever the worker count: each worker runs a cloned
// engine + prefetcher, claims sequence indices from a shared counter, and
// writes into the result slot of its index.
func (e *Engine) RunEach(seqs []workload.Sequence, p prefetch.Prefetcher, workers int) []SequenceResult {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(seqs) {
		workers = len(seqs)
	}
	cl, cloneable := p.(prefetch.Cloner)
	if workers <= 1 || !cloneable {
		out := make([]SequenceResult, len(seqs))
		for i, seq := range seqs {
			out[i] = e.RunSequence(seq, p)
		}
		return out
	}

	out := make([]SequenceResult, len(seqs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			we := e.Clone()
			wp := cl.Clone()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(seqs) {
					return
				}
				out[i] = we.RunSequence(seqs[i], wp)
			}
		}()
	}
	wg.Wait()
	return out
}

// RunAllParallel is RunAll with the sequences fanned out across `workers`
// goroutines (0 means GOMAXPROCS). The aggregate is merged in sequence
// order and is identical to RunAll's for any worker count.
func (e *Engine) RunAllParallel(seqs []workload.Sequence, p prefetch.Prefetcher, workers int) Aggregate {
	var agg Aggregate
	for _, r := range e.RunEach(seqs, p, workers) {
		agg.add(r)
	}
	return agg
}

// Aggregate summarizes many sequence runs.
type Aggregate struct {
	Sequences  int
	HitPages   int64
	TotalPages int64
	Cold       time.Duration
	Residual   time.Duration
	GraphBuild time.Duration
	Prediction time.Duration
	// DeltaBuilds counts counted queries served by incremental graph
	// advances rather than full rebuilds.
	DeltaBuilds int64
}

func (a *Aggregate) add(r SequenceResult) {
	a.Sequences++
	a.HitPages += r.HitPages
	a.TotalPages += r.TotalPages
	a.Cold += r.Cold
	a.Residual += r.Residual
	a.GraphBuild += r.GraphBuild
	a.Prediction += r.Prediction
	a.DeltaBuilds += r.DeltaBuilds
}

// HitRate returns the pooled cache hit rate across sequences.
func (a Aggregate) HitRate() float64 {
	if a.TotalPages == 0 {
		return 0
	}
	return float64(a.HitPages) / float64(a.TotalPages)
}

// Speedup returns the pooled response-time speedup versus no prefetching.
func (a Aggregate) Speedup() float64 {
	denom := a.Residual
	if denom <= 0 {
		denom = time.Nanosecond
	}
	return float64(a.Cold) / float64(denom)
}
