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
	// CachePages overrides CacheFraction with an absolute capacity when
	// positive.
	CachePages int
	// Cost is the disk cost model.
	Cost pagestore.CostModel
	// SkipFirstQuery excludes each sequence's first query from hit-rate
	// accounting: no prediction can exist for it, for any prefetcher.
	SkipFirstQuery bool
	// BatchedIO routes disk reads through the batched elevator path:
	// residual misses go through Disk.ReadBatch, and the prefetch window
	// flushes each query's whole prediction set as one physically sorted
	// batch with the budget applied to runs, not pages (a half-fetched run
	// wastes its seek). False keeps the seed's per-page loop, whose goldens
	// are pinned byte-for-byte. Non-insertion physical layouts should set
	// it: per-page logical-order scheduling on a permuted layout pays a
	// seek per page.
	BatchedIO bool
	// Faults arms the engine's disk with a deterministic fault injector
	// (see internal/fault); nil injects nothing and keeps the run
	// byte-identical to the seed. The multi-session serving path takes its
	// injector from ServeConfig.Faults instead — this field governs the
	// single-session engine only.
	Faults pagestore.FaultInjector
	// Retry bounds recovery from injected transient read faults; zero
	// fields take pagestore.DefaultRetryPolicy when Faults is set.
	Retry pagestore.RetryPolicy
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
	// Replicas is the sharded engine's chained range-replication degree
	// (DESIGN.md §13): each Hilbert range is also readable from the next
	// Replicas-1 shards, at CostModel.ReplicaRead per replica-served page.
	// 0 or 1 disables replication; degrees above the shard count clamp to
	// it. Ignored by the unsharded engine.
	Replicas int
	// Hedge is the sharded engine's hedged-prefetch threshold: when the
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
		CacheFraction:  defaultCacheFraction,
		Cost:           pagestore.DefaultCostModel(),
		SkipFirstQuery: true,
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
	// Fanout and RoutedPages are filled by the sharded engine only: the
	// number of shards the demand set touched, and the miss pages shipped
	// from non-home shards (each charged CostModel.Route inside Residual).
	// Zero on the unsharded path.
	Fanout      int
	RoutedPages int
	// FailedOverPages and LostPages are filled by the sharded engine's HA
	// path only: demand miss pages served by a replica instead of their
	// home shard, and demand pages unserved because every member of their
	// range's replica chain was down (the client waited out its read
	// deadline and was answered without them).
	FailedOverPages int
	LostPages       int
}

// SequenceResult aggregates one sequence's execution.
type SequenceResult struct {
	Queries []QueryTrace
	// HitPages/TotalPages accumulate over counted queries (respecting
	// SkipFirstQuery).
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
	// ha1 replication-identity acceptance keys on it. Filled by the
	// sharded engine only; zero on the unsharded path.
	ResultHash uint64
	// LostPages totals QueryTrace.LostPages over all queries (HA path
	// only): demand pages dropped from result sets because their whole
	// replica chain was down.
	LostPages int64
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

// Index is the spatial index contract the engine needs. The FLAT index adds
// ordered retrieval on top, which SCOUT-OPT uses internally; the engine
// itself only needs candidate pages, under prefetch.Index's contract.
type Index interface {
	QueryPages(r geom.Region, dst []pagestore.PageID) []pagestore.PageID
}

// Engine runs sequences against one dataset + index + prefetcher binding.
type Engine struct {
	store *pagestore.Store
	index Index
	disk  *pagestore.Disk
	cache *cache.Cache
	cfg   Config
	// batchBuf and readBuf are the batched prefetch flush's reusable scratch
	// (BatchedIO mode only): the prediction set, and the pages sweepBatch
	// read from it.
	batchBuf, readBuf []pagestore.PageID
}

// New creates an engine. The store must be paginated (bulk-loaded).
func New(store *pagestore.Store, index Index, cfg Config) *Engine {
	if cfg.Cost == (pagestore.CostModel{}) {
		cfg.Cost = pagestore.DefaultCostModel()
	}
	e := &Engine{
		store: store,
		index: index,
		disk:  pagestore.NewDisk(store, cfg.Cost),
		cache: cache.New(cacheCapacity(cfg, store)),
		cfg:   cfg,
	}
	if cfg.Faults != nil {
		e.disk.SetFaults(cfg.Faults, cfg.Retry)
	}
	if cfg.Backing != nil {
		e.disk.SetBacking(cfg.Backing)
	}
	return e
}

// Cache exposes the engine's prefetch cache (for inspection in tests).
func (e *Engine) Cache() *cache.Cache { return e.cache }

// Disk exposes the engine's simulated disk (for inspection in tests).
func (e *Engine) Disk() *pagestore.Disk { return e.disk }

// RunSequence executes one guided sequence with the given prefetcher. State
// (cache, disk head, prefetcher) is cleared first, matching the paper's
// methodology ("after executing each sequence of queries, we clear the
// prefetch cache, the operating system cache and the disk buffers", §7.1).
func (e *Engine) RunSequence(seq workload.Sequence, p prefetch.Prefetcher) SequenceResult {
	e.cache.Clear()
	e.disk.ResetHead()
	p.Reset()

	res := SequenceResult{}
	ratio := seq.Params.WindowRatio
	if ratio <= 0 {
		ratio = 1
	}

	var pageBuf []pagestore.PageID
	var missBuf []pagestore.PageID
	resultLen := 0
	for qi, q := range seq.Queries {
		tr := QueryTrace{Seq: qi}

		// The head position does not survive user think time (the OS and
		// other processes move it), so every query starts cold — exactly
		// the assumption behind ColdCost. Within the query and its prefetch
		// window, sequential-run discounts apply normally.
		e.disk.ResetHead()

		// 1. Locate the query's pages and serve them: cache hits from the
		// prefetch cache, misses from disk (residual I/O). The cache holds
		// prefetched data only ("4GB of memory to cache prefetched data",
		// §7.1) — user-query misses are NOT inserted, so the hit rate is a
		// pure measure of prediction accuracy, which is what makes the
		// paper's Figure 3 baselines meaningful.
		pageBuf = e.index.QueryPages(q.Region, pageBuf[:0])
		tr.ResultPages = len(pageBuf)
		tr.Cold = e.disk.ColdCost(pageBuf)

		missBuf = missBuf[:0]
		for _, pg := range pageBuf {
			if e.cache.Lookup(pg) {
				tr.HitPages++
			} else {
				missBuf = append(missBuf, pg)
			}
		}
		if e.cfg.BatchedIO {
			tr.Residual = e.disk.ReadBatch(missBuf)
		} else {
			tr.Residual = e.disk.ReadPages(missBuf)
		}

		// 2. The prefetcher observes the completed query (content included:
		// SCOUT needs it, baselines ignore it).
		result := e.store.AppendMatches(newResult(resultLen), q.Region, pageBuf)
		resultLen = len(result)
		p.Observe(prefetch.Observation{
			Seq:    qi,
			Region: q.Region,
			Center: q.Center,
			Result: result,
			Pages:  append([]pagestore.PageID(nil), pageBuf...),
		})
		plan := p.Plan()
		tr.GraphBuild = plan.GraphBuild
		tr.GraphDelta = plan.GraphDelta
		tr.Prediction = plan.Prediction

		// 3. The prefetch window: user analysis takes r × cold time.
		// Prediction computation eats into the window unless the prefetcher
		// hides it under result retrieval (§6.2).
		tr.Window = time.Duration(ratio * float64(tr.Cold))
		budget := tr.Window
		if !plan.PredictionHidden {
			budget -= plan.Prediction
		}
		if qi < len(seq.Queries)-1 && budget > 0 {
			prefetched, ioTime := e.executePlan(plan, budget)
			tr.Prefetched = prefetched
			tr.PrefetchIO = ioTime
		}

		// 3b. Background integrity scrub, arbiter-aware by construction: it
		// runs only on window time that demand reads AND planned prefetch
		// left unused, and its per-window step is capped (ScrubPages), so it
		// can never starve either. The last query has no window.
		if qi < len(seq.Queries)-1 {
			e.disk.ScrubIdle(budget-tr.PrefetchIO, e.cfg.ScrubPages)
		}

		// 4. Accounting.
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
		res.Queries = append(res.Queries, tr)
	}
	return res
}

// executePlan spends the prefetch window on the plan: one elevator batch
// with BatchedIO, else the per-page flush, with each request resolved
// through the index only when the flush reaches it — a window that closes
// early never pays for the ladder's later rungs.
func (e *Engine) executePlan(plan prefetch.Plan, budget time.Duration) (int, time.Duration) {
	if e.cfg.BatchedIO {
		return e.executePlanBatched(plan, budget)
	}
	var buf []pagestore.PageID
	return prefetchPages(e.cache, e.disk, plan.TraversalPages, len(plan.Requests), func(i int) []pagestore.PageID {
		buf = e.index.QueryPages(plan.Requests[i].Region, buf[:0])
		pagestore.SortPageIDs(buf)
		return buf
	}, budget)
}

// prefetchPages is the per-page prefetch flush, shared by the single-session
// engine and the flat serving path: it reads the plan's uncached pages into
// the cache until the budget is exhausted — first the gap-traversal pages in
// plan order (gap traversal reads them in structure-following priority),
// then the incremental request ladder, request i's pages (reqPages(i), in
// ascending order, as a disk scheduler would issue them, so contiguous runs
// earn their discount) only once the flush gets there. The read that crosses
// the budget still completes — the disk cannot abort a read — and closes the
// window. It returns the pages prefetched and the I/O time spent.
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

// executePlanBatched is the BatchedIO flush: the plan's whole prediction
// set — traversal pages plus every request's pages — becomes one elevator
// batch (elevatorBatch) and sweepBatch reads its uncached pages in a single
// sweep, one seek per physically contiguous run, until the run that crosses
// the budget. The sweep trades the incremental ladder's priority order for
// physical locality; layout1 measures that trade.
func (e *Engine) executePlanBatched(plan prefetch.Plan, budget time.Duration) (int, time.Duration) {
	buf := append(e.batchBuf[:0], plan.TraversalPages...)
	var req []pagestore.PageID
	for _, r := range plan.Requests {
		req = e.index.QueryPages(r.Region, req[:0])
		buf = append(buf, req...)
	}
	e.batchBuf = buf
	n, spent, read := sweepBatch(e.store, e.cache, elevatorBatch(e.store, buf), e.disk.Model().MaxBridge(), budget, e.readBuf, e.disk.ReadSorted)
	e.readBuf = read
	return n, spent
}

// Clone creates an engine over the same (immutable) store and index with
// its own disk head and prefetch cache. The parallel executor gives every
// worker a clone, so concurrent sequence runs share only read-only state.
func (e *Engine) Clone() *Engine {
	return New(e.store, e.index, e.cfg)
}

// RunAll executes many sequences and aggregates their results.
func (e *Engine) RunAll(seqs []workload.Sequence, p prefetch.Prefetcher) Aggregate {
	var agg Aggregate
	for _, r := range e.RunEach(seqs, p, 1) {
		agg.add(r)
	}
	return agg
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
