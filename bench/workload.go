package main

import (
	"fmt"
	"time"

	"scout/internal/dataset"
	"scout/internal/engine"
	"scout/internal/flatindex"
	"scout/internal/pagestore"
	"scout/internal/rtree"
	"scout/internal/workload"
)

// dataSeed seeds the dataset. It is a constant: the dataset is the corpus and
// -seed draws the users. Ten datasets moved one walk set's hit rate by +-5 %,
// more than any bound, where ten walk sets over one dataset stay within
// +-1.5 %.
const dataSeed = 1

// sloLimit is the virtual response-time limit every workload is held to:
// five seeks of the default cost model, rob1's default objective.
const sloLimit = 25 * time.Millisecond

// sizes are the workload sizes. The full sizes are frozen: changing one
// changes every number in baseline.json, and the fingerprint says so.
type sizes struct {
	Objects         int    `json:"objects"`          // neuro dataset size
	WalksPerPreset  int    `json:"walks_per_preset"` // explore: walks per Figure 10 preset
	FileWalks       int    `json:"file_walks"`       // explore_file walks per pass
	ShardWalks      int    `json:"shard_walks"`      // explore_sharded walks per pass
	FlatSessions    int    `json:"flat_sessions"`    // serve_flat sessions
	ShardedSessions int    `json:"sharded_sessions"` // serve_sharded sessions per group
	ShardedGroups   int    `json:"sharded_groups"`   // serve_sharded independent session groups
	Setups          int    `json:"setups"`           // set-up repetitions behind setup_s
	MinOps          int    `json:"min_ops"`          // pooled operations a run must time
	MinBeyond       int    `json:"min_beyond"`       // samples that must lie beyond a reported percentile
	ProbeMS         int    `json:"probe_ms"`         // how long each replay probe times its layer
	WarmDivisor     int    `json:"warm_divisor"`     // warm-up runs 1/WarmDivisor of a walk pass
	ScalingSessions [3]int `json:"scaling_sessions"` // traced serve_flat: commit-scaling plan sizes
}

var (
	// fullSizes fits the driver's cap (about 28 s a run with three set-ups):
	// see README.md for how each number was chosen.
	fullSizes = sizes{
		Objects: 1_000_000, WalksPerPreset: 8, FileWalks: 100, ShardWalks: 130,
		FlatSessions: 96, ShardedSessions: 48, ShardedGroups: 3, Setups: 3, MinOps: 100, MinBeyond: 10, ProbeMS: 40, WarmDivisor: 8,
		ScalingSessions: [3]int{24, 48, 96},
	}
	smokeSizes = sizes{
		Objects: 20_000, WalksPerPreset: 1, FileWalks: 6, ShardWalks: 6,
		FlatSessions: 8, ShardedSessions: 6, ShardedGroups: 2, Setups: 1, MinOps: 1, MinBeyond: 1, ProbeMS: 2, WarmDivisor: 2,
		ScalingSessions: [3]int{2, 4, 8},
	}
)

// options are one run's inputs.
type options struct {
	seed      int64 // walks, arrivals
	faultSeed int64 // fault schedules and at-rest corruption
	seconds   float64
	sz        sizes
	tmpRoot   string // where explore_file keeps its page files
	// fileCfg is explore_file's FileStore configuration: repair mode with a
	// replica, unless a test takes the replica away to see the checks fail.
	fileCfg pagestore.FileStoreConfig
	// smoke and spec are passed on to -all's child processes: that sz is the
	// smoke size, and where BENCHMARK.json is.
	smoke bool
	spec  string
}

// defaultFileConfig is the fully hardened FileStore: checksums verified on
// every read, damage repaired in place from a replica.
func defaultFileConfig() pagestore.FileStoreConfig {
	return pagestore.FileStoreConfig{Mode: pagestore.ChecksumRepair, Replica: true}
}

// base is the state every workload's set-up starts from: the generated
// dataset, the paginated store and both indexes, with how long each took.
type base struct {
	ds    *dataset.Dataset
	store *pagestore.Store
	tree  *rtree.Tree
	flat  *flatindex.Index

	generate, bulkLoad, flatBuild time.Duration
	// walkGen and walks accumulate workload-generation time and sequences.
	walkGen time.Duration
	walks   int
}

func buildBase(opt options, layout pagestore.Layout) (*base, error) {
	b := &base{}
	t0 := time.Now()
	cfg := dataset.DefaultNeuroConfig()
	cfg.NumObjects = opt.sz.Objects
	cfg.Seed = dataSeed
	b.ds = dataset.GenerateNeuro(cfg)
	b.generate = time.Since(t0)

	t0 = time.Now()
	b.store = pagestore.NewStore(b.ds.Objects)
	var err error
	if b.tree, err = rtree.BulkLoad(b.store, rtree.Config{}); err != nil {
		return nil, fmt.Errorf("bulk-loading the R-tree: %w", err)
	}
	b.bulkLoad = time.Since(t0)

	t0 = time.Now()
	if b.flat, err = flatindex.Build(b.store, rtree.Config{}, 0); err != nil {
		return nil, fmt.Errorf("building the FLAT index: %w", err)
	}
	b.flatBuild = time.Since(t0)

	if layout != nil {
		if err := b.store.Relayout(layout); err != nil {
			return nil, fmt.Errorf("relayout to %s: %w", layout.Name(), err)
		}
	}
	return b, nil
}

// genWalks generates count guided walks and accounts their generation time.
func (b *base) genWalks(p workload.Params, count int, seed int64) ([]workload.Sequence, error) {
	t0 := time.Now()
	seqs, err := workload.GenerateMany(b.ds, p, count, seed)
	if err != nil {
		return nil, fmt.Errorf("generating walks: %w", err)
	}
	b.walkGen += time.Since(t0)
	b.walks += count
	return seqs, nil
}

// virt accumulates one pass's virtual-clock outcomes over counted queries.
// They repeat exactly from pass to pass, which the fingerprint checks.
type virt struct {
	resp        []time.Duration // virtual response per counted query
	hit, total  int64           // prefetch-cache hit pages / result pages
	cold, resid time.Duration
	sloMiss     int64
}

// FNV-1a, folded over every query's pages, hits and residual.
const (
	fnvOffset = uint64(14695981039346656037)
	fnvPrime  = uint64(1099511628211)
)

func fold(h uint64, vals ...uint64) uint64 {
	for _, v := range vals {
		h = (h ^ v) * fnvPrime
	}
	return h
}

// addSequence folds one sequence result into the accumulators and the
// fingerprint. A query that dropped result pages misses the limit whatever
// its response time.
func (v *virt) addSequence(r engine.SequenceResult, fp *uint64) {
	for _, tr := range r.Queries {
		*fp = fold(*fp, uint64(tr.ResultPages), uint64(tr.HitPages), uint64(tr.Residual))
		if tr.Seq == 0 { // SkipFirstQuery: no prediction can exist for it
			continue
		}
		v.resp = append(v.resp, tr.Residual)
		if tr.Residual > sloLimit || tr.LostPages > 0 {
			v.sloMiss++
		}
	}
	v.hit += r.HitPages
	v.total += r.TotalPages
	v.cold += r.Cold
	v.resid += r.Residual
}

// passResult is what one pass over a workload's operations produced.
type passResult struct {
	ops         []opSample
	fingerprint uint64
	v           virt
	attempted   int64 // queries the pass set out to serve
	failed      int64 // of those: lost, rejected, abandoned, read errors, failed checks
	// counters are the pass's raw in-situ layer counts (disk, cache, HA and
	// serve ledgers), summed over traced passes by the per-layer report.
	counters map[string]float64
	// elapsed is the pass's whole wall time, maintenance included.
	elapsed time.Duration
}

func (p *passResult) count(name string, v float64) { p.counters[name] += v }

func (p *passResult) countDisk(s pagestore.DiskStats) {
	p.count("disk.seeks", float64(s.Seeks))
	p.count("disk.pages_read", float64(s.PagesRead))
	p.count("disk.bridged", float64(s.BridgedPages))
	p.count("disk.fault_retries", float64(s.FaultRetries))
	p.count("disk.timed_out", float64(s.TimedOutReads))
	p.count("disk.wall_read_ns", float64(s.WallRead))
	p.count("disk.scrubbed", float64(s.ScrubbedPages))
}

func (p *passResult) countHA(h engine.HAStats) {
	p.count("ha.failed_over_pages", float64(h.FailedOverPages))
	p.count("ha.outage_probes", float64(h.OutageProbes))
	p.count("ha.hedge_windows", float64(h.HedgedWindows))
	p.count("ha.hedge_wins", float64(h.HedgeWins))
	p.count("ha.trips", float64(h.FailoverTrips))
}

// queries sums the pass's executed queries over its operations.
func (p *passResult) queries() int64 {
	var n int64
	for _, o := range p.ops {
		n += o.queries
	}
	return n
}

// bench is one workload: set-up, identical passes, tear-down.
type bench interface {
	// setup builds everything the passes need; its wall time is setup_s.
	// A non-nil recorder makes it a traced set-up (PlanSessions decorated).
	setup(rec *recorder) error
	// opsPerPass is the number of operations one full pass times.
	opsPerPass() int
	// pass runs the operations once. warm selects the shorter untimed
	// warm-up; rec non-nil makes it a traced pass.
	pass(rec *recorder, warm bool) (passResult, error)
	// traits tells the per-layer report which layers the operations reach.
	traits() traits
	// base is the last set-up's dataset, store and indexes, with their spans.
	base() *base
	// probe runs the workload's own after-pass layer probes (traced run
	// only) and returns per-layer values by metric name.
	probe(rec *recorder) (map[string]float64, error)
	// close releases files and goroutines; safe after a failed set-up.
	close()
}

// newBench returns the named workload.
func newBench(name string, opt options) (bench, error) {
	switch name {
	case "explore":
		return &explore{opt: opt}, nil
	case "explore_file":
		return &exploreFile{opt: opt}, nil
	case "explore_sharded":
		return &exploreSharded{opt: opt}, nil
	case "serve_flat":
		return &serveFlat{opt: opt}, nil
	case "serve_sharded":
		return &serveSharded{opt: opt}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames())
}
