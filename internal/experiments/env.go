// Package experiments defines one reproducible experiment per table and
// figure of the paper's evaluation (§3.3, §7, §8), plus ablations of SCOUT's
// design choices. Each experiment builds its workload, runs every relevant
// prefetcher through the virtual-clock engine, and returns the same rows or
// series the paper reports. See DESIGN.md §4 for the experiment index and
// EXPERIMENTS.md for paper-vs-measured results.
package experiments

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"scout/internal/core"
	"scout/internal/dataset"
	"scout/internal/engine"
	"scout/internal/flatindex"
	"scout/internal/pagestore"
	"scout/internal/prefetch"
	"scout/internal/rtree"
	"scout/internal/workload"
)

// Setup is one dataset ready for querying: generated objects, paginated
// store, and both index variants over the same physical layout.
type Setup struct {
	DS    *dataset.Dataset
	Store *pagestore.Store
	Tree  *rtree.Tree
	Flat  *flatindex.Index
	// workers is the experiment harness's per-measurement parallelism,
	// copied from Options by Env.setup (0 = GOMAXPROCS).
	workers int
	// cfg is the engine configuration runs use, copied from Options by
	// Env.setup (zero value = engine defaults, per-page I/O).
	cfg engine.Config
}

// BuildSetup indexes a generated dataset.
func BuildSetup(ds *dataset.Dataset) (*Setup, error) {
	store := pagestore.NewStore(ds.Objects)
	cfg := rtree.Config{}
	tree, err := rtree.BulkLoad(store, cfg)
	if err != nil {
		return nil, err
	}
	flat, err := flatindex.Build(store, cfg, 0)
	if err != nil {
		return nil, err
	}
	return &Setup{DS: ds, Store: store, Tree: tree, Flat: flat}, nil
}

// Options tunes experiment scale so the same definitions serve the full
// benchmark harness and fast unit tests.
type Options struct {
	// Scale multiplies dataset object counts; 1.0 is the scale documented
	// in DESIGN.md (neuro = 1M objects ≙ the paper's 450M).
	Scale float64
	// Sequences overrides the number of sequences per measurement when
	// positive (the paper uses 30 for the microbenchmarks, 50 for the
	// sensitivity analysis, 35 for Figure 15).
	Sequences int
	// Seed makes workload generation deterministic.
	Seed int64
	// Workers caps the goroutines used to fan sequences of one measurement
	// out across cores; 0 means GOMAXPROCS, 1 forces sequential execution.
	// Results are byte-identical for any value (see engine.RunEach and
	// engine.Serve).
	Workers int
	// Sessions overrides the mu* experiments' session-count sweep with a
	// single count when positive (scoutbench -sessions N).
	Sessions int
	// Policy overrides the mu* experiments' arbiter policy — "fair",
	// "demand", "starved" or "none" (scoutbench -policy P). Empty keeps
	// each experiment's default or ablation set.
	Policy string
	// Layout selects the physical page layout every dataset is stored
	// under — "insertion", "hilbert" or "str" (scoutbench -layout L).
	// Empty means insertion: the seed's physical order and per-page I/O
	// path, byte-identical to the committed goldens. Non-insertion
	// layouts also route engines through the batched elevator I/O path
	// (engine.Config.BatchedIO) — per-page logical-order scheduling on a
	// permuted layout would pay a seek per page. layout1 sweeps layouts
	// itself and restores this global choice afterwards.
	Layout string
	// Faults selects the fault-injection profile the rob1 experiment
	// injects — "off", "light", "moderate" or "heavy" (scoutbench -faults
	// F). Empty means rob1 sweeps every profile. No other experiment ever
	// injects faults, whatever this is set to.
	Faults string
	// FaultSeed keys the fault schedules independently of the workload
	// (scoutbench -faultseed; 0 = reuse Seed).
	FaultSeed int64
	// SLO is rob1's per-query response-time objective (scoutbench -slo;
	// 0 = the 25 ms default, five seeks).
	SLO time.Duration
	// Backend selects the page-store backend — "sim" or "file" (scoutbench
	// -backend B). Empty means sim: the pure virtual-clock cost model,
	// byte-identical to the committed goldens. "file" additionally writes
	// each dataset to a page-aligned file (DESIGN.md §10) and physically
	// performs every read, checksum-verified, with wall time recorded in
	// DiskStats.WallRead; all virtual-clock outputs are unchanged.
	Backend string
	// BackendDir is the directory the file backend writes page files into
	// (scoutbench -backenddir). Empty means a fresh temp directory.
	BackendDir string
	// Checksum selects the file backend's integrity mode — "off", "verify"
	// or "repair" (scoutbench -checksum C). Empty means repair, the fully
	// hardened default. The dur1 experiment interprets it differently: it
	// sweeps all three modes unless this pins one.
	Checksum string
	// Arrivals selects the load1 experiment's open-loop arrival process —
	// "poisson" or "bursty" (scoutbench -arrivals A). Empty means poisson.
	// No other experiment generates open-loop traffic.
	Arrivals string
	// Rate pins load1's offered-load sweep to a single multiplier of the
	// calibrated closed-loop capacity when positive (scoutbench -rate R;
	// 0 = the full 0.5×–8× sweep).
	Rate float64
	// Classes selects load1's workload-class mix — "mixed" (model-building
	// walks, scan-heavy users and teleporting users with distinct arbiter
	// priorities) or "uniform" (one neutral class). Empty means mixed.
	Classes string
	// Patience overrides load1's abandonment patience (scoutbench
	// -patience; 0 = 2× the derived SLO, which keeps it scale-free).
	Patience time.Duration
	// Shards pins the shard1 experiment's shard-count sweep to one count
	// when positive (scoutbench -shards N; valid counts in ShardCounts).
	// 0 means the full 1→16 sweep. No other experiment shards its engine,
	// whatever this is set to. The ha1 experiment sweeps the replicated
	// counts (2, 4, 8, 16) and honors a positive pin the same way.
	Shards int
	// Replicas pins the ha1 experiment's replication-mode sweep to one
	// degree when positive (scoutbench -replicas R; valid degrees in
	// ReplicaCounts). 0 means the full {none, repl, repl+hedge} mode
	// sweep. No other experiment replicates its shards.
	Replicas int
	// Hedge overrides ha1's hedged-prefetch threshold (scoutbench -hedge
	// H; a hedge fires when the slowest shard's estimated sweep exceeds H
	// times the median). 0 means the default 1.5 for hedged modes; valid
	// values are >= 1.
	Hedge float64
	// Progress, when non-nil, receives one line per completed measurement.
	Progress func(string)
}

// BackendNames lists the valid -backend values in flag order.
func BackendNames() []string { return []string{"sim", "file"} }

// ParseBackend validates a -backend value. The empty string means sim.
func ParseBackend(name string) (string, error) {
	switch name {
	case "", "sim":
		return "sim", nil
	case "file":
		return "file", nil
	}
	return "", fmt.Errorf("experiments: unknown backend %q (want sim or file)", name)
}

// ShardCounts lists the valid -shards values in sweep order.
func ShardCounts() []int { return []int{1, 2, 4, 8, 16} }

// ParseShardCount validates a -shards value. 0 means the full sweep.
func ParseShardCount(n int) (int, error) {
	if n == 0 {
		return 0, nil
	}
	for _, s := range ShardCounts() {
		if n == s {
			return n, nil
		}
	}
	return 0, fmt.Errorf("experiments: unknown shard count %d (want 0, 1, 2, 4, 8 or 16)", n)
}

// ReplicaCounts lists the valid -replicas values in sweep order.
func ReplicaCounts() []int { return []int{1, 2, 3} }

// ParseReplicaCount validates a -replicas value. 0 means the full
// replication-mode sweep.
func ParseReplicaCount(n int) (int, error) {
	if n == 0 {
		return 0, nil
	}
	for _, r := range ReplicaCounts() {
		if n == r {
			return n, nil
		}
	}
	return 0, fmt.Errorf("experiments: unknown replica count %d (want 0, 1, 2 or 3)", n)
}

// ParseHedge validates a -hedge threshold. 0 means the default; a hedge
// below 1 would fire on every window (the max always exceeds the median),
// which is a configuration error, not a tuning choice.
func ParseHedge(h float64) (float64, error) {
	if h == 0 {
		return 0, nil
	}
	if h < 1 {
		return 0, fmt.Errorf("experiments: hedge threshold %g below 1 would hedge every window (want 0 or >= 1)", h)
	}
	return h, nil
}

func (o Options) withDefaults() Options {
	if o.Scale <= 0 {
		o.Scale = 1.0
	}
	if o.Seed == 0 {
		o.Seed = 7
	}
	return o
}

func (o Options) sequences(paperCount int) int {
	if o.Sequences > 0 {
		return o.Sequences
	}
	return paperCount
}

func (o Options) objects(fullCount int) int {
	n := int(float64(fullCount) * o.Scale)
	if n < 2000 {
		n = 2000
	}
	return n
}

func (o Options) progress(format string, args ...interface{}) {
	if o.Progress != nil {
		o.Progress(fmt.Sprintf(format, args...))
	}
}

// batchedIO reports whether the options imply the batched elevator I/O
// path: any explicitly non-insertion layout.
func (o Options) batchedIO() bool {
	return o.Layout != "" && o.Layout != "insertion"
}

// engineConfig is the engine configuration the options imply: the paper's
// defaults, with BatchedIO following the selected layout.
func (o Options) engineConfig() engine.Config {
	cfg := engine.DefaultConfig()
	cfg.BatchedIO = o.batchedIO()
	return cfg
}

// Env lazily builds and caches the datasets shared by experiments, so
// running the full suite generates each dataset once. It also memoizes the
// mu* experiments' session plans (see muPlan), which are deterministic in
// (setup, session count, seed) and shared by mu1/mu2/mu3.
type Env struct {
	opt Options

	mu      sync.Mutex
	setups  map[string]*Setup
	muPlans map[string]muPlanned
	// backendDir is the resolved file-backend directory (Options.BackendDir
	// or a lazily created temp dir), memoized under mu.
	backendDir string
}

// NewEnv creates an experiment environment.
func NewEnv(opt Options) *Env {
	return &Env{
		opt:     opt.withDefaults(),
		setups:  make(map[string]*Setup),
		muPlans: make(map[string]muPlanned),
	}
}

// Options returns the environment's options.
func (e *Env) Options() Options { return e.opt }

// setup memoizes dataset builds by key.
func (e *Env) setup(key string, gen func() *dataset.Dataset) *Setup {
	e.mu.Lock()
	defer e.mu.Unlock()
	if s, ok := e.setups[key]; ok {
		return s
	}
	e.opt.progress("building dataset %s", key)
	s, err := BuildSetup(gen())
	if err != nil {
		panic(fmt.Sprintf("experiments: building %s: %v", key, err))
	}
	if e.opt.Layout != "" {
		l, err := pagestore.ParseLayout(e.opt.Layout)
		if err != nil {
			panic(fmt.Sprintf("experiments: %v", err))
		}
		if err := s.Store.Relayout(l); err != nil {
			panic(fmt.Sprintf("experiments: relayout %s: %v", key, err))
		}
	}
	s.workers = e.opt.Workers
	s.cfg = e.opt.engineConfig()
	if e.opt.Backend == "file" {
		// The file is written AFTER Relayout, so its physical slot order is
		// the final layout and every elevator sweep the cost model prices is
		// the sweep the file actually performs.
		mode, err := pagestore.ParseChecksumMode(e.opt.Checksum)
		if err != nil {
			panic(fmt.Sprintf("experiments: %v", err))
		}
		dir := e.backendDirLocked()
		fs, err := pagestore.CreateFileStore(
			filepath.Join(dir, key+".pages"), s.Store,
			pagestore.FileStoreConfig{Mode: mode, Replica: mode == pagestore.ChecksumRepair})
		if err != nil {
			panic(fmt.Sprintf("experiments: file backend for %s: %v", key, err))
		}
		s.cfg.Backing = fs
	}
	e.setups[key] = s
	return s
}

// backendDirLocked resolves the file backend's directory (caller holds mu).
func (e *Env) backendDirLocked() string {
	if e.backendDir != "" {
		return e.backendDir
	}
	if e.opt.BackendDir != "" {
		if err := os.MkdirAll(e.opt.BackendDir, 0o755); err != nil {
			panic(fmt.Sprintf("experiments: backend dir: %v", err))
		}
		e.backendDir = e.opt.BackendDir
		return e.backendDir
	}
	dir, err := os.MkdirTemp("", "scout-pages-")
	if err != nil {
		panic(fmt.Sprintf("experiments: backend dir: %v", err))
	}
	e.backendDir = dir
	return dir
}

// Neuro returns the default neuroscience setup (≙ the paper's 450M-cylinder
// model at 1/450 scale when Scale is 1).
func (e *Env) Neuro() *Setup {
	return e.setup("neuro", func() *dataset.Dataset {
		cfg := dataset.DefaultNeuroConfig()
		cfg.NumObjects = e.opt.objects(cfg.NumObjects)
		return dataset.GenerateNeuro(cfg)
	})
}

// NeuroWithObjects returns a neuro setup with the given object count in the
// SAME world volume as the default setup, increasing density with count —
// the dataset-density sweep of Figures 13b and 14.
func (e *Env) NeuroWithObjects(n int) *Setup {
	base := dataset.DefaultNeuroConfig()
	full := e.opt.objects(base.NumObjects)
	worldVolume := float64(full) / base.Density
	return e.setup(fmt.Sprintf("neuro-%d", n), func() *dataset.Dataset {
		cfg := base
		cfg.NumObjects = n
		cfg.Density = float64(n) / worldVolume
		return dataset.GenerateNeuro(cfg)
	})
}

// Artery returns the arterial-tree setup (≙ the pig-heart model).
func (e *Env) Artery() *Setup {
	return e.setup("artery", func() *dataset.Dataset {
		cfg := dataset.DefaultArteryConfig()
		cfg.NumObjects = e.opt.objects(cfg.NumObjects)
		return dataset.GenerateArtery(cfg)
	})
}

// Lung returns the lung-airway mesh setup.
func (e *Env) Lung() *Setup {
	return e.setup("lung", func() *dataset.Dataset {
		cfg := dataset.DefaultLungConfig()
		cfg.NumObjects = e.opt.objects(cfg.NumObjects)
		return dataset.GenerateLung(cfg)
	})
}

// Road returns the road-network setup.
func (e *Env) Road() *Setup {
	return e.setup("road", func() *dataset.Dataset {
		cfg := dataset.DefaultRoadConfig()
		// Object count ≈ 2·GridNodes²: scale the lattice side by √Scale.
		n := int(float64(cfg.GridNodes) * sqrtScale(e.opt.Scale))
		if n < 24 {
			n = 24
		}
		cfg.GridNodes = n
		return dataset.GenerateRoad(cfg)
	})
}

func sqrtScale(s float64) float64 {
	if s <= 0 {
		return 1
	}
	x := s
	// Newton's iterations suffice; avoids importing math for one call.
	g := s
	for i := 0; i < 20; i++ {
		g = (g + x/g) / 2
	}
	return g
}

// Prefetchers used across experiments, constructed fresh per measurement so
// no state leaks between runs.

func (s *Setup) straightLine(volume float64) prefetch.Prefetcher {
	return prefetch.NewStraightLine(volume)
}

func (s *Setup) ewma(volume float64) prefetch.Prefetcher {
	return prefetch.NewEWMA(0.3, volume)
}

func (s *Setup) hilbert(volume float64) prefetch.Prefetcher {
	return prefetch.NewHilbert(s.DS.World, volume, 4)
}

func (s *Setup) scout(cfg core.Config) *core.Scout {
	return core.New(s.Store, s.DS.Adjacency, cfg)
}

func (s *Setup) scoutOpt(cfg core.Config) *core.ScoutOpt {
	return core.NewOpt(s.Flat, s.DS.Adjacency, cfg)
}

// runOne executes the sequences against one prefetcher on a fresh engine,
// fanned out across the harness's worker budget. Cloneable prefetchers run
// one per worker; wrappers that accumulate state across sequences (the
// analysis collectors) fall back to sequential execution inside RunEach.
func (s *Setup) runOne(seqs []workload.Sequence, p prefetch.Prefetcher) engine.Aggregate {
	e := engine.New(s.Store, s.Tree, s.engineConfig())
	return e.RunAllParallel(seqs, p, s.workers)
}

// runEach is runOne keeping the per-sequence results (in sequence order).
func (s *Setup) runEach(seqs []workload.Sequence, p prefetch.Prefetcher) []engine.SequenceResult {
	e := engine.New(s.Store, s.Tree, s.engineConfig())
	return e.RunEach(seqs, p, s.workers)
}

// engineConfig is the setup's engine configuration (engine defaults for
// setups built outside an Env, e.g. by cmd/scoutgen).
func (s *Setup) engineConfig() engine.Config {
	if s.cfg == (engine.Config{}) {
		return engine.DefaultConfig()
	}
	return s.cfg
}

// genSequences builds the workload for this setup.
func (s *Setup) genSequences(p workload.Params, count int, seed int64) []workload.Sequence {
	seqs, err := workload.GenerateMany(s.DS, p, count, seed)
	if err != nil {
		panic(fmt.Sprintf("experiments: workload on %s: %v", s.DS.Name, err))
	}
	return seqs
}
