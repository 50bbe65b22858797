// Package experiments defines one reproducible experiment per table and
// figure of the paper's evaluation (§3.3, §7, §8), plus ablations of SCOUT's
// design choices. Each experiment builds its workload, runs every relevant
// prefetcher through the virtual-clock engine, and returns the same rows or
// series the paper reports. See DESIGN.md §4 for the experiment index and
// PAPER.md's claims table for what each figure claims.
package experiments

import (
	"fmt"
	"math"
	"sync"

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
	// FaultSeed keys the fault schedules independently of the workload
	// (scoutbench -faultseed; 0 = reuse Seed).
	FaultSeed int64
	// Progress, when non-nil, receives one line per completed measurement.
	Progress func(string)
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

// Env lazily builds and caches the datasets shared by experiments, so
// running the full suite generates each dataset once. It also memoizes the
// mu* experiments' session plans (see muPlan), which are deterministic in
// (setup, session count, seed) and shared by mu1/mu2/mu3.
type Env struct {
	opt Options

	mu      sync.Mutex
	setups  map[string]*Setup
	muPlans map[string]muPlanned
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
	s.workers = e.opt.Workers
	e.setups[key] = s
	return s
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
		n := int(float64(cfg.GridNodes) * math.Sqrt(e.opt.Scale))
		if n < 24 {
			n = 24
		}
		cfg.GridNodes = n
		return dataset.GenerateRoad(cfg)
	})
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
	e := engine.New(s.Store, s.Tree, engine.DefaultConfig())
	return e.RunAllParallel(seqs, p, s.workers)
}

// runEach is runOne keeping the per-sequence results (in sequence order).
func (s *Setup) runEach(seqs []workload.Sequence, p prefetch.Prefetcher) []engine.SequenceResult {
	e := engine.New(s.Store, s.Tree, engine.DefaultConfig())
	return e.RunEach(seqs, p, s.workers)
}

// genSequences builds the workload for this setup.
func (s *Setup) genSequences(p workload.Params, count int, seed int64) []workload.Sequence {
	seqs, err := workload.GenerateMany(s.DS, p, count, seed)
	if err != nil {
		panic(fmt.Sprintf("experiments: workload on %s: %v", s.DS.Name, err))
	}
	return seqs
}
