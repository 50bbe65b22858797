// Package core implements SCOUT and SCOUT-OPT, the paper's contribution:
// structure-aware prefetching for guided spatial query sequences.
//
// SCOUT (§4–§5) summarizes each query result as an approximate proximity
// graph (grid hashing, or the dataset's explicit mesh adjacency), identifies
// the guiding structure by iteratively intersecting the structures exiting
// query n−1 with those entering query n (candidate pruning), traverses the
// graph from the candidates' entries to their exit locations, extrapolates
// the exits linearly, and plans incremental prefetch queries there — deep
// (one random candidate) or broad (budget split over all candidates,
// k-means-limited).
//
// SCOUT-OPT (§6) additionally exploits a FLAT-like index: sparse graph
// construction builds only the pages reachable from the previous query's
// exits, and gap traversal follows the structure page-by-page across the
// gap between queries under an I/O budget.
package core

import "time"

// Strategy selects how multiple candidate structures are prefetched (§5.2).
type Strategy int

const (
	// Broad prefetches at every candidate's predicted location with equal
	// weight — lower variance, the paper's defensive default (§5.2.2).
	Broad Strategy = iota
	// Deep picks one candidate at random and spends the entire window on it
	// — higher variance (§5.2.1).
	Deep
)

// String names the strategy.
func (s Strategy) String() string {
	if s == Deep {
		return "deep"
	}
	return "broad"
}

// SCOUT's CPU costs on the virtual clock, making the paper's overhead
// experiments (Figures 14–16) deterministic and machine-independent. They
// are calibrated so that, at the default dataset scale, graph building lands
// near 15% and prediction near 6% of query response time, matching §8.1.
const (
	// costPerObject is charged for every object added to a graph
	// (insertions, resurrections and window re-walks under the delta
	// lifecycle).
	costPerObject = 4 * time.Microsecond
	// costPerEdge is charged for every edge created or detached.
	costPerEdge = 1 * time.Microsecond
	// costPerOp is charged for every elementary traversal operation.
	costPerOp = 500 * time.Nanosecond
	// costPerMaintOp is charged for every elementary maintenance operation
	// of the delta lifecycle — lazy connectivity rebuilds, cell-directory
	// migration, tombstone compaction. These are cheap array/hash slots, an
	// order of magnitude below the geometric work costPerObject/costPerEdge
	// model; full builds perform none, so the §8.1 calibration is
	// unaffected.
	costPerMaintOp = 25 * time.Nanosecond
)

const (
	// matchTolFrac scales the entry↔exit matching tolerance of candidate
	// pruning, as a fraction of the query side length.
	matchTolFrac = 0.35
	// minOverlapFrac is the result-set overlap (surviving objects over the
	// larger of the old and new result) below which SCOUT falls back from
	// Advance to a fresh build — churning most of the graph through
	// tombstones costs more than rebuilding.
	minOverlapFrac = 0.4
	// rngSeed seeds the deep strategy's random pick and k-means seeding;
	// Reset reseeds with it, so every sequence draws the same stream.
	rngSeed = 1
)

// Config parameterizes SCOUT.
type Config struct {
	// Resolution is the total number of grid-hash cells per query region
	// (Figure 13e); the paper's default operating point is 32768.
	Resolution int
	// Strategy picks deep or broad prefetching (§5.2).
	Strategy Strategy
	// MaxLocations is d, the limit on simultaneous prefetch locations;
	// beyond it, exit locations are k-means clustered (§5.2.2).
	MaxLocations int
	// Ladder is the number of growing incremental prefetch queries per
	// predicted location (§5.1).
	Ladder int
	// DisablePruning turns off iterative candidate pruning (§4.3) for
	// ablation: every query is treated as the first of its sequence.
	DisablePruning bool
	// DisableIncremental turns off the incremental graph lifecycle for
	// ablation: every query rebuilds its graph from scratch (the paper's
	// literal per-query lifecycle) instead of advancing the previous one.
	DisableIncremental bool
}

// gapIOFrac is SCOUT-OPT's gap traversal I/O budget as a fraction of the
// pages used by the most recent query: the paper's 10 % (§7.4.6).
const gapIOFrac = 0.10

// DefaultConfig returns the paper's default operating point.
func DefaultConfig() Config {
	return Config{
		Resolution:   32768,
		Strategy:     Broad,
		MaxLocations: 4,
		Ladder:       6,
	}
}
