package dataset

import (
	"math/rand"

	"scout/internal/pagestore"
)

// NeuroConfig parameterizes the synthetic brain-tissue model that stands in
// for the paper's Blue Brain circuit (450M cylinders in 285 mm³; §7.1). The
// generator keeps the paper's object density (~1.58e−3 cylinders/µm³) and
// morphology style — somas with tortuous, bifurcating branches of small
// cylinders — at a configurable scaled-down object count.
type NeuroConfig struct {
	// NumObjects is the target total number of cylinders.
	NumObjects int
	// Density is the spatial density (objects per µm³) that sizes the
	// world, and must be positive; DefaultNeuroConfig sets 8 × the paper's
	// 450e6 / 285e9.
	Density float64
	// Seed makes generation deterministic.
	Seed int64
}

// The neuron morphology every NeuroConfig shares: how many cylinders each
// neuron holds (so how many neurons share the budget), its primary branches
// per soma, and how many root-to-tip guiding structures to record per
// neuron.
const (
	cylindersPerNeuron = 2500
	trunksPerNeuron    = 2
	pathsPerNeuron     = 4
)

// DefaultNeuroConfig is the scale used by the main experiments: 1M objects
// ≙ the paper's 450M at 1/450 scale (DESIGN.md §2).
func DefaultNeuroConfig() NeuroConfig {
	return NeuroConfig{
		NumObjects: 1_000_000,
		Density:    8 * 450e6 / 285e9,
		Seed:       1,
	}
}

// SmallNeuroConfig is a fast configuration for tests and examples.
func SmallNeuroConfig() NeuroConfig {
	cfg := DefaultNeuroConfig()
	cfg.NumObjects = 60_000
	return cfg
}

// neuroTreeParams is the branch morphology: 4 µm segments, noticeable
// tortuosity, occasional bifurcation. Side branches receive 30% of the
// remaining budget so main paths stay long enough to guide the paper's
// longest sequences (55 queries ≈ 2.4 mm).
func neuroTreeParams() treeParams {
	return treeParams{
		SegLen:         4,
		Tortuosity:     0.08,
		KinkProb:       0.12,
		KinkAngle:      0.9,
		BifurcateProb:  0.05,
		BranchAngle:    0.85,
		SideBudgetFrac: 0.25,
		Radius0:        1.0,
		RadiusDecay:    0.85,
		MaxGen:         5,
	}
}

// GenerateNeuro builds the synthetic brain-tissue dataset.
func GenerateNeuro(cfg NeuroConfig) *Dataset {
	if cfg.NumObjects <= 0 {
		panic("dataset: NumObjects must be positive")
	}
	if cfg.Density <= 0 {
		panic("dataset: Density must be positive")
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	world := worldForDensity(cfg.NumObjects, cfg.Density)
	p := neuroTreeParams()

	d := &Dataset{Name: "neuro", World: world}
	d.Objects = make([]pagestore.Object, 0, cfg.NumObjects)
	numNeurons := (cfg.NumObjects + cylindersPerNeuron - 1) / cylindersPerNeuron
	// Somas stay away from the walls so trunks have room to grow.
	somaBox := world.ScaledAbout(0.8)

	structID := int32(0)
	for n := 0; n < numNeurons && len(d.Objects) < cfg.NumObjects; n++ {
		soma := randPointIn(rng, somaBox)
		budget := cylindersPerNeuron
		if remain := cfg.NumObjects - len(d.Objects); budget > remain {
			budget = remain
		}
		perTrunk := budget / trunksPerNeuron
		if perTrunk < 1 {
			perTrunk = budget
		}
		for tr := 0; tr < trunksPerNeuron && perTrunk > 0; tr++ {
			id := structID
			structID++
			root := growTree(rng, world, p, soma, randUnit(rng), perTrunk, id, &d.Objects)
			for _, path := range samplePaths(rng, root, pathsPerNeuron/trunksPerNeuron+1, d.Objects) {
				d.Structures = append(d.Structures,
					NewStructure(int32(len(d.Structures)), path))
			}
		}
	}
	return d
}
