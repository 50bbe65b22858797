package dataset

import (
	"math/rand"

	"scout/internal/geom"
	"scout/internal/pagestore"
)

// ArteryConfig parameterizes the synthetic arterial tree standing in for
// the paper's pig-heart model [11] (2.1M cylinders, scaled ≈1/8). Arteries are generated
// as a classic self-similar vascular tree: long, smooth, gently curving
// branches that bifurcate with shrinking length and radius. Smoothness is
// the property the paper's Figure 17 findings hinge on (curve extrapolation
// beats SCOUT on smooth structures at small query volumes), so the per-step
// tortuosity is an order of magnitude below the neuron generator's.
// NumObjects counts cylinders, one per walk step; Roots counts the major
// coronary vessels.
type ArteryConfig struct {
	VesselConfig
}

// DefaultArteryConfig scales the paper's 2.1M-cylinder tree to 250k (≈1/8),
// keeping its morphology.
func DefaultArteryConfig() ArteryConfig {
	return ArteryConfig{VesselConfig{
		NumObjects:  250_000,
		Roots:       6,
		TrunkLen:    180,
		LenDecay:    0.85,
		SegLen:      6,
		Radius0:     14,
		RadiusDecay: 0.78,
		BranchAngle: 0.5,
		Tortuosity:  0.015,
		Seed:        2,
	}}
}

// SmallArteryConfig is a fast configuration for tests and examples.
func SmallArteryConfig() ArteryConfig {
	cfg := DefaultArteryConfig()
	cfg.NumObjects = 40_000
	return cfg
}

// GenerateArtery builds the synthetic arterial-tree dataset.
func GenerateArtery(cfg ArteryConfig) *Dataset {
	if cfg.NumObjects <= 0 {
		panic("dataset: NumObjects must be positive")
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	// The world is a cube that comfortably contains trees of total reach
	// ~TrunkLen/(1−LenDecay) grown inward from points near the faces.
	half := cfg.TrunkLen / (1 - cfg.LenDecay) * 0.9
	world := geom.Box(geom.V(-half, -half, -half), geom.V(half, half, half))

	d := &Dataset{Name: "artery", World: world}
	d.Objects = make([]pagestore.Object, 0, cfg.NumObjects)
	d.Structures = growVessels(rng, world, cfg.VesselConfig, &d.Objects,
		func() (geom.Vec3, geom.Vec3) {
			// Roots sit near a random face, pointing inward.
			pos := randPointIn(rng, world.ScaledAbout(0.95))
			return pos, world.Center().Sub(pos).Normalize()
		},
		func(b *vessel, _ int, pos, next, _ geom.Vec3) {
			d.Objects = append(d.Objects, pagestore.Object{
				Seg: geom.Seg(pos, next), Radius: b.radius, Struct: b.gen,
			})
		})
	return d
}
