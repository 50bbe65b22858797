// Package dataset generates the synthetic spatial datasets this
// reproduction substitutes for the paper's proprietary models (DESIGN.md
// §2): brain tissue (bifurcating neuron branches made of cylinders), an
// arterial tree (smooth, low-tortuosity cylinders), a lung airway surface
// mesh (triangles with explicit face adjacency) and a 2D road network.
//
// Every dataset records its ground-truth guiding structures — the polylines
// a user could follow — solely so workload generators can produce guided
// spatial query sequences. Prefetchers never see them.
package dataset

import (
	"fmt"
	"math"
	"math/rand"

	"scout/internal/geom"
	"scout/internal/pagestore"
)

// Structure is one ground-truth guiding structure: a root-to-tip polyline
// through the dataset (a neuron branch, an artery path, an airway path, a
// road route).
type Structure struct {
	ID     int32
	Points []geom.Vec3
	// arcLen[i] is the cumulative arc length up to Points[i]; arcLen[0]=0.
	arcLen []float64
}

// NewStructure builds a Structure from a polyline, computing cumulative arc
// lengths. Exposed so callers (tests, custom datasets) can supply their own
// guiding structures.
func NewStructure(id int32, points []geom.Vec3) Structure {
	s := Structure{ID: id, Points: points, arcLen: make([]float64, len(points))}
	for i := 1; i < len(points); i++ {
		s.arcLen[i] = s.arcLen[i-1] + points[i].Dist(points[i-1])
	}
	return s
}

// Length returns the total arc length of the structure.
func (s Structure) Length() float64 {
	if len(s.arcLen) == 0 {
		return 0
	}
	return s.arcLen[len(s.arcLen)-1]
}

// PointAt returns the point at the given arc-length distance from the start,
// clamped to the polyline's extent, and the unit tangent direction there.
func (s Structure) PointAt(dist float64) (geom.Vec3, geom.Vec3) {
	n := len(s.Points)
	if n == 0 {
		return geom.Vec3{}, geom.Vec3{}
	}
	if n == 1 {
		return s.Points[0], geom.V(1, 0, 0)
	}
	if dist <= 0 {
		return s.Points[0], s.Points[1].Sub(s.Points[0]).Normalize()
	}
	if dist >= s.Length() {
		return s.Points[n-1], s.Points[n-1].Sub(s.Points[n-2]).Normalize()
	}
	// Binary search the cumulative table.
	lo, hi := 0, n-1
	for lo+1 < hi {
		mid := (lo + hi) / 2
		if s.arcLen[mid] <= dist {
			lo = mid
		} else {
			hi = mid
		}
	}
	segLen := s.arcLen[hi] - s.arcLen[lo]
	t := 0.0
	if segLen > 0 {
		t = (dist - s.arcLen[lo]) / segLen
	}
	dir := s.Points[hi].Sub(s.Points[lo]).Normalize()
	return s.Points[lo].Lerp(s.Points[hi], t), dir
}

// Dataset is a generated spatial dataset ready for indexing.
type Dataset struct {
	Name    string
	World   geom.AABB
	Objects []pagestore.Object
	// Structures are the ground-truth guiding structures for workload
	// generation; prefetchers must not read them.
	Structures []Structure
	// Adjacency, when non-nil, is the dataset's explicit underlying graph
	// (indexed by ObjectID), e.g. polygon-mesh face adjacency. SCOUT uses
	// it instead of grid hashing when present (§4.2).
	Adjacency [][]pagestore.ObjectID
}

// Volume returns the world volume of the dataset.
func (d *Dataset) Volume() float64 { return d.World.Volume() }

// Stats summarizes a dataset for logging and documentation.
func (d *Dataset) Stats() string {
	var totalLen float64
	maxLen := 0.0
	for _, s := range d.Structures {
		l := s.Length()
		totalLen += l
		if l > maxLen {
			maxLen = l
		}
	}
	mean := 0.0
	if len(d.Structures) > 0 {
		mean = totalLen / float64(len(d.Structures))
	}
	return fmt.Sprintf("%s: %d objects, world %.0f µm³, %d structures (mean %.0f µm, max %.0f µm), explicit adjacency: %v",
		d.Name, len(d.Objects), d.World.Volume(), len(d.Structures), mean, maxLen, d.Adjacency != nil)
}

// worldForDensity returns a cube world that holds n objects at the given
// spatial density (objects per µm³), centered at the origin.
func worldForDensity(n int, density float64) geom.AABB {
	side := math.Cbrt(float64(n) / density)
	h := side / 2
	return geom.Box(geom.V(-h, -h, -h), geom.V(h, h, h))
}

// perturbDir tilts dir by a random angle whose magnitude scales with
// tortuosity (0 = straight, 1 = heavily wandering), staying unit length.
func perturbDir(rng *rand.Rand, dir geom.Vec3, tortuosity float64) geom.Vec3 {
	u, w := dir.Orthonormal()
	theta := rng.NormFloat64() * tortuosity
	phi := rng.Float64() * 2 * math.Pi
	tilt := u.Scale(math.Cos(phi)).Add(w.Scale(math.Sin(phi))).Scale(math.Sin(theta))
	return dir.Scale(math.Cos(theta)).Add(tilt).Normalize()
}

// reflectInto keeps a walk inside the world: when the next position would
// leave the box, the offending direction components are mirrored.
func reflectInto(world geom.AABB, pos geom.Vec3, dir geom.Vec3) geom.Vec3 {
	d := dir
	if pos.X < world.Min.X || pos.X > world.Max.X {
		d.X = -d.X
	}
	if pos.Y < world.Min.Y || pos.Y > world.Max.Y {
		d.Y = -d.Y
	}
	if pos.Z < world.Min.Z || pos.Z > world.Max.Z {
		d.Z = -d.Z
	}
	return d
}

// randPointIn returns a uniformly distributed point inside the box.
func randPointIn(rng *rand.Rand, b geom.AABB) geom.Vec3 {
	s := b.Size()
	return b.Min.Add(geom.V(rng.Float64()*s.X, rng.Float64()*s.Y, rng.Float64()*s.Z))
}

// randUnit returns a uniformly distributed unit vector.
func randUnit(rng *rand.Rand) geom.Vec3 {
	for {
		v := geom.V(rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64())
		if l := v.Len(); l > 1e-9 {
			return v.Scale(1 / l)
		}
	}
}
