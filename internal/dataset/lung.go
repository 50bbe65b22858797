package dataset

import (
	"math"
	"math/rand"

	"scout/internal/geom"
	"scout/internal/pagestore"
)

// LungConfig parameterizes the synthetic lung-airway model standing in for
// the paper's human airway dataset [1] (7.1M surface triangles). Airways
// are generated as a fractal bifurcating tree of tubes whose surfaces are
// triangulated; face adjacency is recorded explicitly, exercising SCOUT's
// polygon-mesh path ("SCOUT can easily extract a graph with vertices
// represented by polygon faces and edges connecting adjacent polygon
// faces", §4.2). NumObjects counts triangles.
type LungConfig struct {
	NumObjects int
	Seed       int64
}

// lungShape is the airway tree's morphology: two trees (Roots), the left and
// right lung.
var lungShape = vesselShape{
	Roots:       2,
	TrunkLen:    300,
	LenDecay:    0.82,
	SegLen:      10,
	Radius0:     18,
	RadiusDecay: 0.75,
	BranchAngle: 0.55,
	Tortuosity:  0.03,
}

// lungSectors is the number of triangle pairs around each tube ring.
const lungSectors = 6

// DefaultLungConfig scales the paper's 7.1M triangles to 250k (≈1/28).
func DefaultLungConfig() LungConfig {
	return LungConfig{NumObjects: 250_000, Seed: 4}
}

// SmallLungConfig is a fast configuration for tests and examples.
func SmallLungConfig() LungConfig {
	cfg := DefaultLungConfig()
	cfg.NumObjects = 50_000
	return cfg
}

// GenerateLung builds the synthetic lung-airway mesh dataset.
func GenerateLung(cfg LungConfig) *Dataset {
	if cfg.NumObjects <= 0 {
		panic("dataset: NumObjects must be positive")
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	half := lungShape.TrunkLen / (1 - lungShape.LenDecay) * 0.95
	world := geom.Box(geom.V(-half, -half, -half), geom.V(half, half, half))

	const S = lungSectors
	d := &Dataset{Name: "lung", World: world}
	// The last step may overshoot the budget by up to a ring of triangles.
	d.Objects = make([]pagestore.Object, 0, cfg.NumObjects+2*S)
	d.Adjacency = make([][]pagestore.ObjectID, 0, cfg.NumObjects+2*S)
	// Every triangle has at most four face neighbours: its adjacency row is
	// cut from one backing array, four slots each, capped so a fifth
	// neighbour would reallocate rather than write into the next row.
	slots := make([]pagestore.ObjectID, 4*(cfg.NumObjects+2*S))
	row := func(id int) []pagestore.ObjectID { return slots[4*id : 4*id : 4*id+4] }
	connect := func(a, b pagestore.ObjectID) {
		d.Adjacency[a] = append(d.Adjacency[a], b)
		d.Adjacency[b] = append(d.Adjacency[b], a)
	}

	// Each step triangulates the tube between the previous ring of S
	// vertices around the skeleton and the next one.
	prev, ring := make([]geom.Vec3, S), make([]geom.Vec3, S)
	d.Structures = growVessels(rng, world, lungShape, cfg.NumObjects, &d.Objects,
		func() (geom.Vec3, geom.Vec3) {
			return randPointIn(rng, world.ScaledAbout(0.6)), randUnit(rng)
		},
		func(b *vessel, s int, pos, next, dir geom.Vec3) {
			if s == 0 {
				ringPoints(prev, pos, b.dir, b.radius)
			}
			ringPoints(ring, next, dir, b.radius)
			// Two triangles per sector: A_j = (p[j], p[j+1], q[j]) at
			// base+2j and B_j = (p[j+1], q[j+1], q[j]) at base+2j+1.
			base := pagestore.ObjectID(len(d.Objects))
			tri := func(k int) pagestore.ObjectID { return base + pagestore.ObjectID(k) }
			for j := range S {
				j1 := (j + 1) % S
				d.Objects = append(d.Objects,
					triObject(prev[j], prev[j1], ring[j], b.gen),
					triObject(prev[j1], ring[j1], ring[j], b.gen))
				id := len(d.Adjacency)
				d.Adjacency = append(d.Adjacency, row(id), row(id+1))
			}
			for j := range S {
				connect(tri(2*j), tri(2*j+1))         // share edge (p[j+1], q[j])
				connect(tri(2*j+1), tri(2*((j+1)%S))) // share edge (p[j+1], q[j+1])
				if s > 0 {
					connect(tri(2*j+1)-pagestore.ObjectID(2*S), tri(2*j)) // the previous step's B_j: edge (p[j], p[j+1])
				}
			}
			if s == 0 && b.parent != nil {
				// Stitch to the B triangles of the parent's last ring.
				for j := range S {
					connect(b.parent.tail+pagestore.ObjectID(2*j+1), tri(2*j))
				}
			}
			prev, ring = ring, prev
		})
	return d
}

// ringPoints places len(pts) points on a circle of the given radius around
// center, in the plane perpendicular to dir.
func ringPoints(pts []geom.Vec3, center, dir geom.Vec3, radius float64) {
	u, w := dir.Orthonormal()
	n := len(pts)
	for i := range pts {
		a := 2 * math.Pi * float64(i) / float64(n)
		pts[i] = center.Add(u.Scale(radius * math.Cos(a))).Add(w.Scale(radius * math.Sin(a)))
	}
}

// triObject reduces triangle abc to its stored simplification: the longest
// edge as the segment, with a radius covering the third vertex, so the
// object's bounds conservatively contain the whole triangle.
func triObject(a, b, c geom.Vec3, structID int32) pagestore.Object {
	edges := [3]geom.Segment{geom.Seg(a, b), geom.Seg(b, c), geom.Seg(c, a)}
	opposite := [3]geom.Vec3{c, a, b}
	best := 0
	for i := 1; i < 3; i++ {
		if edges[i].Len() > edges[best].Len() {
			best = i
		}
	}
	return pagestore.Object{
		Seg:    edges[best],
		Radius: edges[best].DistToPoint(opposite[best]),
		Struct: structID,
	}
}
