package dataset

import (
	"math/rand"

	"scout/internal/geom"
	"scout/internal/pagestore"
)

// RoadConfig parameterizes the synthetic road network standing in for the
// paper's North America dataset [15] (7.2M 2D line segments). The network
// is a jittered lattice of local roads plus a few long highways; guiding
// structures are realistic routes: lattice walks with a strong bias to keep
// heading straight.
type RoadConfig struct {
	// GridNodes is the lattice size per axis; segment count ≈ 2·GridNodes².
	GridNodes int
	// Routes is the number of guiding structures to record.
	Routes int
	// RouteLen is the number of lattice hops per route.
	RouteLen int
	Seed     int64
}

// The road network's lattice: its pitch in µm (any length unit works; µm
// keeps the codebase unit-consistent), the node displacement of up to
// ±roadJitter·roadSpacing, and the number of long diagonal routes overlaid
// on the grid.
const (
	roadSpacing  = 50.0
	roadJitter   = 0.25
	roadHighways = 8
)

// DefaultRoadConfig scales the paper's 7.2M segments to 500k (≈1/14).
func DefaultRoadConfig() RoadConfig {
	return RoadConfig{
		GridNodes: 500,
		Routes:    256,
		RouteLen:  120,
		Seed:      3,
	}
}

// SmallRoadConfig is a fast configuration for tests and examples.
func SmallRoadConfig() RoadConfig {
	cfg := DefaultRoadConfig()
	cfg.GridNodes = 120
	cfg.Routes = 64
	cfg.RouteLen = 60
	return cfg
}

// GenerateRoad builds the synthetic road-network dataset. Roads live in the
// z = 0 plane; the world box is given a small vertical thickness so 3D
// machinery (grids, cubes) remains well-defined.
func GenerateRoad(cfg RoadConfig) *Dataset {
	if cfg.GridNodes < 2 {
		panic("dataset: GridNodes must be >= 2")
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	n := cfg.GridNodes
	side := float64(n-1) * roadSpacing

	// Jittered node positions.
	nodes := make([]geom.Vec3, n*n)
	at := func(i, j int) int { return j*n + i }
	for j := 0; j < n; j++ {
		for i := 0; i < n; i++ {
			jx := (rng.Float64()*2 - 1) * roadJitter * roadSpacing
			jy := (rng.Float64()*2 - 1) * roadJitter * roadSpacing
			nodes[at(i, j)] = geom.V(float64(i)*roadSpacing+jx, float64(j)*roadSpacing+jy, 0)
		}
	}

	d := &Dataset{
		Name:  "road",
		World: geom.Box(geom.V(-roadSpacing, -roadSpacing, -1), geom.V(side+roadSpacing, side+roadSpacing, 1)),
	}
	// Horizontal and vertical lattice edges.
	for j := 0; j < n; j++ {
		for i := 0; i < n; i++ {
			if i+1 < n {
				d.Objects = append(d.Objects, pagestore.Object{
					Seg: geom.Seg(nodes[at(i, j)], nodes[at(i+1, j)]), Struct: 0,
				})
			}
			if j+1 < n {
				d.Objects = append(d.Objects, pagestore.Object{
					Seg: geom.Seg(nodes[at(i, j)], nodes[at(i, j+1)]), Struct: 1,
				})
			}
		}
	}
	// Highways: long jittered diagonals crossing the map.
	for h := 0; h < roadHighways; h++ {
		i, j := rng.Intn(n), 0
		di := []int{-1, 0, 1}[rng.Intn(3)]
		prev := nodes[at(i, j)]
		var pts []geom.Vec3
		pts = append(pts, prev)
		for j+1 < n {
			j++
			i += di
			if i < 0 {
				i = 0
				di = 1
			}
			if i >= n {
				i = n - 1
				di = -1
			}
			cur := nodes[at(i, j)]
			d.Objects = append(d.Objects, pagestore.Object{
				Seg: geom.Seg(prev, cur), Struct: 2,
			})
			pts = append(pts, cur)
			prev = cur
		}
		d.Structures = append(d.Structures, NewStructure(int32(len(d.Structures)), pts))
	}

	// Routes: straight-biased lattice walks.
	dirs := [4][2]int{{1, 0}, {-1, 0}, {0, 1}, {0, -1}}
	for r := 0; r < cfg.Routes; r++ {
		i := rng.Intn(n)
		j := rng.Intn(n)
		dir := rng.Intn(4)
		pts := []geom.Vec3{nodes[at(i, j)]}
		for hop := 0; hop < cfg.RouteLen; hop++ {
			// 75% keep straight, else turn left/right (never U-turn):
			// switch to the perpendicular axis pair.
			if rng.Float64() > 0.75 {
				if dir < 2 {
					dir = 2 + rng.Intn(2)
				} else {
					dir = rng.Intn(2)
				}
			}
			ni, nj := i+dirs[dir][0], j+dirs[dir][1]
			if ni < 0 || ni >= n || nj < 0 || nj >= n {
				// Bounce off the map edge.
				dir ^= 1 // opposite direction within the axis pair
				continue
			}
			i, j = ni, nj
			pts = append(pts, nodes[at(i, j)])
		}
		if len(pts) >= 2 {
			d.Structures = append(d.Structures, NewStructure(int32(len(d.Structures)), pts))
		}
	}
	return d
}
