// Package workload generates guided spatial query sequences: sequences of
// range queries whose locations follow a guiding structure, exactly the
// query pattern the paper targets ("a sequence of n three dimensional
// spatial range queries whose locations are determined by a guiding
// structure", §1). It also defines the microbenchmark presets of Figure 10.
package workload

import (
	"fmt"
	"math"
	"math/rand"

	"scout/internal/dataset"
	"scout/internal/geom"
)

// Shape selects the query region geometry.
type Shape int

const (
	// Cube queries have an aspect ratio of 1 (Figure 10, "Cube").
	Cube Shape = iota
	// FrustumShape queries are view frusta, used by the walkthrough-
	// visualization use case (Figure 10, "Frustum").
	FrustumShape
)

// String names the shape as Figure 10 does.
func (s Shape) String() string {
	if s == FrustumShape {
		return "Frustum"
	}
	return "Cube"
}

// Params describes one guided-sequence workload, mirroring the columns of
// Figure 10.
type Params struct {
	// Queries is the sequence length (number of range queries).
	Queries int
	// Volume is the per-query volume in µm³.
	Volume float64
	// Shape is the query geometry (cube or frustum).
	Shape Shape
	// Gap is the distance in µm between consecutive query regions; 0 means
	// adjacent queries with slight overlap.
	Gap float64
	// Overlap is the fractional overlap of adjacent queries when Gap is 0;
	// the paper's queries are "slightly overlapping" (§1).
	Overlap float64
	// Jitter displaces each query center laterally (perpendicular to the
	// walk) by a uniform offset of up to Jitter × side. It models the user
	// aiming queries at the structure by eye ("based on the current query
	// result, the user decides where to go next", §1): the structure stays
	// inside the query, but the center sequence is noisy. Negative
	// disables; zero means the default.
	Jitter float64
	// WindowRatio is the prefetch window ratio r = u/d of §7.2: user
	// analysis time over cold disk-retrieval time. r ≤ 1 is I/O bound,
	// r > 1 CPU bound.
	WindowRatio float64
}

// withDefaults fills unset optional fields.
func (p Params) withDefaults() Params {
	if p.Overlap <= 0 {
		p.Overlap = 0.05
	}
	if p.WindowRatio <= 0 {
		p.WindowRatio = 1
	}
	if p.Jitter == 0 {
		p.Jitter = 0.35
	}
	if p.Jitter < 0 {
		p.Jitter = 0
	}
	return p
}

// Side returns the cube side length corresponding to the query volume.
func (p Params) Side() float64 { return math.Cbrt(p.Volume) }

// Step returns the distance between consecutive query centers: one side
// minus overlap, plus the gap.
func (p Params) Step() float64 {
	p = p.withDefaults()
	if p.Gap > 0 {
		return p.Side() + p.Gap
	}
	return p.Side() * (1 - p.Overlap)
}

// Query is one range query of a sequence.
type Query struct {
	Region geom.Region
	Center geom.Vec3
	// Dir is the walking direction at this query (tangent of the guiding
	// structure), used to orient frustum queries.
	Dir geom.Vec3
}

// Sequence is one guided spatial query sequence.
type Sequence struct {
	Queries  []Query
	StructID int32
	Params   Params
}

// Generate produces one guided sequence by walking a randomly chosen
// guiding structure of the dataset. Structures long enough to host the whole
// walk are preferred; if none exists, the walk ping-pongs at the structure's
// ends (the scientist reverses direction), which the paper's candidate
// pruning tolerates since the structure being followed does not change.
func Generate(ds *dataset.Dataset, p Params, rng *rand.Rand) (Sequence, error) {
	p = p.withDefaults()
	if p.Queries < 1 {
		return Sequence{}, fmt.Errorf("workload: sequence needs ≥1 query, got %d", p.Queries)
	}
	if p.Volume <= 0 {
		return Sequence{}, fmt.Errorf("workload: non-positive query volume %v", p.Volume)
	}
	if len(ds.Structures) == 0 {
		return Sequence{}, fmt.Errorf("workload: dataset %q has no structures", ds.Name)
	}
	needed := p.Step()*float64(p.Queries-1) + p.Side()

	s, start, dir := pickWalk(ds, p, needed, rng)
	seq := Sequence{StructID: s.ID, Params: p}
	arc := start
	var prevOnPath geom.Vec3
	for i := 0; i < p.Queries; i++ {
		if i > 0 {
			// Advance along the structure until the next query region is
			// adjacent to the previous one IN SPACE: queries are "adjacent
			// to each other, slightly overlapping or with small gaps" (§1).
			// A tortuous structure covers little Euclidean distance per arc
			// length, so the arc advance adapts per step.
			arc = advanceEuclidean(s, arc, dir, prevOnPath, p.Step(), p.Side())
		}
		center, tangent := s.PointAt(reflectArc(arc, s.Length()))
		prevOnPath = center
		if dir < 0 {
			tangent = tangent.Neg()
		}
		if p.Jitter > 0 {
			u, w := tangent.Orthonormal()
			j1 := (rng.Float64()*2 - 1) * p.Jitter * p.Side()
			j2 := (rng.Float64()*2 - 1) * p.Jitter * p.Side()
			center = center.Add(u.Scale(j1)).Add(w.Scale(j2))
		}
		seq.Queries = append(seq.Queries, makeQuery(p, center, tangent))
	}
	return seq, nil
}

// advanceEuclidean walks the polyline from arc position `arc` in direction
// dir until the point is `step` away (straight-line distance) from the
// previous on-path point, probing in small arc increments. The advance is
// capped so a tightly coiled structure cannot stall the walk forever.
func advanceEuclidean(s dataset.Structure, arc, dir float64, from geom.Vec3, step, side float64) float64 {
	probe := side / 16
	if probe <= 0 {
		probe = step / 16
	}
	maxArc := arc + dir*step*6
	for a := arc + dir*probe; ; a += dir * probe {
		pt, _ := s.PointAt(reflectArc(a, s.Length()))
		if pt.Dist(from) >= step {
			return a
		}
		if (dir > 0 && a >= maxArc) || (dir < 0 && a <= maxArc) {
			return maxArc
		}
	}
}

// GenerateMany produces count sequences with a deterministic seed.
func GenerateMany(ds *dataset.Dataset, p Params, count int, seed int64) ([]Sequence, error) {
	rng := rand.New(rand.NewSource(seed))
	out := make([]Sequence, 0, count)
	for i := 0; i < count; i++ {
		s, err := Generate(ds, p, rng)
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	return out, nil
}

// pickWalk chooses a structure, start arc position and walk direction (±1).
// It draws uniformly among the structures at least needed long, counting
// them first and then taking the drawn one in place, so no per-walk slice of
// structures is built.
func pickWalk(ds *dataset.Dataset, p Params, needed float64, rng *rand.Rand) (dataset.Structure, float64, float64) {
	long := 0
	for _, s := range ds.Structures {
		if s.Length() >= needed {
			long++
		}
	}
	if long > 0 {
		k := rng.Intn(long)
		var s dataset.Structure
		for _, s = range ds.Structures {
			if s.Length() >= needed {
				if k == 0 {
					break
				}
				k--
			}
		}
		slack := s.Length() - needed
		start := p.Side()/2 + rng.Float64()*slack
		if rng.Intn(2) == 0 {
			return s, start, 1
		}
		return s, s.Length() - start, -1
	}
	// Fallback: longest structure, ping-pong walk.
	best := ds.Structures[0]
	for _, s := range ds.Structures[1:] {
		if s.Length() > best.Length() {
			best = s
		}
	}
	start := rng.Float64() * best.Length()
	dir := 1.0
	if rng.Intn(2) == 0 {
		dir = -1
	}
	return best, start, dir
}

// reflectArc folds an arc position into [0, length] by reflection.
func reflectArc(arc, length float64) float64 {
	if length <= 0 {
		return 0
	}
	period := 2 * length
	arc = math.Mod(arc, period)
	if arc < 0 {
		arc += period
	}
	if arc > length {
		arc = period - arc
	}
	return arc
}

// makeQuery builds the query region at a center with the walk tangent.
func makeQuery(p Params, center, tangent geom.Vec3) Query {
	q := Query{Center: center, Dir: tangent}
	switch p.Shape {
	case FrustumShape:
		// The frustum looks along the walk direction; the eye sits behind
		// the center so the frustum volume brackets it, enclosing what the
		// user sees next (§7.2.3).
		up := geom.V(0, 0, 1)
		if math.Abs(tangent.Z) > 0.9 {
			up = geom.V(1, 0, 0)
		}
		f := geom.FrustumWithVolume(center, tangent, up, 1.0, 1.3, p.Volume)
		// Shift so the frustum centroid lands on the walk point: centroid
		// is roughly 70% toward the far plane.
		depth := f.Bounds().Size().Dot(tangent.Abs())
		f = geom.FrustumWithVolume(center.Sub(tangent.Scale(depth*0.6)), tangent, up, 1.0, 1.3, p.Volume)
		q.Region = f
	default:
		q.Region = geom.CubeAt(center, p.Volume)
	}
	return q
}

// Microbenchmark is one named preset of Figure 10.
type Microbenchmark struct {
	Name   string
	Params Params
}

// Microbenchmarks returns the seven presets of Figure 10, in table order.
// The parameters — sequence length, query volume, shape, gap distance and
// prefetch window ratio — are copied verbatim from the paper.
func Microbenchmarks() []Microbenchmark {
	return []Microbenchmark{
		{"Ad-hoc Queries (Stat. Analysis)", Params{Queries: 25, Volume: 80_000, Shape: Cube, Gap: 0, WindowRatio: 0.8}},
		{"Ad-hoc Queries (Pattern Matching)", Params{Queries: 25, Volume: 80_000, Shape: Cube, Gap: 0, WindowRatio: 1.4}},
		{"Model Building", Params{Queries: 35, Volume: 20_000, Shape: Cube, Gap: 0, WindowRatio: 2}},
		{"Visualization (Low Quality)", Params{Queries: 65, Volume: 30_000, Shape: FrustumShape, Gap: 0, WindowRatio: 1.2}},
		{"Visualization (High Quality)", Params{Queries: 65, Volume: 30_000, Shape: FrustumShape, Gap: 0, WindowRatio: 1.6}},
		{"Visualization with Gaps (High Quality)", Params{Queries: 65, Volume: 30_000, Shape: FrustumShape, Gap: 25, WindowRatio: 1.2}},
		{"Visualization with Gaps (Low Quality)", Params{Queries: 65, Volume: 30_000, Shape: FrustumShape, Gap: 25, WindowRatio: 1.6}},
	}
}

// NoGapMicrobenchmarks returns the five presets without gaps (Figure 11).
func NoGapMicrobenchmarks() []Microbenchmark {
	all := Microbenchmarks()
	var out []Microbenchmark
	for _, m := range all {
		if m.Params.Gap == 0 {
			out = append(out, m)
		}
	}
	return out
}

// GapMicrobenchmarks returns the two gap presets (Figure 12).
func GapMicrobenchmarks() []Microbenchmark {
	all := Microbenchmarks()
	var out []Microbenchmark
	for _, m := range all {
		if m.Params.Gap > 0 {
			out = append(out, m)
		}
	}
	return out
}
