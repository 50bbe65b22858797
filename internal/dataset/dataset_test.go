package dataset

import (
	"math"
	"math/rand"
	"testing"

	"scout/internal/geom"
)

func TestStructureArcLength(t *testing.T) {
	s := NewStructure(0, []geom.Vec3{
		geom.V(0, 0, 0), geom.V(3, 0, 0), geom.V(3, 4, 0),
	})
	if s.Length() != 7 {
		t.Errorf("Length = %v", s.Length())
	}
	p, dir := s.PointAt(1.5)
	if !vecAlmostEq(p, geom.V(1.5, 0, 0), 1e-9) || !vecAlmostEq(dir, geom.V(1, 0, 0), 1e-9) {
		t.Errorf("PointAt(1.5) = %v, %v", p, dir)
	}
	p, dir = s.PointAt(5)
	if !vecAlmostEq(p, geom.V(3, 2, 0), 1e-9) || !vecAlmostEq(dir, geom.V(0, 1, 0), 1e-9) {
		t.Errorf("PointAt(5) = %v, %v", p, dir)
	}
	// Clamping.
	p, _ = s.PointAt(-1)
	if !vecAlmostEq(p, geom.V(0, 0, 0), 1e-9) {
		t.Errorf("PointAt(-1) = %v", p)
	}
	p, _ = s.PointAt(100)
	if !vecAlmostEq(p, geom.V(3, 4, 0), 1e-9) {
		t.Errorf("PointAt(100) = %v", p)
	}
}

func TestStructurePointAtMonotone(t *testing.T) {
	s := NewStructure(0, []geom.Vec3{
		geom.V(0, 0, 0), geom.V(1, 1, 0), geom.V(2, 0, 0), geom.V(3, 1, 1),
	})
	prevDist := -1.0
	var prev geom.Vec3
	for d := 0.0; d <= s.Length(); d += 0.1 {
		p, _ := s.PointAt(d)
		if prevDist >= 0 {
			step := p.Dist(prev)
			if step > 0.11 {
				t.Fatalf("jump of %v at arc %v", step, d)
			}
		}
		prev = p
		prevDist = d
	}
}

func vecAlmostEq(a, b geom.Vec3, tol float64) bool {
	return math.Abs(a.X-b.X) <= tol && math.Abs(a.Y-b.Y) <= tol && math.Abs(a.Z-b.Z) <= tol
}

func checkDataset(t *testing.T, d *Dataset, wantObjects int, tolerance float64) {
	t.Helper()
	n := len(d.Objects)
	if math.Abs(float64(n-wantObjects)) > float64(wantObjects)*tolerance {
		t.Errorf("%s: %d objects, want ≈%d", d.Name, n, wantObjects)
	}
	// All objects inside (or very near) the world.
	grown := d.World.Inflate(d.World.Size().X * 0.05)
	for i, o := range d.Objects {
		if !grown.ContainsBox(o.Seg.Bounds()) {
			t.Fatalf("%s: object %d outside world: %v", d.Name, i, o.Seg)
		}
	}
	if len(d.Structures) == 0 {
		t.Fatalf("%s: no structures", d.Name)
	}
	// Structure points lie within the world.
	for _, s := range d.Structures {
		if len(s.Points) < 2 {
			t.Fatalf("%s: structure %d too short", d.Name, s.ID)
		}
		for _, p := range s.Points {
			if !grown.Contains(p) {
				t.Fatalf("%s: structure %d point outside world", d.Name, s.ID)
			}
		}
	}
}

// countLong returns how many of d's structures are at least minLen long.
func countLong(d *Dataset, minLen float64) int {
	n := 0
	for _, s := range d.Structures {
		if s.Length() >= minLen {
			n++
		}
	}
	return n
}

func TestGenerateNeuro(t *testing.T) {
	cfg := SmallNeuroConfig()
	d := GenerateNeuro(cfg)
	checkDataset(t, d, cfg.NumObjects, 0.02)
	if d.Adjacency != nil {
		t.Error("neuro should not have explicit adjacency")
	}
	// Structures must be long enough for guided sequences (25 queries of
	// ~43 µm sides need ≈1000 µm).
	if countLong(d, 1000) == 0 {
		t.Error("no structure ≥ 1000 µm")
	}
	// Density must be near the configured value.
	density := float64(len(d.Objects)) / d.World.Volume()
	if density < cfg.Density/2 || density > cfg.Density*2 {
		t.Errorf("density %v, configured %v", density, cfg.Density)
	}
}

func TestGenerateNeuroDeterministic(t *testing.T) {
	cfg := DefaultNeuroConfig()
	cfg.NumObjects, cfg.Seed = 5000, 7
	a := GenerateNeuro(cfg)
	b := GenerateNeuro(cfg)
	if len(a.Objects) != len(b.Objects) {
		t.Fatal("object counts differ")
	}
	for i := range a.Objects {
		if a.Objects[i].Seg != b.Objects[i].Seg {
			t.Fatalf("object %d differs", i)
		}
	}
	cfg.Seed = 8
	c := GenerateNeuro(cfg)
	same := true
	for i := range a.Objects {
		if i < len(c.Objects) && a.Objects[i].Seg != c.Objects[i].Seg {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical data")
	}
}

func TestGenerateArtery(t *testing.T) {
	cfg := SmallArteryConfig()
	d := GenerateArtery(cfg)
	checkDataset(t, d, cfg.NumObjects, 0.05)
	// Arteries are smooth: mean angle between consecutive structure
	// tangents must be small.
	s := d.Structures[0]
	var angleSum float64
	var count int
	for i := 2; i < len(s.Points); i++ {
		a := s.Points[i-1].Sub(s.Points[i-2]).Normalize()
		b := s.Points[i].Sub(s.Points[i-1]).Normalize()
		dot := a.Dot(b)
		if dot > 1 {
			dot = 1
		}
		if dot < -1 {
			dot = -1
		}
		angleSum += math.Acos(dot)
		count++
	}
	mean := angleSum / float64(count)
	// The path contains bifurcation turns, but the running average must
	// stay below ~0.12 radians for a smooth tree.
	if mean > 0.12 {
		t.Errorf("artery not smooth: mean turn %v rad", mean)
	}
}

func TestGenerateRoad(t *testing.T) {
	cfg := SmallRoadConfig()
	d := GenerateRoad(cfg)
	wantEdges := 2*cfg.GridNodes*(cfg.GridNodes-1) + roadHighways*(cfg.GridNodes-1)
	if math.Abs(float64(len(d.Objects)-wantEdges)) > float64(wantEdges)/10 {
		t.Errorf("road objects = %d, want ≈%d", len(d.Objects), wantEdges)
	}
	checkDataset(t, d, len(d.Objects), 0)
	// Roads are planar.
	for _, o := range d.Objects {
		if o.Seg.A.Z != 0 || o.Seg.B.Z != 0 {
			t.Fatal("road off plane")
		}
	}
	// Routes should be long (≥ 10 hops × spacing).
	if long := countLong(d, 10*roadSpacing); long < cfg.Routes/2 {
		t.Errorf("only %d long routes", long)
	}
}

func TestGenerateLung(t *testing.T) {
	cfg := SmallLungConfig()
	d := GenerateLung(cfg)
	checkDataset(t, d, cfg.NumObjects, 0.05)
	if d.Adjacency == nil {
		t.Fatal("lung must have explicit adjacency")
	}
	if len(d.Adjacency) != len(d.Objects) {
		t.Fatalf("adjacency size %d != objects %d", len(d.Adjacency), len(d.Objects))
	}
	// Adjacency is symmetric and non-self.
	for id, ns := range d.Adjacency {
		for _, m := range ns {
			if int(m) == id {
				t.Fatal("self adjacency")
			}
			found := false
			for _, back := range d.Adjacency[m] {
				if int(back) == id {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("asymmetric adjacency %d→%d", id, m)
			}
		}
	}
	// Mesh degree: interior triangles have ≥ 2 neighbors; average near 3.
	var degSum int
	for _, ns := range d.Adjacency {
		degSum += len(ns)
	}
	avg := float64(degSum) / float64(len(d.Adjacency))
	if avg < 2.4 || avg > 4.0 {
		t.Errorf("mean adjacency degree %v, want ≈3", avg)
	}
	// Adjacent triangles are spatially close (shared edge ⇒ near-zero
	// distance between stored segments).
	for id := 0; id < len(d.Adjacency); id += 97 {
		for _, m := range d.Adjacency[id] {
			a := d.Objects[id].Seg
			b := d.Objects[m].Seg
			maxReach := d.Objects[id].Radius + d.Objects[m].Radius +
				a.Len() + b.Len()
			if dist := a.DistToSegment(b); dist > maxReach {
				t.Fatalf("adjacent triangles %d,%d are %v apart", id, m, dist)
			}
		}
	}
}

func TestDatasetStatsString(t *testing.T) {
	d := GenerateRoad(SmallRoadConfig())
	s := d.Stats()
	if s == "" {
		t.Error("empty stats")
	}
}

func TestWorldForDensity(t *testing.T) {
	w := worldForDensity(1000, 0.001) // 1000 objects at 1e-3/µm³ → 1e6 µm³
	if !almostEq(w.Volume(), 1e6, 1) {
		t.Errorf("volume = %v", w.Volume())
	}
}

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestPerturbDirUnit(t *testing.T) {
	rngDirs := []geom.Vec3{geom.V(1, 0, 0), geom.V(0, 0, 1), geom.V(1, 1, 1).Normalize()}
	r := newTestRand()
	for _, d := range rngDirs {
		for i := 0; i < 100; i++ {
			p := perturbDir(r, d, 0.2)
			if !almostEq(p.Len(), 1, 1e-9) {
				t.Fatalf("perturbed dir not unit: %v", p.Len())
			}
		}
	}
	// Zero tortuosity leaves the direction unchanged.
	d := geom.V(1, 0, 0)
	if got := perturbDir(r, d, 0); !vecAlmostEq(got, d, 1e-12) {
		t.Errorf("zero tortuosity changed dir: %v", got)
	}
}

func newTestRand() *rand.Rand { return rand.New(rand.NewSource(99)) }
