package workload

import (
	"math"
	"math/rand"
	"testing"

	"scout/internal/dataset"
	"scout/internal/geom"
)

func lineDataset(length float64) *dataset.Dataset {
	// One straight guiding structure along +x.
	pts := []geom.Vec3{}
	for x := 0.0; x <= length; x += 10 {
		pts = append(pts, geom.V(x, 0, 0))
	}
	d := &dataset.Dataset{
		Name:  "line",
		World: geom.Box(geom.V(-10, -10, -10), geom.V(length+10, 10, 10)),
	}
	d.Structures = append(d.Structures, dataset.NewStructure(0, pts))
	return d
}

func TestParamsStep(t *testing.T) {
	p := Params{Volume: 80_000} // side ≈ 43.09
	side := p.Side()
	if !almostEq(side, math.Cbrt(80_000), 1e-9) {
		t.Errorf("Side = %v", side)
	}
	// Default overlap 0.05: step = 0.95 × side.
	if got := p.Step(); !almostEq(got, side*0.95, 1e-9) {
		t.Errorf("Step = %v", got)
	}
	// With a gap: step = side + gap.
	p.Gap = 25
	if got := p.Step(); !almostEq(got, side+25, 1e-9) {
		t.Errorf("Step with gap = %v", got)
	}
}

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestGenerateCubeSequence(t *testing.T) {
	ds := lineDataset(5000)
	p := Params{Queries: 25, Volume: 80_000, WindowRatio: 1, Jitter: -1}
	rng := rand.New(rand.NewSource(1))
	seq, err := Generate(ds, p, rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(seq.Queries) != 25 {
		t.Fatalf("queries = %d", len(seq.Queries))
	}
	step := p.Step()
	for i, q := range seq.Queries {
		// Centers on the guiding structure (y = z = 0).
		if math.Abs(q.Center.Y) > 1e-9 || math.Abs(q.Center.Z) > 1e-9 {
			t.Fatalf("query %d center off structure: %v", i, q.Center)
		}
		// Cube region of the right volume.
		if !almostEq(q.Region.Volume(), 80_000, 1) {
			t.Fatalf("query %d volume = %v", i, q.Region.Volume())
		}
		if i > 0 {
			// Euclidean stepping: the distance is at least step and at most
			// step plus one probe increment (side/16) on a straight path.
			d := q.Center.Dist(seq.Queries[i-1].Center)
			if d < step-1e-6 || d > step+p.Side()/8 {
				t.Fatalf("query %d step = %v, want ≈%v", i, d, step)
			}
		}
	}
	// Adjacent queries overlap when Gap = 0.
	a := seq.Queries[0].Region.Bounds()
	b := seq.Queries[1].Region.Bounds()
	if !a.Intersects(b) {
		t.Error("adjacent queries do not overlap")
	}
}

func TestGenerateWithGap(t *testing.T) {
	ds := lineDataset(8000)
	p := Params{Queries: 10, Volume: 30_000, Gap: 25}
	rng := rand.New(rand.NewSource(2))
	seq, err := Generate(ds, p, rng)
	if err != nil {
		t.Fatal(err)
	}
	// Consecutive cube regions must NOT touch (gap between them).
	for i := 1; i < len(seq.Queries); i++ {
		a := seq.Queries[i-1].Region.Bounds()
		b := seq.Queries[i].Region.Bounds()
		if a.Intersects(b) {
			t.Fatalf("queries %d,%d touch despite gap", i-1, i)
		}
	}
}

func TestGenerateFrustum(t *testing.T) {
	ds := lineDataset(8000)
	p := Params{Queries: 5, Volume: 30_000, Shape: FrustumShape}
	rng := rand.New(rand.NewSource(3))
	seq, err := Generate(ds, p, rng)
	if err != nil {
		t.Fatal(err)
	}
	for i, q := range seq.Queries {
		if _, ok := q.Region.(geom.Frustum); !ok {
			t.Fatalf("query %d region is not a frustum", i)
		}
		if got := q.Region.Volume(); math.Abs(got-30_000) > 30_000*0.05 {
			t.Fatalf("query %d frustum volume = %v", i, got)
		}
	}
}

func TestGeneratePingPongFallback(t *testing.T) {
	// Structure of 500 µm but a walk needing ~970: must still produce a
	// sequence, folded at the ends.
	ds := lineDataset(500)
	p := Params{Queries: 25, Volume: 80_000}
	rng := rand.New(rand.NewSource(4))
	seq, err := Generate(ds, p, rng)
	if err != nil {
		t.Fatal(err)
	}
	for i, q := range seq.Queries {
		if q.Center.X < -1 || q.Center.X > 501 {
			t.Fatalf("query %d escaped structure: %v", i, q.Center)
		}
	}
}

// TestPickWalkLongStructures: pickWalk draws uniformly among the structures
// long enough for the walk, with one rng.Intn over their count, exactly as
// indexing a filtered slice would.
func TestPickWalkLongStructures(t *testing.T) {
	ds := &dataset.Dataset{Name: "mixed"}
	for i, length := range []float64{10, 1000, 10, 2000} {
		ds.Structures = append(ds.Structures, dataset.NewStructure(int32(i),
			[]geom.Vec3{geom.V(0, 0, 0), geom.V(length, 0, 0)}))
	}
	for _, tc := range []struct {
		needed float64
		want   []int32
	}{
		{100, []int32{1, 3}},
		{1, []int32{0, 1, 2, 3}},
	} {
		seen := map[int32]bool{}
		for seed := int64(0); seed < 40; seed++ {
			s, _, _ := pickWalk(ds, Params{Volume: 1000}, tc.needed, rand.New(rand.NewSource(seed)))
			if want := tc.want[rand.New(rand.NewSource(seed)).Intn(len(tc.want))]; s.ID != want {
				t.Fatalf("needed %v, seed %d: picked structure %d, want %d", tc.needed, seed, s.ID, want)
			}
			seen[s.ID] = true
		}
		if len(seen) != len(tc.want) {
			t.Errorf("needed %v: picked %v over 40 seeds, want all of %v", tc.needed, seen, tc.want)
		}
	}
}

func TestGenerateErrors(t *testing.T) {
	ds := lineDataset(100)
	rng := rand.New(rand.NewSource(5))
	if _, err := Generate(ds, Params{Queries: 0, Volume: 100}, rng); err == nil {
		t.Error("zero queries accepted")
	}
	if _, err := Generate(ds, Params{Queries: 5, Volume: 0}, rng); err == nil {
		t.Error("zero volume accepted")
	}
	empty := &dataset.Dataset{Name: "empty"}
	if _, err := Generate(empty, Params{Queries: 5, Volume: 100}, rng); err == nil {
		t.Error("structureless dataset accepted")
	}
}

func TestGenerateManyDeterministic(t *testing.T) {
	ds := lineDataset(5000)
	p := Params{Queries: 10, Volume: 80_000}
	a, err := GenerateMany(ds, p, 5, 42)
	if err != nil {
		t.Fatal(err)
	}
	b, err := GenerateMany(ds, p, 5, 42)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != 5 || len(b) != 5 {
		t.Fatalf("lengths %d, %d", len(a), len(b))
	}
	for i := range a {
		for j := range a[i].Queries {
			if a[i].Queries[j].Center != b[i].Queries[j].Center {
				t.Fatal("same seed produced different sequences")
			}
		}
	}
}

func TestReflectArc(t *testing.T) {
	cases := []struct{ arc, length, want float64 }{
		{5, 10, 5},
		{15, 10, 5},  // reflected once
		{25, 10, 5},  // period wraps
		{-3, 10, 3},  // negative reflects
		{10, 10, 10}, // boundary
		{0, 0, 0},    // degenerate
	}
	for i, c := range cases {
		if got := reflectArc(c.arc, c.length); !almostEq(got, c.want, 1e-9) {
			t.Errorf("case %d: reflectArc(%v,%v) = %v, want %v", i, c.arc, c.length, got, c.want)
		}
	}
}

func TestMicrobenchmarkPresets(t *testing.T) {
	all := Microbenchmarks()
	if len(all) != 7 {
		t.Fatalf("presets = %d, want 7", len(all))
	}
	// Spot-check against Figure 10.
	mb := all[2] // Model Building
	if mb.Params.Queries != 35 || mb.Params.Volume != 20_000 ||
		mb.Params.Shape != Cube || mb.Params.WindowRatio != 2 {
		t.Errorf("model building params wrong: %+v", mb.Params)
	}
	vis := all[3]
	if vis.Params.Queries != 65 || vis.Params.Shape != FrustumShape {
		t.Errorf("visualization params wrong: %+v", vis.Params)
	}
	if got := len(NoGapMicrobenchmarks()); got != 5 {
		t.Errorf("no-gap presets = %d, want 5", got)
	}
	gaps := GapMicrobenchmarks()
	if len(gaps) != 2 {
		t.Fatalf("gap presets = %d, want 2", len(gaps))
	}
	for _, m := range gaps {
		if m.Params.Gap != 25 {
			t.Errorf("%s gap = %v, want 25", m.Name, m.Params.Gap)
		}
	}
}

func TestGenerateOnRealDataset(t *testing.T) {
	d := dataset.GenerateNeuro(dataset.NeuroConfig{NumObjects: 20_000, Seed: 11})
	for _, mb := range Microbenchmarks() {
		seqs, err := GenerateMany(d, mb.Params, 3, 7)
		if err != nil {
			t.Fatalf("%s: %v", mb.Name, err)
		}
		for _, s := range seqs {
			if len(s.Queries) != mb.Params.Queries {
				t.Fatalf("%s: got %d queries", mb.Name, len(s.Queries))
			}
			for _, q := range s.Queries {
				if !q.Center.IsFinite() {
					t.Fatalf("%s: non-finite center", mb.Name)
				}
			}
		}
	}
}

func TestShapeString(t *testing.T) {
	if Cube.String() != "Cube" || FrustumShape.String() != "Frustum" {
		t.Error("Shape.String wrong")
	}
}
