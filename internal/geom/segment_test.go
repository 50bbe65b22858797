package geom

import (
	"math"
	"math/rand"
	"testing"
)

func TestSegmentBasics(t *testing.T) {
	s := Seg(V(0, 0, 0), V(10, 0, 0))
	if s.Len() != 10 {
		t.Errorf("Len = %v", s.Len())
	}
	if s.Midpoint() != V(5, 0, 0) {
		t.Errorf("Midpoint = %v", s.Midpoint())
	}
	if s.At(0.25) != V(2.5, 0, 0) {
		t.Errorf("At = %v", s.At(0.25))
	}
	if s.Bounds() != Box(V(0, 0, 0), V(10, 0, 0)) {
		t.Errorf("Bounds = %v", s.Bounds())
	}
}

func TestSegmentClosestPoint(t *testing.T) {
	s := Seg(V(0, 0, 0), V(10, 0, 0))
	cases := []struct {
		p, want Vec3
	}{
		{V(5, 3, 0), V(5, 0, 0)},
		{V(-5, 3, 0), V(0, 0, 0)},  // clamped to A
		{V(15, 3, 0), V(10, 0, 0)}, // clamped to B
	}
	for i, c := range cases {
		if got := s.ClosestPoint(c.p); !vecAlmostEq(got, c.want, 1e-12) {
			t.Errorf("case %d: ClosestPoint = %v, want %v", i, got, c.want)
		}
	}
	// Degenerate segment.
	d := Seg(V(1, 1, 1), V(1, 1, 1))
	if got := d.ClosestPoint(V(5, 5, 5)); got != V(1, 1, 1) {
		t.Errorf("degenerate ClosestPoint = %v", got)
	}
}

func TestSegmentDistToSegment(t *testing.T) {
	cases := []struct {
		a, b Segment
		want float64
	}{
		// Parallel horizontal segments 3 apart.
		{Seg(V(0, 0, 0), V(10, 0, 0)), Seg(V(0, 3, 0), V(10, 3, 0)), 3},
		// Crossing (skew) perpendicular segments 2 apart in z.
		{Seg(V(-5, 0, 0), V(5, 0, 0)), Seg(V(0, -5, 2), V(0, 5, 2)), 2},
		// Intersecting segments.
		{Seg(V(-1, 0, 0), V(1, 0, 0)), Seg(V(0, -1, 0), V(0, 1, 0)), 0},
		// Collinear, disjoint: endpoint gap 4.
		{Seg(V(0, 0, 0), V(1, 0, 0)), Seg(V(5, 0, 0), V(6, 0, 0)), 4},
		// Point to segment.
		{Seg(V(0, 5, 0), V(0, 5, 0)), Seg(V(-10, 0, 0), V(10, 0, 0)), 5},
		// Point to point.
		{Seg(V(0, 0, 0), V(0, 0, 0)), Seg(V(3, 4, 0), V(3, 4, 0)), 5},
	}
	for i, c := range cases {
		if got := c.a.DistToSegment(c.b); !almostEq(got, c.want, 1e-9) {
			t.Errorf("case %d: dist = %v, want %v", i, got, c.want)
		}
		// Symmetry.
		if got := c.b.DistToSegment(c.a); !almostEq(got, c.want, 1e-9) {
			t.Errorf("case %d: reversed dist = %v, want %v", i, got, c.want)
		}
	}
}

// Property: segment-segment distance is a lower bound on all sampled
// pointwise distances and matches their infimum within tolerance.
func TestSegmentDistProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 300; i++ {
		a := Seg(randVec(rng, 10), randVec(rng, 10))
		b := Seg(randVec(rng, 10), randVec(rng, 10))
		d := a.DistToSegment(b)
		minSampled := math.Inf(1)
		const n = 25
		for i := 0; i <= n; i++ {
			pa := a.At(float64(i) / n)
			for j := 0; j <= n; j++ {
				if ds := pa.Dist(b.At(float64(j) / n)); ds < minSampled {
					minSampled = ds
				}
			}
		}
		if d > minSampled+1e-9 {
			t.Fatalf("distance %v above sampled min %v (a=%v b=%v)", d, minSampled, a, b)
		}
		if minSampled-d > 0.2 { // coarse sampling tolerance
			t.Fatalf("distance %v far below sampled min %v (a=%v b=%v)", d, minSampled, a, b)
		}
	}
}

func randVec(rng *rand.Rand, scale float64) Vec3 {
	return V(rng.Float64()*scale, rng.Float64()*scale, rng.Float64()*scale)
}

func TestSegmentIntersectsAABB(t *testing.T) {
	b := Box(V(0, 0, 0), V(10, 10, 10))
	cases := []struct {
		s    Segment
		want bool
	}{
		{Seg(V(-5, 5, 5), V(15, 5, 5)), true},      // threads through
		{Seg(V(1, 1, 1), V(2, 2, 2)), true},        // fully inside
		{Seg(V(-5, 5, 5), V(5, 5, 5)), true},       // enters
		{Seg(V(-5, -5, -5), V(-1, -1, -1)), false}, // outside
		{Seg(V(-5, 20, 5), V(15, 20, 5)), false},   // passes by
		{Seg(V(10, 5, 5), V(20, 5, 5)), true},      // touches face
		{Seg(V(-1, -1, 5), V(1, 1, 5)), true},      // cuts corner edge region
	}
	for i, c := range cases {
		if got := c.s.IntersectsAABB(b); got != c.want {
			t.Errorf("case %d: Intersects = %v, want %v (s=%v)", i, got, c.want, c.s)
		}
	}
}

func TestSegmentClipAABB(t *testing.T) {
	b := Box(V(0, 0, 0), V(10, 10, 10))
	s := Seg(V(-10, 5, 5), V(30, 5, 5))
	tmin, tmax, ok := s.ClipAABB(b)
	if !ok {
		t.Fatal("clip failed")
	}
	if !almostEq(tmin, 0.25, 1e-12) || !almostEq(tmax, 0.5, 1e-12) {
		t.Errorf("clip params = %v, %v", tmin, tmax)
	}
	// Axis-parallel segment inside slab on degenerate axes.
	s2 := Seg(V(5, 5, -5), V(5, 5, 15))
	if _, _, ok := s2.ClipAABB(b); !ok {
		t.Error("axis-parallel clip failed")
	}
	// Axis-parallel segment outside a slab.
	s3 := Seg(V(20, 5, -5), V(20, 5, 15))
	if _, _, ok := s3.ClipAABB(b); ok {
		t.Error("clip should fail for segment outside slab")
	}
}

// Property: clip parameters bracket every sampled inside point.
func TestSegmentClipProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	b := Box(V(2, 2, 2), V(8, 8, 8))
	for i := 0; i < 500; i++ {
		s := Seg(randVec(rng, 10), randVec(rng, 10))
		tmin, tmax, ok := s.ClipAABB(b)
		for j := 0; j <= 20; j++ {
			tt := float64(j) / 20
			inside := b.Contains(s.At(tt))
			if inside && !ok {
				t.Fatalf("point inside but clip failed: %v", s)
			}
			if inside && (tt < tmin-1e-9 || tt > tmax+1e-9) {
				t.Fatalf("inside point %v outside clip window [%v,%v]: %v", tt, tmin, tmax, s)
			}
		}
	}
}
