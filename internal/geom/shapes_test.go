package geom

import (
	"math"
	"math/rand"
	"testing"
)

func TestCylinderBasics(t *testing.T) {
	c := Cyl(V(0, 0, 0), V(10, 0, 0), 1, 2)
	if c.Length() != 10 {
		t.Errorf("Length = %v", c.Length())
	}
	if c.MaxRadius() != 2 {
		t.Errorf("MaxRadius = %v", c.MaxRadius())
	}
	if c.Centroid() != V(5, 0, 0) {
		t.Errorf("Centroid = %v", c.Centroid())
	}
	wantVol := math.Pi * 10 / 3 * (1 + 2 + 4)
	if !almostEq(c.Volume(), wantVol, 1e-9) {
		t.Errorf("Volume = %v, want %v", c.Volume(), wantVol)
	}
	b := c.Bounds()
	if !vecAlmostEq(b.Min, V(-2, -2, -2), 1e-12) || !vecAlmostEq(b.Max, V(12, 2, 2), 1e-12) {
		t.Errorf("Bounds = %v", b)
	}
}

func TestCylinderIntersectsAABB(t *testing.T) {
	c := Cyl(V(0, 0, 0), V(10, 0, 0), 1, 1)
	if !c.IntersectsAABB(Box(V(4, -1, -1), V(6, 1, 1))) {
		t.Error("axis through box not detected")
	}
	// Box near the surface but within radius of the axis: conservative hit.
	if !c.IntersectsAABB(Box(V(4, 0.8, -0.2), V(6, 1.8, 0.5))) {
		t.Error("box within inflated bounds not detected")
	}
	if c.IntersectsAABB(Box(V(4, 10, 10), V(6, 12, 12))) {
		t.Error("distant box detected")
	}
}

func TestCylinderDistToCylinder(t *testing.T) {
	a := Cyl(V(0, 0, 0), V(10, 0, 0), 0.5, 0.5)
	b := Cyl(V(0, 3, 0), V(10, 3, 0), 0.5, 0.5)
	if got := a.DistToCylinder(b); !almostEq(got, 2, 1e-9) {
		t.Errorf("dist = %v, want 2", got)
	}
	// Overlapping clamps to zero.
	cOverlap := Cyl(V(0, 0.5, 0), V(10, 0.5, 0), 0.5, 0.5)
	if got := a.DistToCylinder(cOverlap); got != 0 {
		t.Errorf("overlap dist = %v, want 0", got)
	}
}

func TestTriangleBasics(t *testing.T) {
	tr := Tri(V(0, 0, 0), V(4, 0, 0), V(0, 3, 0))
	if !vecAlmostEq(tr.Centroid(), V(4.0/3, 1, 0), 1e-12) {
		t.Errorf("Centroid = %v", tr.Centroid())
	}
	if tr.Bounds() != Box(V(0, 0, 0), V(4, 3, 0)) {
		t.Errorf("Bounds = %v", tr.Bounds())
	}
}

func TestTriangleIntersectsAABB(t *testing.T) {
	b := Box(V(0, 0, 0), V(10, 10, 10))
	cases := []struct {
		tr   Triangle
		want bool
	}{
		{Tri(V(1, 1, 1), V(2, 1, 1), V(1, 2, 1)), true},           // inside
		{Tri(V(-5, 5, 5), V(15, 5, 5), V(5, 15, 5)), true},        // cuts through
		{Tri(V(20, 20, 20), V(21, 20, 20), V(20, 21, 20)), false}, // outside
		{Tri(V(-1, 5, 5), V(1, 5, 5), V(0, 6, 5)), true},          // straddles face
		// Plane passes near but triangle misses the box (SAT edge axes).
		{Tri(V(12, -2, 5), V(14, -2, 5), V(12, 0, 5)), false},
		// Large triangle whose AABB covers the box but whose plane misses it.
		{Tri(V(-20, -20, 30), V(40, -20, 30), V(-20, 40, 30)), false},
	}
	for i, c := range cases {
		if got := c.tr.IntersectsAABB(b); got != c.want {
			t.Errorf("case %d: Intersects = %v, want %v", i, got, c.want)
		}
	}
}

// Property: if any of a dense sample of triangle interior points is inside
// the box, the SAT must report intersection.
func TestTriangleSATNoFalseNegatives(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	b := Box(V(2, 2, 2), V(8, 8, 8))
	for trial := 0; trial < 500; trial++ {
		tr := Tri(randVec(rng, 10), randVec(rng, 10), randVec(rng, 10))
		hit := tr.IntersectsAABB(b)
		sampledHit := false
		for i := 0; i <= 15 && !sampledHit; i++ {
			for j := 0; i+j <= 15 && !sampledHit; j++ {
				u := float64(i) / 15
				v := float64(j) / 15
				p := tr.A.Scale(1 - u - v).Add(tr.B.Scale(u)).Add(tr.C.Scale(v))
				if b.Contains(p) {
					sampledHit = true
				}
			}
		}
		if sampledHit && !hit {
			t.Fatalf("false negative: tri=%v", tr)
		}
	}
}

func TestFrustumContains(t *testing.T) {
	f := NewFrustum(V(0, 0, 0), V(1, 0, 0), V(0, 0, 1), math.Pi/2, 1, 1, 10)
	if !f.Contains(V(5, 0, 0)) {
		t.Error("axis point not contained")
	}
	if f.Contains(V(0.5, 0, 0)) {
		t.Error("point before near plane contained")
	}
	if f.Contains(V(15, 0, 0)) {
		t.Error("point past far plane contained")
	}
	if f.Contains(V(5, 10, 0)) {
		t.Error("point far off-axis contained")
	}
	// With 90° fov, at x=5 the half-width is 5; a point at y=4.9 is inside.
	if !f.Contains(V(5, 4.9, 0)) {
		t.Error("point within fov not contained")
	}
	if f.Contains(V(5, 5.1, 0)) {
		t.Error("point outside fov contained")
	}
}

func TestFrustumIntersectsAABB(t *testing.T) {
	f := NewFrustum(V(0, 0, 0), V(1, 0, 0), V(0, 0, 1), math.Pi/2, 1, 1, 10)
	if !f.IntersectsAABB(Box(V(4, -1, -1), V(6, 1, 1))) {
		t.Error("box on axis not detected")
	}
	if f.IntersectsAABB(Box(V(-5, -1, -1), V(-3, 1, 1))) {
		t.Error("box behind camera detected")
	}
	if f.IntersectsAABB(Box(V(20, -1, -1), V(22, 1, 1))) {
		t.Error("box past far plane detected")
	}
	if f.IntersectsAABB(Box(V(5, 20, 0), V(6, 22, 1))) {
		t.Error("box far off-axis detected")
	}
	// Box straddling a side plane is detected.
	if !f.IntersectsAABB(Box(V(5, 4, -1), V(6, 7, 1))) {
		t.Error("straddling box not detected")
	}
}

func TestFrustumBoundsContainCorners(t *testing.T) {
	f := NewFrustum(V(3, -2, 7), V(1, 2, -0.5), V(0, 0, 1), 1.1, 1.5, 2, 40)
	b := f.Bounds()
	for i := 0; i < 8; i++ {
		if !b.Contains(f.corners[i]) {
			t.Errorf("corner %d outside Bounds", i)
		}
	}
	// Points sampled inside the frustum are inside the bounds.
	rng := rand.New(rand.NewSource(31))
	for i := 0; i < 200; i++ {
		p := randVec(rng, 80).Sub(V(40, 40, 40)).Add(V(3, -2, 7))
		if f.Contains(p) && !b.Contains(p) {
			t.Fatalf("frustum point %v outside Bounds", p)
		}
	}
}

func TestFrustumWithVolume(t *testing.T) {
	for _, vol := range []float64{30000.0, 80000.0, 1e6} {
		f := FrustumWithVolume(V(0, 0, 0), V(0, 1, 0), V(0, 0, 1), 1.0, 1.3, vol)
		if got := f.Volume(); !almostEq(got, vol, vol*0.02) {
			t.Errorf("FrustumWithVolume(%v).Volume = %v", vol, got)
		}
	}
}

func TestFrustumInvalidPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("invalid near/far did not panic")
		}
	}()
	NewFrustum(V(0, 0, 0), V(1, 0, 0), V(0, 0, 1), 1, 1, 5, 2)
}
