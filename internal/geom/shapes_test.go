package geom

import (
	"math"
	"math/rand"
	"testing"
)

func TestCylinderBasics(t *testing.T) {
	c := Cyl(V(0, 0, 0), V(10, 0, 0), 1, 2)
	if c.Axis() != Seg(V(0, 0, 0), V(10, 0, 0)) {
		t.Errorf("Axis = %v", c.Axis())
	}
	if c.MaxRadius() != 2 {
		t.Errorf("MaxRadius = %v", c.MaxRadius())
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

// TestFrustumIntersectsAABB pins the plane test, Frustum.Overlaps.
func TestFrustumIntersectsAABB(t *testing.T) {
	overlaps := func(f Frustum, b AABB) bool { return f.Overlaps(&b) }
	f := NewFrustum(V(0, 0, 0), V(1, 0, 0), V(0, 0, 1), math.Pi/2, 1, 1, 10)
	if !overlaps(f, Box(V(4, -1, -1), V(6, 1, 1))) {
		t.Error("box on axis not detected")
	}
	if overlaps(f, Box(V(-5, -1, -1), V(-3, 1, 1))) {
		t.Error("box behind camera detected")
	}
	if overlaps(f, Box(V(20, -1, -1), V(22, 1, 1))) {
		t.Error("box past far plane detected")
	}
	if overlaps(f, Box(V(5, 20, 0), V(6, 22, 1))) {
		t.Error("box far off-axis detected")
	}
	// Box straddling a side plane is detected.
	if !overlaps(f, Box(V(5, 4, -1), V(6, 7, 1))) {
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
