package geom

import (
	"math"
	"math/rand"
	"testing"
)

func TestEmptyAABB(t *testing.T) {
	e := EmptyAABB()
	if !e.IsEmpty() {
		t.Fatal("EmptyAABB not empty")
	}
	if e.Volume() != 0 {
		t.Errorf("empty volume = %v", e.Volume())
	}
	b := Box(V(0, 0, 0), V(1, 1, 1))
	if got := e.Union(b); got != b {
		t.Errorf("empty ∪ b = %v, want b", got)
	}
	if got := b.Union(e); got != b {
		t.Errorf("b ∪ empty = %v, want b", got)
	}
	if e.Intersects(b) || b.Intersects(e) {
		t.Error("empty box intersects something")
	}
}

func TestBoxNormalizesCorners(t *testing.T) {
	b := Box(V(5, 0, 2), V(1, 3, -1))
	want := AABB{Min: V(1, 0, -1), Max: V(5, 3, 2)}
	if b != want {
		t.Errorf("Box = %v, want %v", b, want)
	}
}

func TestCubeAt(t *testing.T) {
	c := CubeAt(V(10, 20, 30), 80000)
	if !almostEq(c.Volume(), 80000, 1e-6) {
		t.Errorf("cube volume = %v", c.Volume())
	}
	if !vecAlmostEq(c.Center(), V(10, 20, 30), 1e-9) {
		t.Errorf("cube center = %v", c.Center())
	}
	s := c.Size()
	if !almostEq(s.X, s.Y, 1e-12) || !almostEq(s.Y, s.Z, 1e-12) {
		t.Errorf("cube not cubic: %v", s)
	}
}

func TestAABBContainsIntersects(t *testing.T) {
	b := Box(V(0, 0, 0), V(10, 10, 10))
	if !b.Contains(V(5, 5, 5)) || !b.Contains(V(0, 0, 0)) || !b.Contains(V(10, 10, 10)) {
		t.Error("Contains failed for interior/boundary points")
	}
	if b.Contains(V(10.001, 5, 5)) {
		t.Error("Contains accepted outside point")
	}
	cases := []struct {
		o    AABB
		want bool
	}{
		{Box(V(5, 5, 5), V(15, 15, 15)), true},   // overlap
		{Box(V(10, 0, 0), V(20, 10, 10)), true},  // touching face
		{Box(V(11, 0, 0), V(20, 10, 10)), false}, // disjoint
		{Box(V(2, 2, 2), V(3, 3, 3)), true},      // contained
	}
	for i, c := range cases {
		if got := b.Intersects(c.o); got != c.want {
			t.Errorf("case %d: Intersects = %v, want %v", i, got, c.want)
		}
	}
}

func TestAABBIntersectionUnion(t *testing.T) {
	a := Box(V(0, 0, 0), V(10, 10, 10))
	b := Box(V(5, 5, 5), V(15, 15, 15))
	inter := a.Intersection(b)
	if inter != Box(V(5, 5, 5), V(10, 10, 10)) {
		t.Errorf("Intersection = %v", inter)
	}
	u := a.Union(b)
	if u != Box(V(0, 0, 0), V(15, 15, 15)) {
		t.Errorf("Union = %v", u)
	}
	// Disjoint boxes intersect to empty.
	d := Box(V(100, 100, 100), V(101, 101, 101))
	if !a.Intersection(d).IsEmpty() {
		t.Error("disjoint intersection not empty")
	}
}

func TestAABBVolumeSurface(t *testing.T) {
	b := Box(V(0, 0, 0), V(2, 3, 4))
	if b.Volume() != 24 {
		t.Errorf("Volume = %v", b.Volume())
	}
}

func TestAABBInflateScale(t *testing.T) {
	b := Box(V(0, 0, 0), V(10, 10, 10))
	in := b.Inflate(2)
	if in != Box(V(-2, -2, -2), V(12, 12, 12)) {
		t.Errorf("Inflate = %v", in)
	}
	sc := b.ScaledAbout(2)
	if sc != Box(V(-5, -5, -5), V(15, 15, 15)) {
		t.Errorf("ScaledAbout = %v", sc)
	}
	if !vecAlmostEq(sc.Center(), b.Center(), 1e-12) {
		t.Error("ScaledAbout moved the center")
	}
}

func TestAABBClosestPointDist(t *testing.T) {
	b := Box(V(0, 0, 0), V(10, 10, 10))
	if got := b.ClosestPoint(V(5, 5, 5)); got != V(5, 5, 5) {
		t.Errorf("ClosestPoint(inside) = %v", got)
	}
	if got := b.ClosestPoint(V(-3, 5, 20)); got != V(0, 5, 10) {
		t.Errorf("ClosestPoint(outside) = %v", got)
	}
	if got := b.Dist(V(13, 5, 5)); got != 3 {
		t.Errorf("Dist = %v", got)
	}
	if got := b.Dist(V(5, 5, 5)); got != 0 {
		t.Errorf("Dist(inside) = %v", got)
	}
}

func TestAABBContainsBox(t *testing.T) {
	b := Box(V(0, 0, 0), V(10, 10, 10))
	if !b.ContainsBox(Box(V(1, 1, 1), V(9, 9, 9))) {
		t.Error("ContainsBox(inner) = false")
	}
	if b.ContainsBox(Box(V(5, 5, 5), V(11, 11, 11))) {
		t.Error("ContainsBox(overlapping) = true")
	}
	if !b.ContainsBox(EmptyAABB()) {
		t.Error("ContainsBox(empty) = false")
	}
}

func TestAABBTranslate(t *testing.T) {
	b := Box(V(0, 0, 0), V(1, 1, 1)).Translate(V(5, 6, 7))
	if b != Box(V(5, 6, 7), V(6, 7, 8)) {
		t.Errorf("Translate = %v", b)
	}
}

func randBox(rng *rand.Rand, scale float64) AABB {
	c := V(rng.Float64()*scale, rng.Float64()*scale, rng.Float64()*scale)
	s := V(rng.Float64()*scale/2+1e-6, rng.Float64()*scale/2+1e-6, rng.Float64()*scale/2+1e-6)
	return BoxAt(c, s)
}

// Property: Intersects is symmetric, and intersection non-emptiness agrees
// with Intersects.
func TestAABBIntersectionProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 1000; i++ {
		a := randBox(rng, 100)
		b := randBox(rng, 100)
		if a.Intersects(b) != b.Intersects(a) {
			t.Fatalf("Intersects asymmetric: %v %v", a, b)
		}
		if got := !a.Intersection(b).IsEmpty(); got != a.Intersects(b) {
			t.Fatalf("intersection emptiness disagrees: %v %v", a, b)
		}
		// Union contains both.
		u := a.Union(b)
		if !u.ContainsBox(a) || !u.ContainsBox(b) {
			t.Fatalf("union does not contain operands: %v %v", a, b)
		}
		// Intersection volume ≤ min volume.
		iv := a.Intersection(b).Volume()
		if iv > math.Min(a.Volume(), b.Volume())+1e-9 {
			t.Fatalf("intersection bigger than operand: %v %v", a, b)
		}
	}
}
