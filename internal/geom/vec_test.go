package geom

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func vecAlmostEq(a, b Vec3, tol float64) bool {
	return almostEq(a.X, b.X, tol) && almostEq(a.Y, b.Y, tol) && almostEq(a.Z, b.Z, tol)
}

func TestVecBasicOps(t *testing.T) {
	a := V(1, 2, 3)
	b := V(4, -5, 6)
	if got := a.Add(b); got != V(5, -3, 9) {
		t.Errorf("Add = %v", got)
	}
	if got := a.Sub(b); got != V(-3, 7, -3) {
		t.Errorf("Sub = %v", got)
	}
	if got := a.Scale(2); got != V(2, 4, 6) {
		t.Errorf("Scale = %v", got)
	}
	if got := a.Dot(b); got != 4-10+18 {
		t.Errorf("Dot = %v", got)
	}
	if got := a.Neg(); got != V(-1, -2, -3) {
		t.Errorf("Neg = %v", got)
	}
}

func TestVecCross(t *testing.T) {
	x, y, z := V(1, 0, 0), V(0, 1, 0), V(0, 0, 1)
	if got := x.Cross(y); got != z {
		t.Errorf("x×y = %v, want z", got)
	}
	if got := y.Cross(z); got != x {
		t.Errorf("y×z = %v, want x", got)
	}
	if got := z.Cross(x); got != y {
		t.Errorf("z×x = %v, want y", got)
	}
}

func TestVecLenDist(t *testing.T) {
	if got := V(3, 4, 0).Len(); got != 5 {
		t.Errorf("Len = %v", got)
	}
	if got := V(1, 1, 1).Dist(V(2, 2, 2)); !almostEq(got, math.Sqrt(3), 1e-12) {
		t.Errorf("Dist = %v", got)
	}
	if got := V(3, 4, 0).LenSq(); got != 25 {
		t.Errorf("LenSq = %v", got)
	}
}

func TestVecNormalize(t *testing.T) {
	v := V(10, 0, 0).Normalize()
	if v != V(1, 0, 0) {
		t.Errorf("Normalize = %v", v)
	}
	if z := (Vec3{}).Normalize(); z != (Vec3{}) {
		t.Errorf("Normalize(0) = %v, want zero", z)
	}
}

func TestVecLerp(t *testing.T) {
	a, b := V(0, 0, 0), V(10, 20, 30)
	if got := a.Lerp(b, 0); got != a {
		t.Errorf("Lerp(0) = %v", got)
	}
	if got := a.Lerp(b, 1); got != b {
		t.Errorf("Lerp(1) = %v", got)
	}
	if got := a.Lerp(b, 0.5); got != V(5, 10, 15) {
		t.Errorf("Lerp(0.5) = %v", got)
	}
}

func TestVecMinMaxAbs(t *testing.T) {
	a, b := V(1, 5, -3), V(2, -4, 0)
	if got := a.Min(b); got != V(1, -4, -3) {
		t.Errorf("Min = %v", got)
	}
	if got := a.Max(b); got != V(2, 5, 0) {
		t.Errorf("Max = %v", got)
	}
	if got := a.Abs(); got != V(1, 5, 3) {
		t.Errorf("Abs = %v", got)
	}
}

func TestVecComponent(t *testing.T) {
	v := V(7, 8, 9)
	for i, want := range []float64{7, 8, 9} {
		if got := v.Component(i); got != want {
			t.Errorf("Component(%d) = %v, want %v", i, got, want)
		}
	}
}

func TestVecComponentPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Component(3) did not panic")
		}
	}()
	V(0, 0, 0).Component(3)
}

func TestVecIsFinite(t *testing.T) {
	if !V(1, 2, 3).IsFinite() {
		t.Error("finite vector reported non-finite")
	}
	if V(math.NaN(), 0, 0).IsFinite() {
		t.Error("NaN vector reported finite")
	}
	if V(0, math.Inf(1), 0).IsFinite() {
		t.Error("Inf vector reported finite")
	}
}

func TestVecOrthonormal(t *testing.T) {
	dirs := []Vec3{
		V(1, 0, 0), V(0, 1, 0), V(0, 0, 1),
		V(1, 1, 1), V(-2, 3, 0.5), V(0.001, -5, 2),
	}
	for _, d := range dirs {
		u, w := d.Orthonormal()
		dn := d.Normalize()
		if !almostEq(u.Len(), 1, 1e-12) || !almostEq(w.Len(), 1, 1e-12) {
			t.Errorf("Orthonormal(%v): non-unit results %v %v", d, u, w)
		}
		if !almostEq(u.Dot(dn), 0, 1e-12) || !almostEq(w.Dot(dn), 0, 1e-12) || !almostEq(u.Dot(w), 0, 1e-12) {
			t.Errorf("Orthonormal(%v): not orthogonal", d)
		}
	}
}

// Property: normalization yields unit length for non-zero vectors.
func TestVecNormalizeProperty(t *testing.T) {
	f := func(x, y, z float64) bool {
		v := V(x, y, z)
		if !v.IsFinite() || v.Len() == 0 || v.Len() > 1e150 {
			return true // skip degenerate inputs
		}
		return almostEq(v.Normalize().Len(), 1, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Property: cross product is orthogonal to both operands.
func TestVecCrossOrthogonalProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 500; i++ {
		a := V(rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64())
		b := V(rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64())
		c := a.Cross(b)
		tol := 1e-9 * (1 + a.Len()*b.Len())
		if !almostEq(c.Dot(a), 0, tol) || !almostEq(c.Dot(b), 0, tol) {
			t.Fatalf("cross not orthogonal: a=%v b=%v c=%v", a, b, c)
		}
	}
}

// Property: |a×b|² + (a·b)² = |a|²|b|² (Lagrange identity).
func TestVecLagrangeIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 500; i++ {
		a := V(rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64())
		b := V(rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64())
		lhs := a.Cross(b).LenSq() + a.Dot(b)*a.Dot(b)
		rhs := a.LenSq() * b.LenSq()
		if !almostEq(lhs, rhs, 1e-9*(1+rhs)) {
			t.Fatalf("Lagrange identity violated: %v vs %v", lhs, rhs)
		}
	}
}
