package geom

import "math"

// Segment is a directed straight line segment from A to B. SCOUT reduces
// every cylinder to the segment between its two endpoints when building the
// approximate graph (paper §7.1), so segments are the workhorse geometry of
// the whole system.
type Segment struct {
	A, B Vec3
}

// Seg constructs a Segment.
func Seg(a, b Vec3) Segment { return Segment{A: a, B: b} }

// Dir returns the (non-normalized) direction B − A.
func (s Segment) Dir() Vec3 { return s.B.Sub(s.A) }

// Len returns the length of the segment.
func (s Segment) Len() float64 { return s.Dir().Len() }

// Midpoint returns the midpoint of the segment.
func (s Segment) Midpoint() Vec3 { return s.A.Lerp(s.B, 0.5) }

// At returns the point A + t·(B−A); t in [0,1] stays on the segment.
func (s Segment) At(t float64) Vec3 { return s.A.Lerp(s.B, t) }

// Bounds returns the tight axis-aligned bounding box of the segment.
func (s Segment) Bounds() AABB { return Box(s.A, s.B) }

// ClosestParam returns the parameter t in [0,1] of the point on the segment
// closest to p.
func (s Segment) ClosestParam(p Vec3) float64 {
	d := s.Dir()
	l2 := d.LenSq()
	if l2 == 0 {
		return 0
	}
	t := p.Sub(s.A).Dot(d) / l2
	return math.Max(0, math.Min(1, t))
}

// ClosestPoint returns the point on the segment closest to p.
func (s Segment) ClosestPoint(p Vec3) Vec3 { return s.At(s.ClosestParam(p)) }

// DistToPoint returns the distance from p to the segment.
func (s Segment) DistToPoint(p Vec3) float64 { return s.ClosestPoint(p).Dist(p) }

// DistToSegment returns the minimum distance between two segments. It is the
// primitive behind the model-building use case ("detect where proximity to
// another branch falls below a given threshold", paper §3.1).
func (s Segment) DistToSegment(o Segment) float64 {
	// Adapted from the standard closest-point-of-two-segments derivation
	// (Ericson, Real-Time Collision Detection, §5.1.9).
	d1 := s.Dir()
	d2 := o.Dir()
	r := s.A.Sub(o.A)
	a := d1.LenSq()
	e := d2.LenSq()
	f := d2.Dot(r)

	var t1, t2 float64
	const eps = 1e-12
	switch {
	case a <= eps && e <= eps: // both degenerate to points
		return s.A.Dist(o.A)
	case a <= eps: // s is a point
		t2 = clamp01(f / e)
	default:
		c := d1.Dot(r)
		if e <= eps { // o is a point
			t1 = clamp01(-c / a)
		} else {
			b := d1.Dot(d2)
			den := a*e - b*b
			if den > eps {
				t1 = clamp01((b*f - c*e) / den)
			}
			t2 = (b*t1 + f) / e
			if t2 < 0 {
				t2 = 0
				t1 = clamp01(-c / a)
			} else if t2 > 1 {
				t2 = 1
				t1 = clamp01((b - c) / a)
			}
		}
	}
	return s.At(t1).Dist(o.At(t2))
}

func clamp01(t float64) float64 { return math.Max(0, math.Min(1, t)) }

// IntersectsAABB reports whether the segment intersects box b, using the
// slab test. Touching the boundary counts as intersecting.
func (s Segment) IntersectsAABB(b AABB) bool {
	_, _, ok := s.ClipAABB(b)
	return ok
}

// ClipAABB clips the segment against box b using the slab method. It returns
// the entry and exit parameters tmin ≤ tmax within [0,1] and whether any part
// of the segment lies inside the box. The axes are unrolled — this sits on
// the voxel-walk and crossing-extraction hot paths.
func (s Segment) ClipAABB(b AABB) (tmin, tmax float64, ok bool) {
	if b.IsEmpty() {
		return 0, 0, false
	}
	tmin, tmax = 0, 1
	d := s.Dir()

	if di := d.X; di < -1e-15 || di > 1e-15 {
		inv := 1 / di
		t0 := (b.Min.X - s.A.X) * inv
		t1 := (b.Max.X - s.A.X) * inv
		if t0 > t1 {
			t0, t1 = t1, t0
		}
		if t0 > tmin {
			tmin = t0
		}
		if t1 < tmax {
			tmax = t1
		}
		if tmin > tmax {
			return 0, 0, false
		}
	} else if s.A.X < b.Min.X || s.A.X > b.Max.X {
		return 0, 0, false
	}

	if di := d.Y; di < -1e-15 || di > 1e-15 {
		inv := 1 / di
		t0 := (b.Min.Y - s.A.Y) * inv
		t1 := (b.Max.Y - s.A.Y) * inv
		if t0 > t1 {
			t0, t1 = t1, t0
		}
		if t0 > tmin {
			tmin = t0
		}
		if t1 < tmax {
			tmax = t1
		}
		if tmin > tmax {
			return 0, 0, false
		}
	} else if s.A.Y < b.Min.Y || s.A.Y > b.Max.Y {
		return 0, 0, false
	}

	if di := d.Z; di < -1e-15 || di > 1e-15 {
		inv := 1 / di
		t0 := (b.Min.Z - s.A.Z) * inv
		t1 := (b.Max.Z - s.A.Z) * inv
		if t0 > t1 {
			t0, t1 = t1, t0
		}
		if t0 > tmin {
			tmin = t0
		}
		if t1 < tmax {
			tmax = t1
		}
		if tmin > tmax {
			return 0, 0, false
		}
	} else if s.A.Z < b.Min.Z || s.A.Z > b.Max.Z {
		return 0, 0, false
	}
	return tmin, tmax, true
}
