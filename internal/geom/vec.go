// Package geom provides the three-dimensional geometric primitives and
// predicates used throughout the SCOUT reproduction: vectors, axis-aligned
// bounding boxes, line segments, cylinders, view frusta, a 3D Hilbert
// curve, and a uniform-grid voxel walk.
//
// All coordinates are in micrometers (µm), matching the units of the paper's
// neuroscience datasets. The package is self-contained and allocation-light;
// hot-path predicates avoid heap allocation entirely.
package geom

import (
	"fmt"
	"math"
)

// Vec3 is a point or direction in three-dimensional space.
type Vec3 struct {
	X, Y, Z float64
}

// V is shorthand for constructing a Vec3.
func V(x, y, z float64) Vec3 { return Vec3{X: x, Y: y, Z: z} }

// Add returns v + w.
func (v Vec3) Add(w Vec3) Vec3 { return Vec3{v.X + w.X, v.Y + w.Y, v.Z + w.Z} }

// Sub returns v - w.
func (v Vec3) Sub(w Vec3) Vec3 { return Vec3{v.X - w.X, v.Y - w.Y, v.Z - w.Z} }

// Scale returns v scaled by s.
func (v Vec3) Scale(s float64) Vec3 { return Vec3{v.X * s, v.Y * s, v.Z * s} }

// Dot returns the dot product of v and w.
func (v Vec3) Dot(w Vec3) float64 { return v.X*w.X + v.Y*w.Y + v.Z*w.Z }

// Cross returns the cross product of v and w.
func (v Vec3) Cross(w Vec3) Vec3 {
	return Vec3{
		X: v.Y*w.Z - v.Z*w.Y,
		Y: v.Z*w.X - v.X*w.Z,
		Z: v.X*w.Y - v.Y*w.X,
	}
}

// Len returns the Euclidean length of v.
func (v Vec3) Len() float64 { return math.Sqrt(v.Dot(v)) }

// LenSq returns the squared Euclidean length of v.
func (v Vec3) LenSq() float64 { return v.Dot(v) }

// Dist returns the Euclidean distance between v and w.
func (v Vec3) Dist(w Vec3) float64 { return v.Sub(w).Len() }

// DistSq returns the squared Euclidean distance between v and w.
func (v Vec3) DistSq(w Vec3) float64 { return v.Sub(w).LenSq() }

// Normalize returns v scaled to unit length. The zero vector is returned
// unchanged so callers never divide by zero.
func (v Vec3) Normalize() Vec3 {
	l := v.Len()
	if l == 0 {
		return v
	}
	return v.Scale(1 / l)
}

// Neg returns -v.
func (v Vec3) Neg() Vec3 { return Vec3{-v.X, -v.Y, -v.Z} }

// Lerp linearly interpolates between v (t=0) and w (t=1).
func (v Vec3) Lerp(w Vec3, t float64) Vec3 {
	return Vec3{
		X: v.X + (w.X-v.X)*t,
		Y: v.Y + (w.Y-v.Y)*t,
		Z: v.Z + (w.Z-v.Z)*t,
	}
}

// Min returns the component-wise minimum of v and w.
func (v Vec3) Min(w Vec3) Vec3 {
	return Vec3{math.Min(v.X, w.X), math.Min(v.Y, w.Y), math.Min(v.Z, w.Z)}
}

// Max returns the component-wise maximum of v and w.
func (v Vec3) Max(w Vec3) Vec3 {
	return Vec3{math.Max(v.X, w.X), math.Max(v.Y, w.Y), math.Max(v.Z, w.Z)}
}

// Abs returns the component-wise absolute value of v.
func (v Vec3) Abs() Vec3 {
	return Vec3{math.Abs(v.X), math.Abs(v.Y), math.Abs(v.Z)}
}

// Component returns the i-th component (0 = X, 1 = Y, 2 = Z).
func (v Vec3) Component(i int) float64 {
	switch i {
	case 0:
		return v.X
	case 1:
		return v.Y
	case 2:
		return v.Z
	}
	panic(fmt.Sprintf("geom: invalid component index %d", i))
}

// IsFinite reports whether every component is a finite number.
func (v Vec3) IsFinite() bool {
	return !math.IsNaN(v.X) && !math.IsInf(v.X, 0) &&
		!math.IsNaN(v.Y) && !math.IsInf(v.Y, 0) &&
		!math.IsNaN(v.Z) && !math.IsInf(v.Z, 0)
}

// String renders v with three decimals, e.g. "(1.000, 2.000, 3.000)".
func (v Vec3) String() string {
	return fmt.Sprintf("(%.3f, %.3f, %.3f)", v.X, v.Y, v.Z)
}

// Orthonormal returns two unit vectors that, together with the (assumed
// non-zero) direction v, form a right-handed orthonormal basis. It is used to
// place cylinder cross-sections and frustum corner rays.
func (v Vec3) Orthonormal() (u, w Vec3) {
	d := v.Normalize()
	// Pick the axis least aligned with d to avoid degeneracy.
	ref := Vec3{1, 0, 0}
	if math.Abs(d.X) > math.Abs(d.Y) {
		ref = Vec3{0, 1, 0}
	}
	u = d.Cross(ref).Normalize()
	w = d.Cross(u)
	return u, w
}
