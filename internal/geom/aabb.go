package geom

import "math"

// AABB is an axis-aligned bounding box, the region type of all range queries
// in this reproduction. Min must be component-wise ≤ Max for a non-empty box.
type AABB struct {
	Min, Max Vec3
}

// EmptyAABB returns the identity element for Union: a box that contains
// nothing and leaves any box unchanged when united with it.
func EmptyAABB() AABB {
	inf := math.Inf(1)
	return AABB{Min: Vec3{inf, inf, inf}, Max: Vec3{-inf, -inf, -inf}}
}

// Box constructs an AABB from two corner points in any order.
func Box(a, b Vec3) AABB {
	return AABB{Min: a.Min(b), Max: a.Max(b)}
}

// CubeAt returns the axis-aligned cube with the given center and volume.
// This is how the paper specifies its range queries ("query volume of
// 80,000 µm³").
func CubeAt(center Vec3, volume float64) AABB {
	if volume < 0 {
		panic("geom: negative cube volume")
	}
	half := math.Cbrt(volume) / 2
	h := Vec3{half, half, half}
	return AABB{Min: center.Sub(h), Max: center.Add(h)}
}

// BoxAt returns an axis-aligned box with the given center and side lengths.
func BoxAt(center, sides Vec3) AABB {
	h := sides.Scale(0.5)
	return AABB{Min: center.Sub(h), Max: center.Add(h)}
}

// IsEmpty reports whether the box contains no points.
func (b AABB) IsEmpty() bool {
	return b.Min.X > b.Max.X || b.Min.Y > b.Max.Y || b.Min.Z > b.Max.Z
}

// Center returns the centroid of the box.
func (b AABB) Center() Vec3 { return b.Min.Add(b.Max).Scale(0.5) }

// Size returns the side lengths of the box.
func (b AABB) Size() Vec3 { return b.Max.Sub(b.Min) }

// Volume returns the volume of the box (0 if empty).
func (b AABB) Volume() float64 {
	if b.IsEmpty() {
		return 0
	}
	s := b.Size()
	return s.X * s.Y * s.Z
}

// Contains reports whether point p lies inside or on the boundary of b.
func (b AABB) Contains(p Vec3) bool {
	return p.X >= b.Min.X && p.X <= b.Max.X &&
		p.Y >= b.Min.Y && p.Y <= b.Max.Y &&
		p.Z >= b.Min.Z && p.Z <= b.Max.Z
}

// ContainsBox reports whether box o lies entirely inside b.
func (b AABB) ContainsBox(o AABB) bool {
	if o.IsEmpty() {
		return true
	}
	return b.Contains(o.Min) && b.Contains(o.Max)
}

// Intersects reports whether b and o share any point (touching counts).
func (b AABB) Intersects(o AABB) bool {
	if b.IsEmpty() || o.IsEmpty() {
		return false
	}
	return b.Min.X <= o.Max.X && b.Max.X >= o.Min.X &&
		b.Min.Y <= o.Max.Y && b.Max.Y >= o.Min.Y &&
		b.Min.Z <= o.Max.Z && b.Max.Z >= o.Min.Z
}

// Intersection returns the overlap of b and o (possibly empty).
func (b AABB) Intersection(o AABB) AABB {
	return AABB{Min: b.Min.Max(o.Min), Max: b.Max.Min(o.Max)}
}

// Union returns the smallest box containing both b and o.
func (b AABB) Union(o AABB) AABB {
	if b.IsEmpty() {
		return o
	}
	if o.IsEmpty() {
		return b
	}
	return AABB{Min: b.Min.Min(o.Min), Max: b.Max.Max(o.Max)}
}

// ExtendPoint returns the smallest box containing b and point p.
func (b AABB) ExtendPoint(p Vec3) AABB {
	if b.IsEmpty() {
		return AABB{Min: p, Max: p}
	}
	return AABB{Min: b.Min.Min(p), Max: b.Max.Max(p)}
}

// Inflate grows the box by d on every side (shrinks for negative d).
func (b AABB) Inflate(d float64) AABB {
	v := Vec3{d, d, d}
	return AABB{Min: b.Min.Sub(v), Max: b.Max.Add(v)}
}

// Translate returns the box shifted by offset.
func (b AABB) Translate(offset Vec3) AABB {
	return AABB{Min: b.Min.Add(offset), Max: b.Max.Add(offset)}
}

// ScaledAbout returns the box scaled by factor s about its own center, so a
// factor of 2 doubles every side length. This implements the growing
// prefetch regions of the paper's incremental prefetching (§5.1).
func (b AABB) ScaledAbout(s float64) AABB {
	c := b.Center()
	h := b.Size().Scale(s / 2)
	return AABB{Min: c.Sub(h), Max: c.Add(h)}
}

// ClosestPoint returns the point of b closest to p (p itself if inside).
func (b AABB) ClosestPoint(p Vec3) Vec3 {
	return p.Max(b.Min).Min(b.Max)
}

// DistSq returns the squared distance from p to the box (0 if inside).
func (b AABB) DistSq(p Vec3) float64 {
	return b.ClosestPoint(p).DistSq(p)
}
