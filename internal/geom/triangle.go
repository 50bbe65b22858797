package geom

import "math"

// Triangle is the storage geometry of the lung-airway surface-mesh dataset.
type Triangle struct {
	A, B, C Vec3
}

// Tri constructs a Triangle.
func Tri(a, b, c Vec3) Triangle { return Triangle{A: a, B: b, C: c} }

// Centroid returns the centroid of the triangle.
func (t Triangle) Centroid() Vec3 {
	return t.A.Add(t.B).Add(t.C).Scale(1.0 / 3.0)
}

// Bounds returns the tight axis-aligned bounding box of the triangle.
func (t Triangle) Bounds() AABB {
	return Box(t.A, t.B).ExtendPoint(t.C)
}

// IntersectsAABB reports whether the triangle intersects box b, using the
// separating-axis test of Akenine-Möller ("Fast 3D Triangle-Box Overlap
// Testing"). The 13 candidate axes are the 3 box face normals, the triangle
// normal, and the 9 cross products of box edges with triangle edges.
func (t Triangle) IntersectsAABB(b AABB) bool {
	if b.IsEmpty() {
		return false
	}
	c := b.Center()
	h := b.Size().Scale(0.5)

	// Move the triangle so the box is centered at the origin.
	v0 := t.A.Sub(c)
	v1 := t.B.Sub(c)
	v2 := t.C.Sub(c)

	// Axis test 1: box face normals (AABB overlap of the triangle).
	if min3(v0.X, v1.X, v2.X) > h.X || max3(v0.X, v1.X, v2.X) < -h.X {
		return false
	}
	if min3(v0.Y, v1.Y, v2.Y) > h.Y || max3(v0.Y, v1.Y, v2.Y) < -h.Y {
		return false
	}
	if min3(v0.Z, v1.Z, v2.Z) > h.Z || max3(v0.Z, v1.Z, v2.Z) < -h.Z {
		return false
	}

	// Axis test 2: triangle plane vs box.
	n := v1.Sub(v0).Cross(v2.Sub(v0))
	d := n.Dot(v0)
	r := h.X*math.Abs(n.X) + h.Y*math.Abs(n.Y) + h.Z*math.Abs(n.Z)
	if math.Abs(d) > r {
		return false
	}

	// Axis test 3: nine edge-cross-product axes.
	edges := [3]Vec3{v1.Sub(v0), v2.Sub(v1), v0.Sub(v2)}
	verts := [3]Vec3{v0, v1, v2}
	for _, e := range edges {
		axes := [3]Vec3{
			{0, -e.Z, e.Y}, // X × e
			{e.Z, 0, -e.X}, // Y × e
			{-e.Y, e.X, 0}, // Z × e
		}
		for _, a := range axes {
			p0 := a.Dot(verts[0])
			p1 := a.Dot(verts[1])
			p2 := a.Dot(verts[2])
			ra := h.X*math.Abs(a.X) + h.Y*math.Abs(a.Y) + h.Z*math.Abs(a.Z)
			if min3(p0, p1, p2) > ra || max3(p0, p1, p2) < -ra {
				return false
			}
		}
	}
	return true
}

func min3(a, b, c float64) float64 { return math.Min(a, math.Min(b, c)) }
func max3(a, b, c float64) float64 { return math.Max(a, math.Max(b, c)) }
