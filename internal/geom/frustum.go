package geom

import "math"

// Frustum is a view frustum used by the walkthrough-visualization workloads
// (paper §7.2.3: "a series of view frustum culling operations ... directly
// translates into a sequence of spatial queries with a volume enclosing the
// view frustum"). It is represented by its six inward-facing planes plus the
// eight corner points (kept for bounding-box computation).
type Frustum struct {
	planes  [6]plane
	corners [8]Vec3
}

// plane is the set of points p with n·p + d = 0; n points to the inside.
type plane struct {
	n Vec3
	d float64
}

func (pl plane) signedDist(p Vec3) float64 { return pl.n.Dot(p) + pl.d }

// NewFrustum builds a symmetric perspective frustum.
//
//	eye     camera position (apex)
//	dir     view direction (normalized internally)
//	up      approximate up vector (orthogonalized internally)
//	fovY    full vertical field of view in radians
//	aspect  width / height
//	near    distance to the near plane (> 0)
//	far     distance to the far plane (> near)
func NewFrustum(eye, dir, up Vec3, fovY, aspect, near, far float64) Frustum {
	if near <= 0 || far <= near {
		panic("geom: invalid frustum near/far")
	}
	d := dir.Normalize()
	right := d.Cross(up).Normalize()
	u := right.Cross(d) // true up, orthonormal

	tanY := math.Tan(fovY / 2)
	tanX := tanY * aspect

	var f Frustum
	// Corner rays through the four frustum edges.
	ci := 0
	for _, dist := range []float64{near, far} {
		for _, sy := range []float64{-1, 1} {
			for _, sx := range []float64{-1, 1} {
				p := eye.Add(d.Scale(dist)).
					Add(right.Scale(sx * tanX * dist)).
					Add(u.Scale(sy * tanY * dist))
				f.corners[ci] = p
				ci++
			}
		}
	}

	// Near and far planes.
	f.planes[0] = planeFrom(d, eye.Add(d.Scale(near)))      // near, inside is +d
	f.planes[1] = planeFrom(d.Neg(), eye.Add(d.Scale(far))) // far, inside is −d
	// Side planes from the apex and pairs of corner rays (use far corners).
	// corners[4..7]: far plane, order (−x,−y), (+x,−y), (−x,+y), (+x,+y).
	fc := f.corners
	f.planes[2] = planeFrom3(eye, fc[4], fc[6]) // left
	f.planes[3] = planeFrom3(eye, fc[7], fc[5]) // right
	f.planes[4] = planeFrom3(eye, fc[5], fc[4]) // bottom
	f.planes[5] = planeFrom3(eye, fc[6], fc[7]) // top
	// Orient all side planes inward (the frustum centroid must be inside).
	center := eye.Add(d.Scale((near + far) / 2))
	for i := 2; i < 6; i++ {
		if f.planes[i].signedDist(center) < 0 {
			f.planes[i].n = f.planes[i].n.Neg()
			f.planes[i].d = -f.planes[i].d
		}
	}
	return f
}

// FrustumWithVolume builds a frustum whose total volume approximately equals
// the requested volume, with the shape fixed by fovY, aspect and the
// near:far ratio. The paper's visualization microbenchmarks specify queries
// by volume (30,000 µm³ frusta), so the harness needs this inverse.
func FrustumWithVolume(eye, dir, up Vec3, fovY, aspect, volume float64) Frustum {
	if volume <= 0 {
		panic("geom: non-positive frustum volume")
	}
	// For a symmetric pyramid truncated at near=k·far (k fixed), the volume
	// scales as far³; solve for far.
	const k = 0.1 // near = k * far
	tanY := math.Tan(fovY / 2)
	tanX := tanY * aspect
	// V = (4/3)·tanX·tanY·(far³ − near³)
	unit := 4.0 / 3.0 * tanX * tanY * (1 - k*k*k)
	far := math.Cbrt(volume / unit)
	return NewFrustum(eye, dir, up, fovY, aspect, k*far, far)
}

func planeFrom(n Vec3, through Vec3) plane {
	nn := n.Normalize()
	return plane{n: nn, d: -nn.Dot(through)}
}

func planeFrom3(a, b, c Vec3) plane {
	n := b.Sub(a).Cross(c.Sub(a)).Normalize()
	return plane{n: n, d: -n.Dot(a)}
}

// Contains reports whether point p lies inside the frustum. Like Overlaps it
// reads the planes in place: a Frustum is 384 bytes, and per-vertex crossing
// tests call it on every boundary candidate.
func (f *Frustum) Contains(p Vec3) bool {
	for i := range f.planes {
		if f.planes[i].signedDist(p) < 0 {
			return false
		}
	}
	return true
}

// Overlaps conservatively reports whether box b may intersect the frustum,
// using the positive-vertex test against each plane. It can report rare false
// positives (standard for frustum culling) but never a false negative. This
// is the one definition of the plane test: the R-tree probe and the refine
// kernel call it in place on stored boxes, pagestore.Matches on an object's
// bounds.
func (f *Frustum) Overlaps(b *AABB) bool {
	if b.Min.X > b.Max.X || b.Min.Y > b.Max.Y || b.Min.Z > b.Max.Z {
		return false
	}
	for i := range f.planes {
		pl := &f.planes[i]
		// p-vertex: box corner furthest along the plane normal.
		x, y, z := b.Min.X, b.Min.Y, b.Min.Z
		if pl.n.X >= 0 {
			x = b.Max.X
		}
		if pl.n.Y >= 0 {
			y = b.Max.Y
		}
		if pl.n.Z >= 0 {
			z = b.Max.Z
		}
		if pl.n.X*x+pl.n.Y*y+pl.n.Z*z+pl.d < 0 {
			return false
		}
	}
	return true
}

// Bounds returns the axis-aligned bounding box of the frustum.
func (f Frustum) Bounds() AABB {
	b := EmptyAABB()
	for _, c := range f.corners {
		b = b.ExtendPoint(c)
	}
	return b
}

// Volume returns the exact volume of the frustum (truncated pyramid).
func (f Frustum) Volume() float64 {
	// Reconstruct from the corner points: near and far rectangles.
	nearW := f.corners[0].Dist(f.corners[1])
	nearH := f.corners[0].Dist(f.corners[2])
	farW := f.corners[4].Dist(f.corners[5])
	farH := f.corners[4].Dist(f.corners[6])
	h := f.corners[0].Add(f.corners[3]).Scale(0.5).
		Dist(f.corners[4].Add(f.corners[7]).Scale(0.5))
	a1 := nearW * nearH
	a2 := farW * farH
	return h / 3 * (a1 + a2 + math.Sqrt(a1*a2))
}
