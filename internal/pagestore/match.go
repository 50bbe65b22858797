package pagestore

import "scout/internal/geom"

// Matches reports whether object o belongs to the result of a range query
// with the given region. For a box (any region but a frustum, read through
// its bounds) the test is exact on the object's simplified geometry
// (segment inflated by radius); for a frustum it is conservative on the
// object's bounding box, which is the standard behaviour of frustum culling.
//
// Matches is the one-object definition of the result filter; AppendMatches
// is the kernel that applies it to whole pages and is tested against it.
func Matches(r geom.Region, o Object) bool {
	switch f := r.(type) {
	case geom.Frustum:
		b := o.Bounds()
		return f.Overlaps(&b)
	}
	return o.IntersectsBox(r.Bounds())
}

// AppendMatches appends to dst the IDs of the objects of the given pages
// that match the region — Matches applied to every object of every page, in
// page order then storage order — and returns the grown slice. This is the
// refine step of every range query: the index names candidate pages, the
// kernel walks each page's contiguous run of objects.
func (s *Store) AppendMatches(dst []ObjectID, r geom.Region, pages []PageID) []ObjectID {
	switch f := r.(type) {
	case geom.Frustum:
		for _, p := range pages {
			page := s.PageSlice(p)
			for i := range page {
				if o := &page[i]; o.overlapsFrustum(&f) {
					dst = append(dst, o.ID)
				}
			}
		}
		return dst
	}
	q := r.Bounds()
	for _, p := range pages {
		page := s.PageSlice(p)
		for i := range page {
			if o := &page[i]; o.intersectsBox(&q) {
				dst = append(dst, o.ID)
			}
		}
	}
	return dst
}

// overlapsFrustum is Matches' frustum test, f.Overlaps(o.Bounds()), for the kernel: it builds
// the object's bounds in place with plain compares. Where an endpoint pair
// holds both zeros the compares may keep the other one than math.Min would;
// the plane test sums products and compares with zero, so it cannot tell.
func (o *Object) overlapsFrustum(f *geom.Frustum) bool {
	a, e, r := &o.Seg.A, &o.Seg.B, o.Radius
	b := geom.AABB{Min: *a, Max: *e}
	if e.X < a.X {
		b.Min.X, b.Max.X = e.X, a.X
	}
	if e.Y < a.Y {
		b.Min.Y, b.Max.Y = e.Y, a.Y
	}
	if e.Z < a.Z {
		b.Min.Z, b.Max.Z = e.Z, a.Z
	}
	b.Min.X -= r
	b.Min.Y -= r
	b.Min.Z -= r
	b.Max.X += r
	b.Max.Y += r
	b.Max.Z += r
	return f.Overlaps(&b)
}

// clipMargin is the relative margin by which the box refine's "beyond a
// face" reject must win: 1e-12 against the four roundings of 2⁻⁵³ each
// between the compare and ClipAABB's parameter (see intersectsBox).
const clipMargin = 1 + 1e-12

// intersectsBox is Object.IntersectsBox for the kernel: it reads the object
// in place and settles most objects without the slab clip's three divisions.
// Both shortcuts are consequences of ClipAABB's own arithmetic, not of exact
// geometry, so the result is the slab clip's bit for bit:
//
//   - Start point A inside the (inflated) box: on every axis t0 ≤ 0 ≤ t1, so
//     tmin stays 0, tmax stays ≥ 0 and the clip succeeds.
//   - A beyond a face and the whole segment clearly beyond it. Take
//     A.x > max; min and the other axes are symmetric. Let p = A.x − max > 0
//     and q = A.x − B.x, both as rounded — the negations of ClipAABB's own
//     operands max − A.x and d.x, since rounding is symmetric. The test is
//     p > q·clipMargin, as rounded.
//     q ≤ 0 (B not nearer the face than A): the product is ≤ 0 < p, the test
//     holds, and ClipAABB gets t1 = (−p)·(1/−q) < 0 ≤ tmin for −q > 1e-15
//     or takes its parallel branch, which rejects because A is outside.
//     (t1 is a product of two finite non-zero factors; it could only lose
//     its sign by underflowing, which takes coordinates some 300 orders of
//     magnitude apart.)
//     0 < q ≤ 1e-15: the parallel branch again, a reject whatever the test
//     says.
//     q > 1e-15: ClipAABB's entry parameter on this axis is
//     fl(p·fl(1/q)). With u = 2⁻⁵³, the constant is ≥ (1+1e-12)(1−u) and
//     fl(q·clipMargin) ≥ q·clipMargin·(1−u), so the test gives
//     p/q > (1+1e-12)(1−u)²; fl(1/q) ≥ (1−u)/q and the outer rounding
//     costs one more (1−u), so the parameter is ≥ (1+1e-12)(1−u)⁴ > 1 ≥
//     tmax — four roundings of 1.1e-16 against a margin of 1e-12 — and the
//     clip fails on this axis if not before.
//
// Without the margin "both endpoints beyond one face" is NOT such a
// consequence — with B a few floats outside the face, (face−A)·(1/(B−A)) can
// round to ≤ 1 and the clip succeed — so objects inside the margin, and the
// ones that straddle a face, go through ClipAABB itself
// (TestAppendMatchesAdversarialBoxes walks those boundaries). Inflating by a
// zero radius is exact, so the Radius == 0 case needs no branch.
func (o *Object) intersectsBox(b *geom.AABB) bool {
	// b.Inflate(o.Radius), spelled out: the call costs a quarter more per
	// object (BenchmarkRefine/aabb 25 → 32 ns).
	r := o.Radius
	box := geom.AABB{
		Min: geom.Vec3{X: b.Min.X - r, Y: b.Min.Y - r, Z: b.Min.Z - r},
		Max: geom.Vec3{X: b.Max.X + r, Y: b.Max.Y + r, Z: b.Max.Z + r},
	}
	a, e := &o.Seg.A, &o.Seg.B
	if a.X >= box.Min.X && a.X <= box.Max.X &&
		a.Y >= box.Min.Y && a.Y <= box.Max.Y &&
		a.Z >= box.Min.Z && a.Z <= box.Max.Z {
		return true
	}
	const k = clipMargin
	if (a.X > box.Max.X && a.X-box.Max.X > (a.X-e.X)*k) || (a.X < box.Min.X && box.Min.X-a.X > (e.X-a.X)*k) ||
		(a.Y > box.Max.Y && a.Y-box.Max.Y > (a.Y-e.Y)*k) || (a.Y < box.Min.Y && box.Min.Y-a.Y > (e.Y-a.Y)*k) ||
		(a.Z > box.Max.Z && a.Z-box.Max.Z > (a.Z-e.Z)*k) || (a.Z < box.Min.Z && box.Min.Z-a.Z > (e.Z-a.Z)*k) {
		return false
	}
	return o.Seg.IntersectsAABB(box)
}
