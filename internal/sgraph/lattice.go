package sgraph

import (
	"math"

	"scout/internal/geom"
)

// The delta lifecycle (Graph.Advance) keeps surviving vertices' grid cells
// valid across consecutive, overlapping query regions. That only works if a
// cell's identity does not depend on the query window: a grid anchored at
// each query's bounds.Min would invalidate every cell on every query.
//
// lattice is therefore a world-anchored cell lattice: cell boundaries
// sit at integer multiples of the cell size in ABSOLUTE world coordinates
// (cell (0,0,0) starts at the world origin), and a query's grid is merely a
// window [lo, hi) of cell coordinates on that lattice, snapped around the
// query bounds. Growing the window — the union of the regions a sequence has
// visited — never moves a cell, so an object hashed under an earlier window
// occupies exactly the cells a fresh build under the grown window would
// assign it (unless its segment was clipped by the old window, which
// Graph.Advance detects and re-walks). Because the phase is absolute, an
// interior object's cell list depends on nothing but its geometry and the
// cell size, so a survivor's chains stay exactly what a fresh build on the
// grown window would produce.
//
// Cell coordinates are bounded to ±(2²⁰−1) around the anchor so a cell packs
// into a 63-bit key (21 bits per axis, biased); canCover rejects windows that
// would leave that range, and callers fall back to a fresh build.
const (
	latticeShift = 21
	latticeBias  = 1 << 20
)

// latticeKey packs world cell coordinates into a map key.
func latticeKey(ix, iy, iz int32) uint64 {
	return uint64(uint32(ix+latticeBias))<<(2*latticeShift) |
		uint64(uint32(iy+latticeBias))<<latticeShift |
		uint64(uint32(iz+latticeBias))
}

type lattice struct {
	cell   geom.Vec3 // cell side lengths; boundaries at integer multiples
	lo, hi [3]int32  // window: cells [lo, hi) per axis, absolute coordinates
	// clip is the exact region segments are clipped against — the query
	// bounds (or, after growth, the union of bounds the lifecycle has
	// covered). The cell-aligned window necessarily extends past it;
	// clipping against the exact bounds keeps the graph's edge statistics
	// identical to a bounds-aligned grid's.
	clip geom.AABB
}

// makeLattice derives the cell size the paper's parameterization implies
// (resolution ≈ total cells, split evenly across axes: round(∛resolution)
// cells per axis), quantized so equal-volume queries at different
// centers — whose computed sizes differ in the last ulps — get ONE bit-exact
// lattice phase, and snaps the smallest absolute-phase window around bounds.
// Quantization is a pure function of the bounds, so a lattice never depends
// on what the graph saw before — the parallel harness's byte-identical
// guarantee needs exactly that history-freedom.
func makeLattice(bounds geom.AABB, resolution int) lattice {
	n := latticeAxisCells(resolution)
	s := bounds.Size()
	f := float64(n)
	cell := geom.V(quantizeCell(s.X/f), quantizeCell(s.Y/f), quantizeCell(s.Z/f))
	return makeLatticeCell(bounds, cell)
}

// quantizeCell zeroes the low 20 mantissa bits of a cell size — a relative
// perturbation ≤ 2⁻³², far below geometric significance. Last-ulp size
// differences between equal-volume query boxes vanish under it, so every
// query of one volume gets one lattice with one bit-exact phase: a graph a
// sequence carries forward (CanAdvance) keeps cell boundaries where a
// fresh build of the next query would put them, and the goldens depend on
// that phase. CanAdvance does not hinge on the quantum: sameCell tolerates
// 1 ppb either way.
func quantizeCell(c float64) float64 {
	return math.Float64frombits(math.Float64bits(c) &^ (1<<20 - 1))
}

// makeLatticeCell builds the lattice for bounds with an explicit cell size.
func makeLatticeCell(bounds geom.AABB, cell geom.Vec3) lattice {
	l := lattice{cell: cell, clip: bounds}
	mins := [3]float64{bounds.Min.X, bounds.Min.Y, bounds.Min.Z}
	maxs := [3]float64{bounds.Max.X, bounds.Max.Y, bounds.Max.Z}
	cells := [3]float64{l.cell.X, l.cell.Y, l.cell.Z}
	for a := 0; a < 3; a++ {
		lo, hi, ok := coverRange(mins[a], maxs[a], cells[a])
		if !ok { // degenerate bounds; pin a single cell
			lo, hi = 0, 1
		}
		l.lo[a], l.hi[a] = int32(lo), int32(hi)
	}
	return l
}

func latticeAxisCells(resolution int) int32 {
	if resolution < 1 {
		resolution = 1
	}
	n := int32(math.Round(math.Cbrt(float64(resolution))))
	if n < 1 {
		n = 1
	}
	return n
}

// numCells returns the window's total cell count.
func (l *lattice) numCells() int {
	return int(l.hi[0]-l.lo[0]) * int(l.hi[1]-l.lo[1]) * int(l.hi[2]-l.lo[2])
}

// dims returns the window's per-axis cell counts.
func (l *lattice) dims() (nx, ny, nz int) {
	return int(l.hi[0] - l.lo[0]), int(l.hi[1] - l.lo[1]), int(l.hi[2] - l.lo[2])
}

// sameCell reports whether a lattice configured for (bounds, resolution)
// would use this lattice's cell size (within 1 ppb — queries of a guided
// sequence share one volume and shape, differing only in the last ulps;
// anything else forces a fresh build).
func (l *lattice) sameCell(bounds geom.AABB, resolution int) bool {
	s := bounds.Size()
	f := float64(latticeAxisCells(resolution))
	return cellApproxEq(geom.V(s.X/f, s.Y/f, s.Z/f), l.cell)
}

// cellApproxEq reports per-axis cell-size agreement within 1 ppb.
func cellApproxEq(a, b geom.Vec3) bool {
	return approxEqRel(a.X, b.X) && approxEqRel(a.Y, b.Y) && approxEqRel(a.Z, b.Z)
}

func approxEqRel(a, b float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	m := b
	if m < 0 {
		m = -m
	}
	return d <= 1e-9*m
}

// coverRange computes the cell range a box needs on one axis.
func coverRange(min, max, cell float64) (lo, hi int64, ok bool) {
	if cell <= 0 || math.IsInf(cell, 0) || math.IsNaN(cell) {
		return 0, 0, false
	}
	flo := math.Floor(min / cell)
	fhi := math.Ceil(max / cell)
	if math.IsNaN(flo) || math.IsNaN(fhi) || flo < -latticeBias+1 || fhi > latticeBias-1 {
		return 0, 0, false
	}
	lo, hi = int64(flo), int64(fhi)
	if hi <= lo {
		hi = lo + 1
	}
	return lo, hi, true
}

// canCover reports whether the window can grow to cover bounds without
// leaving the packed coordinate range or exceeding the flat-size guard.
func (l *lattice) canCover(bounds geom.AABB) bool {
	mins := [3]float64{bounds.Min.X, bounds.Min.Y, bounds.Min.Z}
	maxs := [3]float64{bounds.Max.X, bounds.Max.Y, bounds.Max.Z}
	cells := [3]float64{l.cell.X, l.cell.Y, l.cell.Z}
	for a := 0; a < 3; a++ {
		if _, _, ok := coverRange(mins[a], maxs[a], cells[a]); !ok {
			return false
		}
	}
	return true
}

// covers reports whether the current clip region already contains bounds.
func (l *lattice) covers(bounds geom.AABB) bool {
	return l.clip.ContainsBox(bounds)
}

// grow extends the clip region (and the cell window covering it, never
// shrinking) so it covers bounds. Callers must have checked canCover. It
// reports whether the clip region changed.
func (l *lattice) grow(bounds geom.AABB) bool {
	if l.clip.ContainsBox(bounds) {
		return false
	}
	l.clip = l.clip.Union(bounds)
	mins := [3]float64{l.clip.Min.X, l.clip.Min.Y, l.clip.Min.Z}
	maxs := [3]float64{l.clip.Max.X, l.clip.Max.Y, l.clip.Max.Z}
	cells := [3]float64{l.cell.X, l.cell.Y, l.cell.Z}
	for a := 0; a < 3; a++ {
		alo, ahi, ok := coverRange(mins[a], maxs[a], cells[a])
		if !ok {
			return true
		}
		if int32(alo) < l.lo[a] {
			l.lo[a] = int32(alo)
		}
		if int32(ahi) > l.hi[a] {
			l.hi[a] = int32(ahi)
		}
	}
	return true
}

// coordsClamped returns the world cell coordinates of p, clamped into the
// window, so a boundary point lands in the window's edge cell.
func (l *lattice) coordsClamped(p geom.Vec3) (ix, iy, iz int32) {
	ix = clampI32(floorCell(p.X, l.cell.X), l.lo[0], l.hi[0]-1)
	iy = clampI32(floorCell(p.Y, l.cell.Y), l.lo[1], l.hi[1]-1)
	iz = clampI32(floorCell(p.Z, l.cell.Z), l.lo[2], l.hi[2]-1)
	return
}

func floorCell(p, cell float64) int32 {
	if cell <= 0 {
		return 0
	}
	f := math.Floor(p / cell)
	if f < -latticeBias {
		f = -latticeBias
	}
	if f > latticeBias {
		f = latticeBias
	}
	return int32(f)
}

func clampI32(v, lo, hi int32) int32 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// strictlyContains reports whether p lies strictly inside the clip region.
// Points on (or outside) its boundary mark their segment as clipped: a later
// growth may uncover more of it, requiring a re-walk.
func (l *lattice) strictlyContains(p geom.Vec3) bool {
	w := l.clip
	return p.X > w.Min.X && p.X < w.Max.X &&
		p.Y > w.Min.Y && p.Y < w.Max.Y &&
		p.Z > w.Min.Z && p.Z < w.Max.Z
}

// denseIndex returns the window-local index of world cell (i, j, k): the
// dense directory's slot, x fastest.
func (l *lattice) denseIndex(i, j, k int32) int {
	nx, ny, _ := l.dims()
	return (int(k-l.lo[2])*ny+int(j-l.lo[1]))*nx + int(i-l.lo[0])
}

// denseKey maps a window-local index back to the cell's packed world key.
func (l *lattice) denseKey(c int) uint64 {
	nx, ny, _ := l.dims()
	return latticeKey(int32(c%nx)+l.lo[0], int32(c/nx%ny)+l.lo[1], int32(c/(nx*ny))+l.lo[2])
}

// segmentCells appends the directory index of every cell the segment passes
// through inside the window, in traversal order without duplicates: the
// window-local slot (denseIndex) when dense is set, else the packed world
// key (latticeKey). Both indices are affine in the cell coordinates, so the
// walk steps the index along with the coordinates — by ±1, ±nx or ±nx·ny
// for slots, by one coordinate field for keys — and never packs or
// unpacks one per cell. It is an Amanatides–Woo DDA on world-anchored
// coordinates, so the result is window-independent for unclipped segments.
func (l *lattice) segmentCells(s geom.Segment, dst []uint64, allInside, dense bool) []uint64 {
	// Fast path: a segment fully inside the window clips to (0, 1) — most
	// result objects are interior, and the slab divisions dominate short
	// walks.
	tmin, tmax := 0.0, 1.0
	if !allInside {
		var ok bool
		tmin, tmax, ok = s.ClipAABB(l.clip)
		if !ok {
			return dst
		}
	}
	// Nudge inward so the start point is strictly inside.
	const eps = 1e-9
	start := s.At(math.Min(tmin+eps, 1))
	i, j, k := l.coordsClamped(start)

	d := s.Dir().Scale(tmax - tmin) // direction over the clipped extent
	stepX, tMaxX, tDeltaX := latticeDDAAxis(start.X, d.X, l.cell.X, i)
	stepY, tMaxY, tDeltaY := latticeDDAAxis(start.Y, d.Y, l.cell.Y, j)
	stepZ, tMaxZ, tDeltaZ := latticeDDAAxis(start.Z, d.Z, l.cell.Z, k)

	var idx uint64
	var strideX, strideY, strideZ int64
	if dense {
		nx, ny, _ := l.dims()
		idx = uint64(l.denseIndex(i, j, k))
		strideX, strideY, strideZ = 1, int64(nx), int64(nx*ny)
	} else {
		idx = latticeKey(i, j, k)
		strideX, strideY, strideZ = 1<<(2*latticeShift), 1<<latticeShift, 1
	}
	// Two's complement: adding a negative step's stride wraps to the
	// subtraction, and the window keeps every index in range.
	dX := uint64(int64(stepX) * strideX)
	dY := uint64(int64(stepY) * strideY)
	dZ := uint64(int64(stepZ) * strideZ)

	for {
		dst = append(dst, idx)
		// Advance along the axis whose boundary is crossed first.
		if tMaxX <= tMaxY && tMaxX <= tMaxZ {
			if tMaxX > 1 {
				return dst
			}
			i += stepX
			if i < l.lo[0] || i >= l.hi[0] {
				return dst
			}
			idx += dX
			tMaxX += tDeltaX
		} else if tMaxY <= tMaxZ {
			if tMaxY > 1 {
				return dst
			}
			j += stepY
			if j < l.lo[1] || j >= l.hi[1] {
				return dst
			}
			idx += dY
			tMaxY += tDeltaY
		} else {
			if tMaxZ > 1 {
				return dst
			}
			k += stepZ
			if k < l.lo[2] || k >= l.hi[2] {
				return dst
			}
			idx += dZ
			tMaxZ += tDeltaZ
		}
	}
}

// latticeDDAAxis computes per-axis DDA stepping state against the absolute
// world cell boundaries (integer multiples of the cell size), so the walk of
// an interior segment is identical under every window of the same cell size.
func latticeDDAAxis(origin, dir, cellSize float64, cell int32) (step int32, tMax, tDelta float64) {
	if dir > 0 {
		boundary := float64(cell+1) * cellSize
		return 1, (boundary - origin) / dir, cellSize / dir
	}
	if dir < 0 {
		boundary := float64(cell) * cellSize
		return -1, (boundary - origin) / dir, -cellSize / dir
	}
	return 0, math.Inf(1), math.Inf(1)
}

// sameClip reports whether the segment's clipped extent is identical under
// both windows — if so, a walk performed under the old window is already
// complete under the new one and no re-walk is needed.
func sameClip(old, cur *lattice, s geom.Segment) bool {
	a0, b0, ok0 := s.ClipAABB(old.clip)
	a1, b1, ok1 := s.ClipAABB(cur.clip)
	if ok0 != ok1 {
		return false
	}
	return !ok0 || (a0 == a1 && b0 == b1)
}
