package dataset

import (
	"math"
	"math/rand"

	"scout/internal/geom"
	"scout/internal/pagestore"
)

// vesselShape is a vessel tree's morphology, the skeleton the artery and
// airway datasets share: each root branch is a smooth walk that bifurcates at
// its tip into two shorter, thinner children, level by level, until the
// object budget is spent. Each dataset has one (arteryShape, lungShape).
type vesselShape struct {
	// Roots is the number of trees.
	Roots int
	// TrunkLen is the length of a root branch in µm; children shrink by
	// LenDecay per generation.
	TrunkLen, LenDecay float64
	// SegLen is the length of one walk step in µm.
	SegLen float64
	// Radius0 is the trunk radius; children shrink by RadiusDecay.
	Radius0, RadiusDecay float64
	// BranchAngle is the half-angle between sibling branches, radians.
	BranchAngle float64
	// Tortuosity is the per-step direction noise.
	Tortuosity float64
}

// vessel is one branch of a vessel tree: where it starts and heads, the
// points its walk reached, and the branch it forked from. Its root-to-tip
// polyline is its root's start followed by the points of every branch on
// the way down, so no branch holds a copy of its parent's.
type vessel struct {
	parent         *vessel
	start, dir     geom.Vec3
	length, radius float64
	gen            int32
	points         []geom.Vec3
	// tail is the ID of the first object the walk's last step emitted.
	tail pagestore.ObjectID
}

// growVessels grows sh.Roots vessel trees into *objs until it holds
// numObjects objects (the fractal construction stops adding levels when the
// budget is exhausted). place draws each root's start and heading; step
// appends the objects of step s of branch b, which walks from pos to next
// heading dir. It returns the guiding structures: up to 512 root-to-tip
// polylines spread evenly over the tips (recording every tip of a fractal
// tree would be redundant).
func growVessels(rng *rand.Rand, world geom.AABB, sh vesselShape, numObjects int, objs *[]pagestore.Object,
	place func() (pos, dir geom.Vec3), step func(b *vessel, s int, pos, next, dir geom.Vec3)) []Structure {
	more := func() bool { return len(*objs) < numObjects }
	var queue []*vessel
	for range sh.Roots {
		pos, dir := place()
		queue = append(queue, &vessel{start: pos, dir: dir, length: sh.TrunkLen, radius: sh.Radius0})
	}

	// Breadth-first growth: expand the shallowest branch next so the budget
	// is spent level by level, as in anatomical trees.
	var tips []*vessel
	for len(queue) > 0 && more() {
		b := queue[0]
		queue = queue[1:]
		steps := int(math.Max(1, b.length/sh.SegLen))
		b.points = make([]geom.Vec3, 0, steps)
		pos, dir := b.start, b.dir
		for s := 0; s < steps && more(); s++ {
			dir = perturbDir(rng, dir, sh.Tortuosity)
			next := pos.Add(dir.Scale(sh.SegLen))
			if !world.Contains(next) {
				dir = reflectInto(world, next, dir)
				next = world.ClosestPoint(pos.Add(dir.Scale(sh.SegLen)))
			}
			b.tail = pagestore.ObjectID(len(*objs))
			step(b, s, pos, next, dir)
			b.points = append(b.points, next)
			pos = next
		}

		childLen := b.length * sh.LenDecay
		if childLen < sh.SegLen*2 || !more() {
			tips = append(tips, b)
			continue
		}
		// Bifurcate: two children splayed ±BranchAngle around the tip
		// direction, rotated by a random roll.
		u, w := dir.Orthonormal()
		roll := rng.Float64() * 2 * math.Pi
		side := u.Scale(math.Cos(roll)).Add(w.Scale(math.Sin(roll)))
		for _, sign := range []float64{1, -1} {
			cd := dir.Scale(math.Cos(sh.BranchAngle)).
				Add(side.Scale(sign * math.Sin(sh.BranchAngle))).Normalize()
			queue = append(queue, &vessel{parent: b, start: pos, dir: cd, length: childLen,
				radius: b.radius * sh.RadiusDecay, gen: b.gen + 1})
		}
	}
	// A branch still queued never grew, so its polyline is its parent's
	// (a root's is its lone start point): its parent is a tip once more.
	tips = append(tips, queue...)

	const maxStructures = 512
	stride := 1
	if len(tips) > maxStructures {
		stride = len(tips) / maxStructures
	}
	var structures []Structure
	for i := 0; i < len(tips); i += stride {
		if pts := tips[i].polyline(); len(pts) >= 2 {
			structures = append(structures, NewStructure(int32(len(structures)), pts))
		}
	}
	return structures
}

// polyline returns b's root-to-tip polyline, allocated at its exact length.
func (b *vessel) polyline() []geom.Vec3 {
	n := 1
	for v := b; v != nil; v = v.parent {
		n += len(v.points)
	}
	pts := make([]geom.Vec3, n)
	for v := b; ; v = v.parent {
		n -= len(v.points)
		copy(pts[n:], v.points)
		if v.parent == nil {
			pts[0] = v.start
			return pts
		}
	}
}
