package dataset

import (
	"math/rand"

	"scout/internal/geom"
	"scout/internal/pagestore"
)

// treeParams configures the neuron dataset's branching-tree skeleton. A tree
// grows depth first from a root as a set of tortuous walks that occasionally
// bifurcate; the continuation of the main walk keeps its depth budget so
// root-to-tip paths are long enough to guide multi-query sequences. The
// artery and airway datasets share the breadth-first vessel skeleton
// instead (growVessels).
type treeParams struct {
	// SegLen is the length of one skeleton segment (one cylinder), in µm.
	SegLen float64
	// Tortuosity controls the per-step direction noise (0 = straight).
	Tortuosity float64
	// KinkProb is the per-step probability of a sharp turn (a bend), the
	// events that make query traces jagged at query scale (§3.3: "the
	// structure being followed bifurcates or bends, leading to a jagged
	// query trace").
	KinkProb float64
	// KinkAngle is the mean magnitude (radians) of a kink turn.
	KinkAngle float64
	// BifurcateProb is the per-step probability of spawning a side branch.
	BifurcateProb float64
	// BranchAngle is the mean angle (radians) between a new side branch and
	// the parent direction.
	BranchAngle float64
	// SideBudgetFrac is the fraction of the remaining budget granted to a
	// side branch (the main walk keeps the rest).
	SideBudgetFrac float64
	// Radius0 is the root radius; RadiusDecay multiplies it per branch
	// generation.
	Radius0, RadiusDecay float64
	// MaxGen bounds branch generations.
	MaxGen int
}

// branchNode is one branch of a grown skeleton: the point it starts from
// (the soma, or the point of its parent where it forked), the cylinders it
// emitted in order, and the branches that forked off it. Its polyline is
// start followed by each cylinder's end point, read back from the emitted
// objects, so the skeleton holds no second copy of the endpoints.
type branchNode struct {
	start    geom.Vec3
	segs     []int32 // indices into the generator's objects
	children []*branchNode
	gen      int
}

// growTree grows one tree skeleton from root in direction dir, emitting at
// most budget segments. Objects (cylinders) are appended to *objs with the
// given structure id; the skeleton is returned for path sampling.
func growTree(rng *rand.Rand, world geom.AABB, p treeParams,
	root geom.Vec3, dir geom.Vec3, budget int, structID int32,
	objs *[]pagestore.Object) *branchNode {

	node := &branchNode{start: root}
	grow(rng, world, p, node, dir, budget, structID, objs)
	return node
}

// grow extends node with a walk and recursively spawns side branches.
// It returns the number of segments emitted.
func grow(rng *rand.Rand, world geom.AABB, p treeParams,
	node *branchNode, dir geom.Vec3, budget int, structID int32,
	objs *[]pagestore.Object) int {

	pos := node.start
	used := 0
	radius := p.Radius0
	for g := 0; g < node.gen; g++ {
		radius *= p.RadiusDecay
	}
	for used < budget {
		dir = perturbDir(rng, dir, p.Tortuosity)
		if p.KinkProb > 0 && rng.Float64() < p.KinkProb {
			dir = perturbDir(rng, dir, p.KinkAngle)
		}
		next := pos.Add(dir.Scale(p.SegLen))
		if !world.Contains(next) {
			dir = reflectInto(world, next, dir)
			next = pos.Add(dir.Scale(p.SegLen))
			// A doubly-cornered walk may still escape; clamp as last resort.
			next = world.ClosestPoint(next)
			if next.Dist(pos) < p.SegLen/4 {
				break // wedged in a corner: stop this branch
			}
		}
		node.segs = append(node.segs, int32(len(*objs)))
		*objs = append(*objs, pagestore.Object{
			Seg:    geom.Seg(pos, next),
			Radius: radius,
			Struct: structID,
		})
		pos = next
		used++

		if node.gen < p.MaxGen && rng.Float64() < p.BifurcateProb && budget-used > 8 {
			side := int(float64(budget-used) * p.SideBudgetFrac)
			if side > 0 {
				child := &branchNode{start: pos, gen: node.gen + 1}
				node.children = append(node.children, child)
				childDir := perturbDir(rng, dir, p.BranchAngle)
				used += grow(rng, world, p, child, childDir, side, structID, objs)
			}
		}
	}
	return used
}

// samplePaths extracts up to k distinct root-to-tip polylines from the
// skeleton by random descent, preferring deeper tips; objs holds the
// cylinders the skeleton's segs index. These become the dataset's guiding
// structures. Each descent is recorded first, so a path is allocated once at
// its exact length.
func samplePaths(rng *rand.Rand, root *branchNode, k int, objs []pagestore.Object) [][]geom.Vec3 {
	if k <= 0 {
		return nil
	}
	var paths [][]geom.Vec3
	var descent []*branchNode
	for attempt := 0; attempt < k*3 && len(paths) < k; attempt++ {
		descent = descent[:0]
		n := 1 // root.start
		for node := root; ; node = node.children[rng.Intn(len(node.children))] {
			descent = append(descent, node)
			n += len(node.segs)
			if len(node.children) == 0 {
				break
			}
		}
		path := make([]geom.Vec3, 1, n)
		path[0] = root.start
		for _, node := range descent {
			for _, s := range node.segs {
				path = append(path, objs[s].Seg.B)
			}
		}
		if len(path) >= 2 && !duplicatePath(paths, path) {
			paths = append(paths, path)
		}
	}
	return paths
}

// duplicatePath reports whether the path's tip matches an already-sampled
// path (random descent can repeat).
func duplicatePath(paths [][]geom.Vec3, p []geom.Vec3) bool {
	tip := p[len(p)-1]
	for _, q := range paths {
		if q[len(q)-1] == tip {
			return true
		}
	}
	return false
}
