package geom

// Region is a query region: an axis-aligned box for most workloads, a view
// frustum for the walkthrough-visualization use case. Consumers take the
// frustum path when the region is a Frustum and treat any other region as
// its Bounds() box, so a Region is either a Frustum or a box (an AABB, or a
// *AABB that shares a plan's own box without copying it). They select the
// frustum path with a one-case type switch: a failed comma-ok assertion
// would zero a 384-byte Frustum on every box call.
type Region interface {
	// Bounds returns an axis-aligned box containing the region; for a box,
	// the box itself.
	Bounds() AABB
	// Volume returns the volume of the region.
	Volume() float64
}

// Bounds returns the box itself, satisfying Region.
func (b AABB) Bounds() AABB { return b }

var (
	_ Region = AABB{}
	_ Region = Frustum{}
)
