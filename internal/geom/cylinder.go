package geom

import "math"

// Cylinder is the geometry of the neuroscience and arterial-tree datasets: a
// tube between two endpoints with a (possibly different) radius at each end,
// exactly as the paper describes ("each cylinder is described by two end
// points and a radius for each endpoint", §7.1). The stores keep each one
// as its axis and one radius (pagestore.Object); the model-building example
// measures synapse distances on Cylinders.
type Cylinder struct {
	P0, P1 Vec3
	R0, R1 float64
}

// Cyl constructs a Cylinder.
func Cyl(p0, p1 Vec3, r0, r1 float64) Cylinder {
	return Cylinder{P0: p0, P1: p1, R0: r0, R1: r1}
}

// Axis returns the center-line segment of the cylinder. This is the
// line-segment simplification SCOUT uses for graph building (paper §4.2:
// "we approximate the cylindrical object by a straight line").
func (c Cylinder) Axis() Segment { return Segment{A: c.P0, B: c.P1} }

// MaxRadius returns the larger of the two endpoint radii.
func (c Cylinder) MaxRadius() float64 { return math.Max(c.R0, c.R1) }

// DistToCylinder returns the (conservative) minimum surface distance between
// two cylinders: axis-to-axis distance minus both maximum radii, clamped at
// zero. Used by the model-building example to detect synapse locations.
func (c Cylinder) DistToCylinder(o Cylinder) float64 {
	d := c.Axis().DistToSegment(o.Axis()) - c.MaxRadius() - o.MaxRadius()
	return math.Max(0, d)
}
