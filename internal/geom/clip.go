package geom

// ClipSegment clips a segment against the frustum's six planes and returns
// the parameter range [tmin, tmax] ⊆ [0,1] inside the frustum, with ok false
// when the segment misses it entirely. The planes are read in place (see
// Contains).
func (f *Frustum) ClipSegment(s Segment) (tmin, tmax float64, ok bool) {
	tmin, tmax = 0, 1
	d := s.Dir()
	for i := range f.planes {
		pl := &f.planes[i]
		da := pl.signedDist(s.A)
		dd := pl.n.Dot(d)
		if dd == 0 {
			if da < 0 {
				return 0, 0, false // parallel and outside this half-space
			}
			continue
		}
		t := -da / dd
		if dd > 0 { // entering the half-space at t
			if t > tmin {
				tmin = t
			}
		} else { // leaving the half-space at t
			if t < tmax {
				tmax = t
			}
		}
		if tmin > tmax {
			return 0, 0, false
		}
	}
	return tmin, tmax, true
}
