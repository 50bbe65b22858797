package prefetch

import (
	"fmt"
	"math"

	"scout/internal/geom"
)

// ladderSteps is the shared incremental-request ladder length. All
// location-extrapolating prefetchers use the same ladder so comparisons
// isolate the quality of the *prediction*, not the prefetch mechanics.
const ladderSteps = 6

// None is the no-prefetching baseline the paper's speedups are measured
// against ("compared to no prefetching", Figure 11b).
type None struct{}

// Name implements Prefetcher.
func (None) Name() string { return "None" }

// Observe implements Prefetcher.
func (None) Observe(Observation) {}

// Plan implements Prefetcher.
func (None) Plan() Plan { return Plan{} }

// Reset implements Prefetcher.
func (None) Reset() {}

// StraightLine is the Straight Line Extrapolation baseline (§2.2, [26]):
// the last two query positions are extrapolated linearly.
type StraightLine struct {
	centers []geom.Vec3
	volume  float64
	// initVolume is the constructor's volume, restored by Reset so a reset
	// prefetcher is indistinguishable from a fresh one (the parallel
	// executor's determinism contract; see Cloner).
	initVolume float64
}

// NewStraightLine creates the baseline; volume is the expected query volume
// used to size prefetch regions.
func NewStraightLine(volume float64) *StraightLine {
	return &StraightLine{volume: volume, initVolume: volume}
}

// Name implements Prefetcher.
func (s *StraightLine) Name() string { return "Straight Line" }

// Observe implements Prefetcher.
func (s *StraightLine) Observe(obs Observation) {
	s.centers = append(s.centers, obs.Center)
	if v := obs.Region.Volume(); v > 0 {
		s.volume = v
	}
}

// Plan implements Prefetcher.
func (s *StraightLine) Plan() Plan {
	n := len(s.centers)
	if n < 2 {
		return Plan{}
	}
	delta := s.centers[n-1].Sub(s.centers[n-2])
	if delta.Len() == 0 {
		return Plan{}
	}
	next := s.centers[n-1].Add(delta)
	dir := delta.Normalize()
	anchor := next.Sub(dir.Scale(math.Cbrt(s.volume) / 2))
	return Plan{Requests: IncrementalRequests(anchor, dir, s.volume, ladderSteps)}
}

// Reset implements Prefetcher.
func (s *StraightLine) Reset() {
	s.centers = s.centers[:0]
	s.volume = s.initVolume
}

// Polynomial is the Polynomial extrapolation baseline (§2.2, [4, 5]): the
// last degree+1 query positions are interpolated with a polynomial of the
// given degree per coordinate and evaluated one step ahead. Following §3.3,
// it uses "as many recent query locations to interpolate as their degree
// plus one".
type Polynomial struct {
	degree     int
	centers    []geom.Vec3
	volume     float64
	initVolume float64
}

// NewPolynomial creates the baseline with the given degree (≥ 1).
func NewPolynomial(degree int, volume float64) *Polynomial {
	if degree < 1 {
		panic("prefetch: polynomial degree must be >= 1")
	}
	return &Polynomial{degree: degree, volume: volume, initVolume: volume}
}

// Name implements Prefetcher.
func (p *Polynomial) Name() string { return fmt.Sprintf("Polynomial Degree %d", p.degree) }

// Observe implements Prefetcher.
func (p *Polynomial) Observe(obs Observation) {
	p.centers = append(p.centers, obs.Center)
	if v := obs.Region.Volume(); v > 0 {
		p.volume = v
	}
}

// Plan implements Prefetcher.
func (p *Polynomial) Plan() Plan {
	k := p.degree + 1 // points needed
	n := len(p.centers)
	if n < k {
		return Plan{}
	}
	pts := p.centers[n-k:]
	// Lagrange extrapolation at t = k for sample points t = 0..k−1.
	next := lagrangeExtrapolate(pts)
	delta := next.Sub(p.centers[n-1])
	if delta.Len() == 0 {
		return Plan{}
	}
	dir := delta.Normalize()
	anchor := next.Sub(dir.Scale(math.Cbrt(p.volume) / 2))
	return Plan{Requests: IncrementalRequests(anchor, dir, p.volume, ladderSteps)}
}

// Reset implements Prefetcher.
func (p *Polynomial) Reset() {
	p.centers = p.centers[:0]
	p.volume = p.initVolume
}

// lagrangeExtrapolate evaluates, at t = len(pts), the unique polynomial of
// degree len(pts)−1 through (i, pts[i]).
func lagrangeExtrapolate(pts []geom.Vec3) geom.Vec3 {
	k := len(pts)
	t := float64(k)
	var out geom.Vec3
	for i := 0; i < k; i++ {
		w := 1.0
		for j := 0; j < k; j++ {
			if j == i {
				continue
			}
			w *= (t - float64(j)) / (float64(i) - float64(j))
		}
		out = out.Add(pts[i].Scale(w))
	}
	return out
}

// EWMA is the exponentially-weighted-moving-average baseline (§2.2, [7]):
// each past movement vector is weighted — the last with λ, the second-to-
// last with (1−λ)λ, and so on — and the weighted average is extrapolated.
// The paper finds λ = 0.3 the best configuration (§3.3).
type EWMA struct {
	lambda   float64
	last     geom.Vec3
	smoothed geom.Vec3
	// stepLen smooths the movement magnitudes separately: averaging
	// direction-decorrelated vectors shrinks their sum, which would make
	// the extrapolated step undershoot systematically.
	stepLen    float64
	seen       int
	volume     float64
	initVolume float64
}

// NewEWMA creates the baseline with weighting factor lambda in (0, 1].
func NewEWMA(lambda, volume float64) *EWMA {
	if lambda <= 0 || lambda > 1 {
		panic("prefetch: EWMA lambda must be in (0,1]")
	}
	return &EWMA{lambda: lambda, volume: volume, initVolume: volume}
}

// Name implements Prefetcher.
func (e *EWMA) Name() string { return fmt.Sprintf("EWMA (λ = %.1f)", e.lambda) }

// Observe implements Prefetcher.
func (e *EWMA) Observe(obs Observation) {
	if e.seen > 0 {
		delta := obs.Center.Sub(e.last)
		if e.seen == 1 {
			e.smoothed = delta
			e.stepLen = delta.Len()
		} else {
			e.smoothed = delta.Scale(e.lambda).Add(e.smoothed.Scale(1 - e.lambda))
			e.stepLen = e.lambda*delta.Len() + (1-e.lambda)*e.stepLen
		}
	}
	e.last = obs.Center
	e.seen++
	if v := obs.Region.Volume(); v > 0 {
		e.volume = v
	}
}

// Plan implements Prefetcher.
func (e *EWMA) Plan() Plan {
	if e.seen < 2 || e.smoothed.Len() == 0 {
		return Plan{}
	}
	dir := e.smoothed.Normalize()
	next := e.last.Add(dir.Scale(e.stepLen))
	anchor := next.Sub(dir.Scale(math.Cbrt(e.volume) / 2))
	return Plan{Requests: IncrementalRequests(anchor, dir, e.volume, ladderSteps)}
}

// Reset implements Prefetcher.
func (e *EWMA) Reset() {
	e.seen = 0
	e.smoothed = geom.Vec3{}
	e.last = geom.Vec3{}
	e.stepLen = 0
	e.volume = e.initVolume
}

// Hilbert is the Hilbert-Prefetch static baseline (§2.1, [22]): space is
// cut into grid cells ordered by their Hilbert value, and the cells with
// values adjacent to the current location's cell are prefetched. The grid
// resolution is chosen so a cell is roughly one query in size — cells far
// smaller than the query would make "adjacent Hilbert value" a no-op, and
// far larger ones would prefetch indiscriminately.
type Hilbert struct {
	world geom.AABB
	// span is how many Hilbert neighbors to prefetch on each side.
	span int
	// bits is the per-axis resolution (2^bits cells), derived from the
	// observed query volume.
	bits int
	// initVolume/initBits are the constructor's parameters, restored by
	// Reset (see StraightLine.initVolume).
	initVolume float64
	initBits   int
	cur        geom.Vec3
	seen       bool
}

// NewHilbert creates the baseline over the dataset's world bounds; volume is
// the expected query volume used to size the Hilbert cells.
func NewHilbert(world geom.AABB, volume float64, span int) *Hilbert {
	if span < 1 {
		span = 4
	}
	h := &Hilbert{world: world, span: span, bits: 4, initVolume: volume}
	h.setBits(volume)
	h.initBits = h.bits
	return h
}

func (h *Hilbert) setBits(volume float64) {
	if volume <= 0 {
		return
	}
	worldSide := math.Cbrt(h.world.Volume())
	querySide := math.Cbrt(volume)
	if querySide <= 0 {
		return
	}
	bits := int(math.Round(math.Log2(worldSide / querySide)))
	if bits < 1 {
		bits = 1
	}
	if bits > geom.HilbertBits {
		bits = geom.HilbertBits
	}
	h.bits = bits
}

// Name implements Prefetcher.
func (h *Hilbert) Name() string { return "Hilbert" }

// Observe implements Prefetcher.
func (h *Hilbert) Observe(obs Observation) {
	h.cur = obs.Center
	h.seen = true
	h.setBits(obs.Region.Volume())
}

// Plan implements Prefetcher.
func (h *Hilbert) Plan() Plan {
	if !h.seen {
		return Plan{}
	}
	key := geom.HilbertKeyBits(h.cur, h.world, h.bits)
	maxKey := uint64(1)<<(3*uint(h.bits)) - 1
	reqs := make([]geom.AABB, 0, 2*h.span)
	// Nearest Hilbert neighbors first: +1, −1, +2, −2, ...
	for d := 1; d <= h.span; d++ {
		if k := key + uint64(d); k <= maxKey {
			reqs = append(reqs, geom.HilbertCellBoundsBits(k, h.world, h.bits))
		}
		if uint64(d) <= key {
			reqs = append(reqs, geom.HilbertCellBoundsBits(key-uint64(d), h.world, h.bits))
		}
	}
	return Plan{Requests: reqs}
}

// Reset implements Prefetcher.
func (h *Hilbert) Reset() {
	h.seen = false
	h.bits = h.initBits
}

// Clone implements Cloner.
func (None) Clone() Prefetcher { return None{} }

// Clone implements Cloner. Clones are built from the constructor-time
// parameters (not the Observe-mutated state), matching what Reset restores.
func (s *StraightLine) Clone() Prefetcher { return NewStraightLine(s.initVolume) }

// Clone implements Cloner.
func (p *Polynomial) Clone() Prefetcher { return NewPolynomial(p.degree, p.initVolume) }

// Clone implements Cloner.
func (e *EWMA) Clone() Prefetcher { return NewEWMA(e.lambda, e.initVolume) }

// Clone implements Cloner.
func (h *Hilbert) Clone() Prefetcher { return NewHilbert(h.world, h.initVolume, h.span) }

var (
	_ Prefetcher = None{}
	_ Prefetcher = (*StraightLine)(nil)
	_ Prefetcher = (*Polynomial)(nil)
	_ Prefetcher = (*EWMA)(nil)
	_ Prefetcher = (*Hilbert)(nil)
	_ Cloner     = None{}
	_ Cloner     = (*StraightLine)(nil)
	_ Cloner     = (*Polynomial)(nil)
	_ Cloner     = (*EWMA)(nil)
	_ Cloner     = (*Hilbert)(nil)
)
