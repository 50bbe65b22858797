package prefetch

import (
	"math"
	"testing"

	"scout/internal/geom"
)

func obsAt(seq int, c geom.Vec3, volume float64) Observation {
	return Observation{Seq: seq, Center: c, Region: geom.CubeAt(c, volume)}
}

// planCenter returns the centroid of the last (largest) request region,
// which tracks the predicted location.
func planCenter(p Plan) geom.Vec3 {
	if len(p.Requests) == 0 {
		return geom.Vec3{}
	}
	return p.Requests[len(p.Requests)-1].Center()
}

func TestNonePlansNothing(t *testing.T) {
	var n None
	n.Observe(obsAt(0, geom.V(0, 0, 0), 1000))
	if p := n.Plan(); len(p.Requests) != 0 {
		t.Error("None planned requests")
	}
	if n.Name() != "None" {
		t.Error("name")
	}
}

func TestStraightLinePredictsLinearly(t *testing.T) {
	s := NewStraightLine(80_000)
	if p := s.Plan(); len(p.Requests) != 0 {
		t.Error("plan before two observations")
	}
	s.Observe(obsAt(0, geom.V(0, 0, 0), 80_000))
	if p := s.Plan(); len(p.Requests) != 0 {
		t.Error("plan after one observation")
	}
	s.Observe(obsAt(1, geom.V(10, 0, 0), 80_000))
	p := s.Plan()
	if len(p.Requests) == 0 {
		t.Fatal("no plan after two observations")
	}
	want := geom.V(20, 0, 0)
	got := planCenter(p)
	if got.Dist(want) > 15 { // ladder centers shift along the axis
		t.Errorf("prediction center %v, want near %v", got, want)
	}
	// The predicted point must be covered by at least one request.
	covered := false
	for _, r := range p.Requests {
		if r.Contains(want) {
			covered = true
		}
	}
	if !covered {
		t.Error("predicted point not covered by any request")
	}
	s.Reset()
	if p := s.Plan(); len(p.Requests) != 0 {
		t.Error("plan after reset")
	}
}

func TestPolynomialExactOnQuadratic(t *testing.T) {
	// Points on x(t) = t², straight in y,z: degree 2 extrapolates exactly.
	p := NewPolynomial(2, 1000)
	for i := 0; i < 3; i++ {
		tt := float64(i)
		p.Observe(obsAt(i, geom.V(tt*tt, 2*tt, 0), 1000))
	}
	plan := p.Plan()
	if len(plan.Requests) == 0 {
		t.Fatal("no plan")
	}
	want := geom.V(9, 6, 0) // t = 3
	covered := false
	for _, r := range plan.Requests {
		if r.Contains(want) {
			covered = true
		}
	}
	if !covered {
		t.Errorf("exact quadratic prediction %v not covered", want)
	}
}

func TestPolynomialNeedsDegreePlusOnePoints(t *testing.T) {
	p := NewPolynomial(3, 1000)
	for i := 0; i < 3; i++ {
		p.Observe(obsAt(i, geom.V(float64(i), 0, 0), 1000))
	}
	if plan := p.Plan(); len(plan.Requests) != 0 {
		t.Error("degree-3 planned with only 3 points")
	}
	p.Observe(obsAt(3, geom.V(3, 0, 0), 1000))
	if plan := p.Plan(); len(plan.Requests) == 0 {
		t.Error("degree-3 did not plan with 4 points")
	}
}

func TestPolynomialDegreeValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("degree 0 accepted")
		}
	}()
	NewPolynomial(0, 1000)
}

func TestLagrangeExtrapolateLinear(t *testing.T) {
	pts := []geom.Vec3{geom.V(0, 0, 0), geom.V(1, 2, 3)}
	got := lagrangeExtrapolate(pts)
	want := geom.V(2, 4, 6)
	if got.Dist(want) > 1e-9 {
		t.Errorf("lagrange = %v, want %v", got, want)
	}
}

func TestEWMAConvergesOnConstantVelocity(t *testing.T) {
	e := NewEWMA(0.3, 1000)
	for i := 0; i < 10; i++ {
		e.Observe(obsAt(i, geom.V(float64(i)*5, 0, 0), 1000))
	}
	plan := e.Plan()
	want := geom.V(50, 0, 0)
	covered := false
	for _, r := range plan.Requests {
		if r.Contains(want) {
			covered = true
		}
	}
	if !covered {
		t.Errorf("EWMA did not predict constant-velocity next point %v", want)
	}
}

func TestEWMAWeightsRecentMovesMore(t *testing.T) {
	// A turn: moves +x then +y. With λ=0.9 the smoothed vector should lean
	// strongly toward +y.
	e := NewEWMA(0.9, 1000)
	e.Observe(obsAt(0, geom.V(0, 0, 0), 1000))
	e.Observe(obsAt(1, geom.V(10, 0, 0), 1000))
	e.Observe(obsAt(2, geom.V(10, 10, 0), 1000))
	if e.smoothed.Y <= e.smoothed.X {
		t.Errorf("smoothed = %v, expected Y > X", e.smoothed)
	}
}

func TestEWMAValidation(t *testing.T) {
	for _, bad := range []float64{0, -1, 1.5} {
		func() {
			defer func() { recover() }()
			NewEWMA(bad, 1000)
			t.Errorf("lambda %v accepted", bad)
		}()
	}
}

func TestHilbertPlansNeighborCells(t *testing.T) {
	world := geom.Box(geom.V(0, 0, 0), geom.V(100, 100, 100))
	h := NewHilbert(world, 1000, 4)
	if p := h.Plan(); len(p.Requests) != 0 {
		t.Error("plan before observation")
	}
	h.Observe(obsAt(0, geom.V(50, 50, 50), 1000))
	p := h.Plan()
	if len(p.Requests) != 8 {
		t.Fatalf("requests = %d, want 8", len(p.Requests))
	}
	// Cells are query-sized: world side 100, query side 10 → 2^3 cells/axis.
	if h.bits != 3 {
		t.Errorf("bits = %d, want 3", h.bits)
	}
	key := geom.HilbertKeyBits(geom.V(50, 50, 50), world, h.bits)
	for _, r := range p.Requests {
		c := r.Center()
		k := geom.HilbertKeyBits(c, world, h.bits)
		d := int64(k) - int64(key)
		if d < -4 || d > 4 || d == 0 {
			t.Errorf("request cell at Hilbert distance %d", d)
		}
	}
}

func TestIncrementalRequestsGrowAndShift(t *testing.T) {
	center := geom.V(100, 0, 0)
	dir := geom.V(1, 0, 0)
	reqs := IncrementalRequests(center, dir, 80_000, 6)
	if len(reqs) != 6 {
		t.Fatalf("requests = %d", len(reqs))
	}
	prevVol := 0.0
	prevX := -math.MaxFloat64
	for i, r := range reqs {
		v := r.Volume()
		if v <= prevVol {
			t.Errorf("request %d volume %v not growing", i, v)
		}
		x := r.Center().X
		if x < prevX {
			t.Errorf("request %d center moved backwards", i)
		}
		prevVol, prevX = v, x
	}
	// Last request is bigger than the original query.
	if last := reqs[len(reqs)-1].Volume(); last < 80_000 {
		t.Errorf("final request volume %v below query volume", last)
	}
	// First request is small (closest data first).
	if first := reqs[0].Volume(); first > 80_000 {
		t.Errorf("first request volume %v above query volume", first)
	}
	// steps < 1 clamps.
	if got := IncrementalRequests(center, dir, 1000, 0); len(got) != 1 {
		t.Errorf("clamped steps = %d", len(got))
	}
}

func TestResets(t *testing.T) {
	world := geom.Box(geom.V(0, 0, 0), geom.V(100, 100, 100))
	ps := []Prefetcher{
		NewStraightLine(1000),
		NewPolynomial(2, 1000),
		NewEWMA(0.3, 1000),
		NewHilbert(world, 1000, 4),
	}
	for _, p := range ps {
		for i := 0; i < 5; i++ {
			p.Observe(obsAt(i, geom.V(float64(i)*10, 50, 50), 1000))
		}
		p.Reset()
		if plan := p.Plan(); len(plan.Requests) != 0 {
			t.Errorf("%s planned after Reset", p.Name())
		}
	}
}

// TestPlanAllocatesOneSlice: a baseline's plan is one slice of boxes, so
// Plan allocates exactly once. A per-request allocation (a request boxed
// into an interface, say) multiplies it by the plan's length.
func TestPlanAllocatesOneSlice(t *testing.T) {
	world := geom.Box(geom.V(0, 0, 0), geom.V(100, 100, 100))
	ps := []Prefetcher{
		NewStraightLine(1000),
		NewPolynomial(2, 1000),
		NewEWMA(0.3, 1000),
		NewHilbert(world, 1000, 4),
	}
	for _, p := range ps {
		for i := 0; i < 5; i++ {
			p.Observe(obsAt(i, geom.V(float64(i)*10, 40+float64(i*i), 50), 1000))
		}
		if len(p.Plan().Requests) == 0 {
			t.Fatalf("%s planned nothing", p.Name())
		}
		if got := testing.AllocsPerRun(20, func() { p.Plan() }); got != 1 {
			t.Errorf("%s: Plan made %v allocations, want 1", p.Name(), got)
		}
	}
}
