package main

import (
	"math"
	"testing"
	"time"
)

func seq(n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = float64(n - i) // descending: percentile must not rely on input order
	}
	return v
}

// TestPercentileNeedsTenBeyond: a percentile the sample cannot support is
// refused, not printed.
func TestPercentileNeedsTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		p    float64
		want float64 // 0: refused
	}{
		{100, 90, 90}, {99, 90, 0}, {20, 50, 10}, {18, 50, 0},
		{1000, 99, 990}, {999, 99, 0}, {11, 1, 1}, {10, 1, 0}, {0, 50, 0},
	} {
		got, err := percentile(seq(c.n), c.p, 10)
		if (err != nil) != (c.want == 0) || got != c.want {
			t.Errorf("p%g of %d samples = %g, %v; want %g", c.p, c.n, got, err, c.want)
		}
	}
	in := seq(100)
	if _, err := percentile(in, 90, 10); err != nil || in[0] != 100 {
		t.Errorf("percentile modified its input or failed: %v", err)
	}
}

func TestMedianOverPasses(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want float64
	}{
		{nil, 0}, {[]float64{3}, 3}, {[]float64{9, 1, 5}, 5}, {[]float64{4, 1, 3, 2}, 2.5},
		// One pass hit by a stall does not move the median.
		{[]float64{900, 905, 120, 902, 899}, 900},
	} {
		if got := median(c.in); got != c.want {
			t.Errorf("median(%v) = %g, want %g", c.in, got, c.want)
		}
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(v, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	q1, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles of 1..10 = %g, %g; Python gives 2.75, 8.25", q1, q3)
	}
	q1, q3 = quartiles([]float64{10, 20, 40, 80})
	if q1 != 12.5 || q3 != 70 {
		t.Errorf("quartiles of 10,20,40,80 = %g, %g; Python gives 12.5, 70", q1, q3)
	}
}

// TestSelfTime: self time is the duration minus the union of the direct
// children's intervals.
func TestSelfTime(t *testing.T) {
	spans := []span{
		{Op: 0, Name: "op", Start: 0, End: 100, Parent: -1},   // 0
		{Op: 0, Name: "a", Start: 10, End: 30, Parent: 0},     // 1
		{Op: 0, Name: "b", Start: 20, End: 50, Parent: 0},     // 2: overlaps a
		{Op: 0, Name: "c", Start: 90, End: 120, Parent: 0},    // 3: clipped at 100
		{Op: 0, Name: "deep", Start: 12, End: 14, Parent: 1},  // 4: a grandchild counts under a only
		{Op: 1, Name: "op", Start: 200, End: 260, Parent: -1}, // 5
		{Op: 1, Name: "a", Start: 210, End: 250, Parent: 5},   // 6: another op's child
	}
	for idx, want := range map[int]time.Duration{0: 50, 1: 18, 5: 20, 6: 40} {
		if got := selfTime(spans, idx); got != want {
			t.Errorf("selfTime(span %d) = %d, want %d", idx, got, want)
		}
	}
}

func TestSlope(t *testing.T) {
	// Commit time quadrupling as sessions double is an exponent of 2.
	x := []float64{math.Log(24), math.Log(48), math.Log(96)}
	y := []float64{math.Log(1), math.Log(4), math.Log(16)}
	if got := slope(x, y); math.Abs(got-2) > 1e-9 {
		t.Errorf("slope = %g, want 2", got)
	}
}
