package geom

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestHilbertRoundTripSmall(t *testing.T) {
	const bits = 3
	seen := map[uint64]bool{}
	for x := uint32(0); x < 1<<bits; x++ {
		for y := uint32(0); y < 1<<bits; y++ {
			for z := uint32(0); z < 1<<bits; z++ {
				h := Hilbert3D(x, y, z, bits)
				if h >= 1<<(3*bits) {
					t.Fatalf("index out of range: %d", h)
				}
				if seen[h] {
					t.Fatalf("duplicate index %d at (%d,%d,%d)", h, x, y, z)
				}
				seen[h] = true
				gx, gy, gz := Hilbert3DInverse(h, bits)
				if gx != x || gy != y || gz != z {
					t.Fatalf("round trip (%d,%d,%d) → %d → (%d,%d,%d)", x, y, z, h, gx, gy, gz)
				}
			}
		}
	}
	if len(seen) != 1<<(3*bits) {
		t.Fatalf("not a bijection: %d of %d indices", len(seen), 1<<(3*bits))
	}
}

// The defining property of the Hilbert curve: consecutive indices map to
// cells that are face neighbors (Manhattan distance exactly 1).
func TestHilbertContinuity(t *testing.T) {
	const bits = 4
	n := uint64(1) << (3 * bits)
	px, py, pz := Hilbert3DInverse(0, bits)
	for h := uint64(1); h < n; h++ {
		x, y, z := Hilbert3DInverse(h, bits)
		d := absDiff(x, px) + absDiff(y, py) + absDiff(z, pz)
		if d != 1 {
			t.Fatalf("discontinuity at h=%d: (%d,%d,%d) → (%d,%d,%d)", h, px, py, pz, x, y, z)
		}
		px, py, pz = x, y, z
	}
}

func absDiff(a, b uint32) uint32 {
	if a > b {
		return a - b
	}
	return b - a
}

func TestHilbertRoundTripQuick(t *testing.T) {
	f := func(x, y, z uint32) bool {
		const bits = HilbertBits
		x &= (1 << bits) - 1
		y &= (1 << bits) - 1
		z &= (1 << bits) - 1
		h := Hilbert3D(x, y, z, bits)
		gx, gy, gz := Hilbert3DInverse(h, bits)
		return gx == x && gy == y && gz == z
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestHilbertKeyClamping(t *testing.T) {
	world := Box(V(0, 0, 0), V(100, 100, 100))
	// Outside points clamp rather than panic, and clamp to boundary cells.
	a := HilbertKeyBits(V(-10, 50, 50), world, HilbertBits)
	b := HilbertKeyBits(V(0, 50, 50), world, HilbertBits)
	if a != b {
		t.Errorf("clamped key %d != boundary key %d", a, b)
	}
	c := HilbertKeyBits(V(1000, 50, 50), world, HilbertBits)
	d := HilbertKeyBits(V(100, 50, 50), world, HilbertBits)
	if c != d {
		t.Errorf("clamped key %d != boundary key %d", c, d)
	}
}

func TestHilbertKeyLocality(t *testing.T) {
	// Near points should usually have closer Hilbert keys than far points.
	// Test statistically: mean |Δkey| for 1µm-apart pairs must be well below
	// mean |Δkey| for 50µm-apart pairs.
	world := Box(V(0, 0, 0), V(100, 100, 100))
	rng := rand.New(rand.NewSource(13))
	meanAbsDelta := func(dist float64) float64 {
		var sum float64
		const n = 400
		for i := 0; i < n; i++ {
			p := V(rng.Float64()*90+5, rng.Float64()*90+5, rng.Float64()*90+5)
			dir := V(rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()).Normalize()
			q := p.Add(dir.Scale(dist))
			a, b := HilbertKeyBits(p, world, HilbertBits), HilbertKeyBits(q, world, HilbertBits)
			if a > b {
				a, b = b, a
			}
			sum += float64(b - a)
		}
		return sum / n
	}
	near := meanAbsDelta(1)
	far := meanAbsDelta(50)
	if near >= far/4 {
		t.Errorf("Hilbert locality weak: near=%v far=%v", near, far)
	}
}

func TestHilbertCellBounds(t *testing.T) {
	world := Box(V(0, 0, 0), V(100, 100, 100))
	p := V(33, 66, 12)
	key := HilbertKeyBits(p, world, HilbertBits)
	cell := HilbertCellBoundsBits(key, world, HilbertBits)
	if !cell.Contains(p) {
		t.Errorf("cell %v does not contain %v", cell, p)
	}
	wantSide := 100.0 / (1 << HilbertBits)
	if !almostEq(cell.Size().X, wantSide, 1e-9) {
		t.Errorf("cell side = %v, want %v", cell.Size().X, wantSide)
	}
}
