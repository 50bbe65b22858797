package geom

// 3D Hilbert curve encoding, used by the Hilbert-Prefetch baseline (paper
// §2.1, [22]) and available to index bulk loaders. The implementation follows
// John Skilling, "Programming the Hilbert curve" (AIP Conf. Proc. 707, 2004):
// coordinates are converted to/from the transposed Hilbert representation
// and then the bits are interleaved into a single index.

// HilbertBits is the default per-axis resolution for quantizing continuous
// coordinates onto the curve: 2^HilbertBits cells per axis.
const HilbertBits = 10

// Hilbert3D returns the Hilbert index of the integer cell (x, y, z), each
// coordinate in [0, 2^bits). The result occupies 3·bits bits.
func Hilbert3D(x, y, z uint32, bits int) uint64 {
	X := [3]uint32{x, y, z}
	axesToTranspose(&X, bits)
	// Interleave transposed bits, most significant first: for each bit
	// position b (high → low), emit bit b of X[0], X[1], X[2].
	var h uint64
	for b := bits - 1; b >= 0; b-- {
		for i := 0; i < 3; i++ {
			h = h<<1 | uint64((X[i]>>uint(b))&1)
		}
	}
	return h
}

// Hilbert3DInverse is the inverse of Hilbert3D: it maps a Hilbert index back
// to the integer cell coordinates.
func Hilbert3DInverse(h uint64, bits int) (x, y, z uint32) {
	var X [3]uint32
	for b := bits - 1; b >= 0; b-- {
		for i := 0; i < 3; i++ {
			shift := uint(3*b + (2 - i))
			X[i] = X[i]<<1 | uint32((h>>shift)&1)
		}
	}
	transposeToAxes(&X, bits)
	return X[0], X[1], X[2]
}

// axesToTranspose converts coordinates into the transposed Hilbert form
// in place (Skilling's AxestoTranspose).
func axesToTranspose(X *[3]uint32, bits int) {
	const n = 3
	M := uint32(1) << uint(bits-1)
	// Inverse undo.
	for Q := M; Q > 1; Q >>= 1 {
		P := Q - 1
		for i := 0; i < n; i++ {
			if X[i]&Q != 0 {
				X[0] ^= P // invert
			} else { // exchange
				t := (X[0] ^ X[i]) & P
				X[0] ^= t
				X[i] ^= t
			}
		}
	}
	// Gray encode.
	for i := 1; i < n; i++ {
		X[i] ^= X[i-1]
	}
	var t uint32
	for Q := M; Q > 1; Q >>= 1 {
		if X[n-1]&Q != 0 {
			t ^= Q - 1
		}
	}
	for i := 0; i < n; i++ {
		X[i] ^= t
	}
}

// transposeToAxes is the inverse of axesToTranspose (Skilling's
// TransposetoAxes).
func transposeToAxes(X *[3]uint32, bits int) {
	const n = 3
	N := uint32(2) << uint(bits-1)
	// Gray decode by H ^ (H/2).
	t := X[n-1] >> 1
	for i := n - 1; i > 0; i-- {
		X[i] ^= X[i-1]
	}
	X[0] ^= t
	// Undo excess work.
	for Q := uint32(2); Q != N; Q <<= 1 {
		P := Q - 1
		for i := n - 1; i >= 0; i-- {
			if X[i]&Q != 0 {
				X[0] ^= P
			} else {
				t := (X[0] ^ X[i]) & P
				X[0] ^= t
				X[i] ^= t
			}
		}
	}
}

// HilbertKeyBits quantizes a point within world bounds onto a grid of 2^bits
// cells per axis and returns its Hilbert index; callers match the cell size
// to their query size. Points outside the bounds are clamped.
func HilbertKeyBits(p Vec3, world AABB, bits int) uint64 {
	cells := int64(1) << uint(bits)
	s := world.Size()
	q := func(v, lo, size float64) uint32 {
		if size <= 0 {
			return 0
		}
		c := int64((v - lo) / size * float64(cells))
		if c < 0 {
			c = 0
		}
		if c >= cells {
			c = cells - 1
		}
		return uint32(c)
	}
	return Hilbert3D(
		q(p.X, world.Min.X, s.X),
		q(p.Y, world.Min.Y, s.Y),
		q(p.Z, world.Min.Z, s.Z),
		bits,
	)
}

// HilbertCellBoundsBits returns the world-space box of the cell of a grid of
// 2^bits cells per axis that holds the given Hilbert key.
func HilbertCellBoundsBits(key uint64, world AABB, bits int) AABB {
	cells := float64(int64(1) << uint(bits))
	x, y, z := Hilbert3DInverse(key, bits)
	s := world.Size().Scale(1 / cells)
	min := Vec3{
		X: world.Min.X + float64(x)*s.X,
		Y: world.Min.Y + float64(y)*s.Y,
		Z: world.Min.Z + float64(z)*s.Z,
	}
	return AABB{Min: min, Max: min.Add(s)}
}
