package geom

import "testing"

func BenchmarkHilbert3D(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Hilbert3D(uint32(i)&1023, uint32(i>>10)&1023, uint32(i>>20)&1023, HilbertBits)
	}
}

func BenchmarkHilbert3DInverse(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Hilbert3DInverse(uint64(i), HilbertBits)
	}
}

func BenchmarkSegmentClipAABB(b *testing.B) {
	box := Box(V(0, 0, 0), V(10, 10, 10))
	s := Seg(V(-5, 3, 4), V(15, 7, 6))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.ClipAABB(box)
	}
}

func BenchmarkSegmentDistToSegment(b *testing.B) {
	s1 := Seg(V(0, 0, 0), V(10, 1, 2))
	s2 := Seg(V(3, 5, -2), V(7, -4, 8))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s1.DistToSegment(s2)
	}
}

func BenchmarkFrustumOverlaps(b *testing.B) {
	f := NewFrustum(V(0, 0, 0), V(1, 0, 0), V(0, 0, 1), 1.0, 1.3, 1, 50)
	box := Box(V(20, -5, -5), V(30, 5, 5))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		f.Overlaps(&box)
	}
}
