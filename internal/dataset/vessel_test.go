package dataset

import (
	"runtime"
	"testing"
)

// TestGenerateVesselFingerprint pins the artery and airway generators'
// objects, structures and adjacency bit for bit at the goldens' scale and
// at the Small configurations the tests and examples build.
func TestGenerateVesselFingerprint(t *testing.T) {
	artery := DefaultArteryConfig()
	artery.NumObjects = 2000 // the goldens' scale (Scale 0.002)
	lung := DefaultLungConfig()
	lung.NumObjects = 2000
	for _, tc := range []struct {
		name string
		d    func() *Dataset
		want uint64
	}{
		{"artery/2k", func() *Dataset { return GenerateArtery(artery) }, 0x33c06434ac3d3960},
		{"artery/small", func() *Dataset { return GenerateArtery(SmallArteryConfig()) }, 0xcae4bd4019fed457},
		{"lung/2k", func() *Dataset { return GenerateLung(lung) }, 0xf6815adaae0fe69b},
		{"lung/small", func() *Dataset { return GenerateLung(SmallLungConfig()) }, 0x5d333cd87f335dd3},
	} {
		if got := fingerprint(tc.d()); got != tc.want {
			t.Errorf("%s: fingerprint %#x, want %#x", tc.name, got, tc.want)
		}
	}
}

// TestGenerateArteryAllocBudget bounds what artery generation allocates by
// what the dataset keeps, counted as in TestGenerateNeuroAllocBudget. A
// generator that copies each branch's root-to-tip prefix reads about 7x.
func TestGenerateArteryAllocBudget(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	d := GenerateArtery(SmallArteryConfig())
	runtime.ReadMemStats(&after)
	points := 0
	for _, s := range d.Structures {
		points += len(s.Points)
	}
	kept := 64*float64(len(d.Objects)) + 32*float64(points)
	ratio := float64(after.TotalAlloc-before.TotalAlloc) / kept
	t.Logf("allocated %.2fx what the dataset keeps (%d objects, %d structure points)",
		ratio, len(d.Objects), points)
	if ratio > 1.75 {
		t.Errorf("GenerateArtery allocated %.2fx what the dataset keeps, want <= 1.75x", ratio)
	}
}

// TestGenerateLungAllocBudget: the airway mesh allocates per branch, not
// per triangle. Each triangle's adjacency row is cut from one backing array;
// growing every row by append made about two allocations per triangle.
func TestGenerateLungAllocBudget(t *testing.T) {
	cfg := SmallLungConfig()
	var d *Dataset
	allocs := testing.AllocsPerRun(1, func() { d = GenerateLung(cfg) })
	perTri := allocs / float64(len(d.Objects))
	t.Logf("%.0f allocations for %d triangles (%.3f per triangle)", allocs, len(d.Objects), perTri)
	if perTri > 0.1 {
		t.Errorf("GenerateLung made %.3f allocations per triangle, want <= 0.1", perTri)
	}
}

// BenchmarkGenerateArtery times and sizes generation of the default
// 250k-cylinder arterial tree that fig17 builds at Scale 1.
func BenchmarkGenerateArtery(b *testing.B) {
	cfg := DefaultArteryConfig()
	b.ReportAllocs()
	for b.Loop() {
		GenerateArtery(cfg)
	}
}

// BenchmarkGenerateLung times and sizes generation of the default
// 250k-triangle airway mesh that fig17 builds at Scale 1.
func BenchmarkGenerateLung(b *testing.B) {
	cfg := DefaultLungConfig()
	b.ReportAllocs()
	for b.Loop() {
		GenerateLung(cfg)
	}
}
