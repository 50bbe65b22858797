package dataset

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"runtime"
	"testing"

	"scout/internal/geom"
)

// fingerprint is an FNV-64a hash over every field of every object, every
// structure's ID, Length() and points, and every adjacency list (none for a
// dataset without explicit adjacency).
func fingerprint(d *Dataset) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	word := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	float := func(f float64) { word(math.Float64bits(f)) }
	vec := func(v geom.Vec3) { float(v.X); float(v.Y); float(v.Z) }
	for _, o := range d.Objects {
		vec(o.Seg.A)
		vec(o.Seg.B)
		float(o.Radius)
		word(uint64(o.ID))
		word(uint64(uint32(o.Struct)))
	}
	for _, s := range d.Structures {
		word(uint64(uint32(s.ID)))
		float(s.Length())
		for _, p := range s.Points {
			vec(p)
		}
	}
	for _, ns := range d.Adjacency {
		word(uint64(len(ns)))
		for _, m := range ns {
			word(uint64(m))
		}
	}
	return h.Sum64()
}

// TestGenerateNeuroFingerprint pins the neuron generator's output bit for
// bit: every walk, golden and bench fingerprint downstream reads it.
func TestGenerateNeuroFingerprint(t *testing.T) {
	golden := DefaultNeuroConfig()
	golden.NumObjects = 2000 // the goldens' scale (Scale 0.002)
	for _, tc := range []struct {
		name string
		cfg  NeuroConfig
		want uint64
	}{
		{"2k", golden, 0xa8c2f7c71489933e},
		{"small", SmallNeuroConfig(), 0xffbc6f2cf647eaca},
	} {
		if got := fingerprint(GenerateNeuro(tc.cfg)); got != tc.want {
			t.Errorf("%s: fingerprint %#x, want %#x", tc.name, got, tc.want)
		}
	}
}

// TestGenerateNeuroAllocBudget bounds what generation allocates by what the
// dataset keeps: 64 B per object and 32 B per structure point (a Vec3 and
// its arc length). A generator that holds a second copy of the skeleton,
// or grows its paths by append, reads about 2x.
func TestGenerateNeuroAllocBudget(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	d := GenerateNeuro(SmallNeuroConfig())
	runtime.ReadMemStats(&after)
	points := 0
	for _, s := range d.Structures {
		points += len(s.Points)
	}
	kept := 64*float64(len(d.Objects)) + 32*float64(points)
	ratio := float64(after.TotalAlloc-before.TotalAlloc) / kept
	t.Logf("allocated %.2fx what the dataset keeps (%d objects, %d structure points)",
		ratio, len(d.Objects), points)
	if ratio > 1.35 {
		t.Errorf("GenerateNeuro allocated %.2fx what the dataset keeps, want <= 1.35x", ratio)
	}
}

// BenchmarkGenerateNeuro times and sizes generation of the 1M-object model
// the bench workloads and Scale 1 experiments build.
func BenchmarkGenerateNeuro(b *testing.B) {
	cfg := DefaultNeuroConfig()
	b.ReportAllocs()
	for b.Loop() {
		GenerateNeuro(cfg)
	}
}
