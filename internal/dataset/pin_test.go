package dataset

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"
)

// datasetHash extends fingerprint with the dataset's name and world box:
// the whole of what a generator returns.
func datasetHash(d *Dataset) uint64 {
	h := fnv.New64a()
	h.Write([]byte(d.Name))
	var buf [8]byte
	for _, v := range []float64{d.World.Min.X, d.World.Min.Y, d.World.Min.Z, d.World.Max.X, d.World.Max.Y, d.World.Max.Z} {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
	binary.LittleEndian.PutUint64(buf[:], fingerprint(d))
	h.Write(buf[:])
	return h.Sum64()
}

// TestGeneratedDatasetsPinned pins each generator's whole output (objects,
// structures, adjacency and world) at small sizes, so a change to a
// generator or to its configuration that moves one byte of any dataset
// fails here rather than somewhere downstream.
func TestGeneratedDatasetsPinned(t *testing.T) {
	neuro := DefaultNeuroConfig()
	neuro.NumObjects, neuro.Seed = 5000, 7
	artery := DefaultArteryConfig()
	artery.NumObjects = 5000
	lung := DefaultLungConfig()
	lung.NumObjects = 5000
	road := SmallRoadConfig()
	road.GridNodes = 40
	for _, tc := range []struct {
		name string
		d    func() *Dataset
		want uint64
	}{
		{"neuro/5k", func() *Dataset { return GenerateNeuro(neuro) }, 0x92eb49cd215f607d},
		{"artery/5k", func() *Dataset { return GenerateArtery(artery) }, 0xc110db8eb8ecd80c},
		{"lung/5k", func() *Dataset { return GenerateLung(lung) }, 0x33266dd31dfd4571},
		{"road/40", func() *Dataset { return GenerateRoad(road) }, 0xadaba3a552ee8c3a},
		{"road/small", func() *Dataset { return GenerateRoad(SmallRoadConfig()) }, 0x6968c0d4f29f187c},
	} {
		if got := datasetHash(tc.d()); got != tc.want {
			t.Errorf("%s: hash %#x, want %#x", tc.name, got, tc.want)
		}
	}
}
