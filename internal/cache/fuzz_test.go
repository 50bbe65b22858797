package cache

import (
	"testing"

	"scout/internal/pagestore"
)

// FuzzCacheOps decodes a byte stream as a capacity (1–80: enough pages to
// grow the table 64 → 128 → 256) followed by (operation, 8-bit page) pairs
// and holds the cache to the reference LRU and its structural invariants
// after every operation.
func FuzzCacheOps(f *testing.F) {
	// Fill past both growth steps, then evict through the whole key space.
	grow := []byte{79}
	for k := 0; k < 256; k++ {
		grow = append(grow, opInsert, byte(k), opLookup, byte(k/2))
	}
	f.Add(grow)
	// The wrap-around cluster: the 8-bit pages homed on the last three and
	// first two slots of the 64-slot table, inserted into a cache half their
	// number so every further insert deletes from a run that crosses index 0.
	var cluster []byte
	for k := 0; k < 256; k++ {
		if h := hashPage(pagestore.PageID(k)) & 63; h >= 61 || h <= 1 {
			cluster = append(cluster, byte(k))
		}
	}
	wrap := []byte{byte(len(cluster)/2 - 1)}
	for round := 0; round < 3; round++ {
		for i, k := range cluster {
			wrap = append(wrap, opInsert, k, opLookup, cluster[(i*7+round)%len(cluster)])
		}
	}
	f.Add(wrap)
	f.Add([]byte{0, opInsert, 1, opClear, 0, opInsert, 1, opContains, 1, opInsert, 2, opLookup, 1})

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		capacity := 1 + int(data[0])%80
		c := New(capacity)
		s := &shadow{capacity: capacity}
		for i := 1; i+1 < len(data); i += 2 {
			op, p := int(data[i])%4, pagestore.PageID(data[i+1])
			if err := applyOp(c, s, op, p); err != nil {
				t.Fatalf("byte %d (kind %d, page %d, capacity %d): %v", i, op, p, capacity, err)
			}
		}
	})
}
