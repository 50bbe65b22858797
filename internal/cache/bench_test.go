package cache

import (
	"testing"

	"scout/internal/pagestore"
)

// benchCapacity is the page capacity BENCHMARK.json's workloads run at
// (4/33 of their store).
const benchCapacity = 1893

var benchSink bool

// fullCache returns a cache at capacity holding pages 0..capacity-1, page 0
// least recently used.
func fullCache(capacity int) *Cache {
	c := New(capacity)
	for p := 0; p < capacity; p++ {
		c.Insert(pagestore.PageID(p))
	}
	return c
}

// BenchmarkCache times the calls a served query makes. Every row but the
// last runs on a full cache at benchCapacity and must read 0 allocs/op;
// cold_session is what SessionPlans.Serve pays per private session per
// commit — a new cache, a session's worth of pages, one Clear — and its B/op
// is that session's cache footprint.
func BenchmarkCache(b *testing.B) {
	b.Run("lookup_hit", func(b *testing.B) {
		c := fullCache(benchCapacity)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			// A stride coprime to the capacity: hits all over the list.
			benchSink = c.Lookup(pagestore.PageID(i * 7 % benchCapacity))
		}
	})
	b.Run("lookup_miss", func(b *testing.B) {
		c := fullCache(benchCapacity)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			benchSink = c.Lookup(pagestore.PageID(benchCapacity + i%benchCapacity))
		}
	})
	b.Run("insert_evict", func(b *testing.B) {
		c := fullCache(benchCapacity)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			benchSink = c.Insert(pagestore.PageID(benchCapacity + i))
		}
	})
	b.Run("clear", func(b *testing.B) {
		c := fullCache(benchCapacity)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c.Clear()
			c.Insert(pagestore.PageID(i)) // a Clear of something
		}
	})
	b.Run("cold_session", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			c := New(benchCapacity)
			for p := 0; p < 300; p++ {
				c.Insert(pagestore.PageID(i + 3*p))
			}
			c.Clear()
		}
	})
}

// The allocation contract the serving layer relies on: a new cache is one
// object, and once a cache has grown to what it holds, no call allocates.
func TestCacheAllocations(t *testing.T) {
	if got := testing.AllocsPerRun(100, func() { New(benchCapacity) }); got > 1 {
		t.Errorf("New: %v allocs, want ≤ 1", got)
	}
	c := fullCache(benchCapacity)
	next := pagestore.PageID(benchCapacity)
	for _, tc := range []struct {
		name string
		call func()
	}{
		{"Insert at capacity", func() { c.Insert(next); next++ }},
		{"Insert (refresh)", func() { c.Insert(next - 1) }},
		{"Lookup hit", func() { c.Lookup(next - 1) }},
		{"Lookup miss", func() { c.Lookup(next) }},
		{"Contains", func() { c.Contains(next) }},
		{"Clear and refill", func() {
			c.Clear()
			for p := 0; p < benchCapacity; p++ {
				c.Insert(pagestore.PageID(p))
			}
		}},
	} {
		if got := testing.AllocsPerRun(100, tc.call); got != 0 {
			t.Errorf("%s: %v allocs, want 0", tc.name, got)
		}
	}
}
