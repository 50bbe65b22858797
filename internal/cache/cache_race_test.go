package cache

import (
	"sync"
	"testing"

	"scout/internal/pagestore"
)

// TestShardedRaceHammer drives a Sharded cache from 16 goroutines doing the
// full operation mix — lookups, inserts, membership probes and clears — so
// `go test -race ./internal/cache` exercises every lock path of the shard
// layer. Beyond data-race freedom it checks the invariants that survive any
// interleaving: every shard's table and recency list are consistent
// whenever its lock is free (check, once per goroutine exit, while the
// others are still running), and at the end the cache holds no more than
// its capacity and the counters balance.
func TestShardedRaceHammer(t *testing.T) {
	const (
		goroutines = 16
		opsPerG    = 5_000
		capacity   = 256
		pageSpace  = 1024
	)
	c := NewSharded(capacity, 8)

	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			// Deterministic per-goroutine page stream; overlapping streams
			// force shard-lock contention on shared pages.
			x := uint32(g*2654435761 + 1)
			for i := 0; i < opsPerG; i++ {
				if g == 0 && i%1024 == 512 {
					c.Clear()
					continue
				}
				x = x*1664525 + 1013904223
				p := pagestore.PageID(x % pageSpace)
				switch x % 16 {
				case 0, 1, 2:
					c.Contains(p)
				case 3, 4, 5, 6, 7:
					c.Insert(p)
				default:
					c.Lookup(p)
				}
			}
			if err := c.check(); err != nil {
				t.Error(err)
			}
		}(g)
	}
	wg.Wait()

	if _, n := c.core.totals(); n > capacity {
		t.Errorf("%d pages cached, capacity %d", n, capacity)
	}
	snap := c.core.Stats()
	if snap.Inserted < snap.Evictions {
		t.Errorf("more evictions (%d) than insertions (%d)", snap.Evictions, snap.Inserted)
	}
}
