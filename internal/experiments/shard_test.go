package experiments

import (
	"fmt"
	"testing"
)

// TestShard1Properties runs the shard1 sweep at golden scale and asserts
// the scale-out physics rather than table strings:
//
//   - result-set invariance: for a fixed layout × workload, every shard
//     count serves exactly the same pages (the router's merge loses and
//     invents nothing);
//   - the one-shard run routes nothing, every multi-shard run routes
//     something (the sweep actually exercises fan-out);
//   - scale-out wins: on every layout × workload, multi-shard service time
//     is strictly below the one-shard service time, and on the
//     model-building walk the worst shard at S=8 seeks strictly less than
//     the single shard at S=1 — the per-disk head-movement load divides.
func TestShard1Properties(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep skipped in -short mode")
	}
	env := NewEnv(goldenOptions())
	points := shard1Sweep(env)
	if len(points) != 2*2*len(shard1Counts) {
		t.Fatalf("sweep produced %d points", len(points))
	}
	byCell := make(map[string][]shardPoint)
	for _, p := range points {
		key := p.Layout + "/" + p.Workload
		byCell[key] = append(byCell[key], p)
	}
	for key, cell := range byCell {
		var base shardPoint
		for _, p := range cell {
			if p.Shards == 1 {
				base = p
			}
		}
		if base.Shards != 1 {
			t.Fatalf("%s: no S=1 point", key)
		}
		if base.RoutedPages != 0 || base.MeanFanout != 1 {
			t.Errorf("%s: S=1 routed %d pages, mean fanout %.2f", key, base.RoutedPages, base.MeanFanout)
		}
		for _, p := range cell {
			if p.TotalPages != base.TotalPages {
				t.Errorf("%s S=%d: served %d pages, S=1 served %d — merge changed the result set",
					key, p.Shards, p.TotalPages, base.TotalPages)
			}
			if p.Shards == 1 {
				continue
			}
			if p.RoutedPages == 0 {
				t.Errorf("%s S=%d: nothing routed; fan-out path not exercised", key, p.Shards)
			}
			if p.Service >= base.Service {
				t.Errorf("%s S=%d: service %v did not beat S=1's %v", key, p.Shards, p.Service, base.Service)
			}
		}
	}
	for _, layout := range []string{"insertion", "hilbert"} {
		cell := byCell[layout+"/model"]
		var s1, s8 shardPoint
		for _, p := range cell {
			switch p.Shards {
			case 1:
				s1 = p
			case 8:
				s8 = p
			}
		}
		if s8.MaxShardSeeks >= s1.MaxShardSeeks {
			t.Errorf("%s/model: worst shard at S=8 seeks %d, not below S=1's %d",
				layout, s8.MaxShardSeeks, s1.MaxShardSeeks)
		}
	}
}

// TestShard1PinnedCount: one column of the sweep run on its own — every
// layout × workload at S=4 through runShardWalks — reproduces the sweep's
// S=4 points exactly, so a cell does not depend on the cells run before it
// on the same setup.
func TestShard1PinnedCount(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep skipped in -short mode")
	}
	opt := goldenOptions()
	env := NewEnv(opt)
	want := map[string]shardPoint{}
	for _, p := range shard1Sweep(env) {
		if p.Shards == 4 {
			want[p.Layout+"/"+p.Workload] = p
		}
	}
	if len(want) != 4 {
		t.Fatalf("sweep produced %d S=4 points, want 4", len(want))
	}
	s := env.Neuro()
	for _, layout := range []string{"insertion", "hilbert"} {
		relayout(s.Store, layout)
		for _, wl := range shardWorkloads() {
			seqs := s.genSequences(wl.params, opt.sequences(6), opt.Seed)
			got := runShardWalks(s, layout, wl.name, 4, seqs)
			if w := want[layout+"/"+wl.name]; got != w {
				t.Errorf("%s/%s S=4 alone = %+v, in the sweep %+v", layout, wl.name, got, w)
			}
		}
	}
}

func init() {
	// Guard against the registry and the sweep drifting apart: shard1 must
	// be registered (the golden harness walks the registry).
	found := false
	for _, e := range All() {
		if e.ID == "shard1" {
			found = true
		}
	}
	if !found {
		panic(fmt.Sprintf("shard1 missing from registry: %v", len(All())))
	}
}
