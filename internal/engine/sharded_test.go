package engine

import (
	"math/rand"
	"reflect"
	"testing"

	"scout/internal/pagestore"
	"scout/internal/prefetch"
)

// TestShardedSingleShardBitExact pins the S=1 ledger shape: New with
// BatchedIO and NewShardedEngine(…, 1) build the same one-range fleet, so
// their SequenceResults — costs, hits, windows, result hash — and disk stats
// are identical under every layout, and nothing fans out (Fanout is 1, or 0
// for an empty query; RoutedPages 0).
func TestShardedSingleShardBitExact(t *testing.T) {
	store, tree := cloudWorld(t, 4000, 31)
	rng := rand.New(rand.NewSource(41))
	walks := []struct{ n int }{{12}, {15}}
	for _, name := range pagestore.LayoutNames() {
		l, err := pagestore.ParseLayout(name)
		if err != nil {
			t.Fatal(err)
		}
		if err := store.Relayout(l); err != nil {
			t.Fatal(err)
		}
		cfg := DefaultConfig()
		cfg.BatchedIO = true
		flat := New(store, tree, cfg)
		sharded := NewShardedEngine(store, tree, cfg, 1)
		for wi, w := range walks {
			seq := randomWalk(rng, w.n, 20)
			want := flat.RunSequence(seq, prefetch.NewStraightLine(20*20*20))
			got := sharded.RunSequence(seq, prefetch.NewStraightLine(20*20*20))
			for qi, tr := range got.Queries {
				if tr.Fanout > 1 || tr.RoutedPages != 0 {
					t.Fatalf("layout %s walk %d query %d: S=1 fanned out (fanout %d, routed %d)",
						name, wi, qi, tr.Fanout, tr.RoutedPages)
				}
			}
			if got.ResultHash == 0 {
				t.Fatalf("layout %s walk %d: run left ResultHash unset", name, wi)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("layout %s walk %d: S=1 sharded run differs from unsharded batched run\n got: %+v\nwant: %+v",
					name, wi, got, want)
			}
		}
		if ds, fs := sharded.Stats(), flat.Disk().Stats(); ds != fs {
			t.Fatalf("layout %s: S=1 disk stats diverged: %+v vs %+v", name, ds, fs)
		}
		sharded.Close()
	}
	if err := store.Relayout(pagestore.InsertionLayout()); err != nil {
		t.Fatal(err)
	}
}

// TestShardedResultSetsMatchUnsharded is the merge-correctness property: for
// every shard count, each query's result set (its page count, straight off
// the shared index) is identical to the single-shard run's, and the router's
// split is an exact partition — every page lands on exactly the shard that
// owns its physical range, and the shards' slices reassemble to the input. A
// one-range partition has nothing to route: its one part is the input slice
// itself, not a copy.
func TestShardedResultSetsMatchUnsharded(t *testing.T) {
	store, tree := cloudWorld(t, 4000, 7)
	if err := store.Relayout(pagestore.HilbertLayout()); err != nil {
		t.Fatal(err)
	}
	defer store.Relayout(pagestore.InsertionLayout())
	rng := rand.New(rand.NewSource(11))
	seq := randomWalk(rng, 14, 24)

	cfg := DefaultConfig()
	cfg.BatchedIO = true
	base := New(store, tree, cfg)
	want := base.RunSequence(seq, prefetch.NewStraightLine(24*24*24))

	for _, s := range []int{1, 2, 3, 4, 8, 16} {
		e := NewShardedEngine(store, tree, cfg, s)
		got := e.RunSequence(seq, prefetch.NewStraightLine(24*24*24))
		if len(got.Queries) != len(want.Queries) {
			t.Fatalf("S=%d: query count %d != %d", s, len(got.Queries), len(want.Queries))
		}
		for qi := range got.Queries {
			g, w := got.Queries[qi], want.Queries[qi]
			if g.ResultPages != w.ResultPages {
				t.Errorf("S=%d query %d: result pages %d != %d", s, qi, g.ResultPages, w.ResultPages)
			}
			// The plan phase is shard-oblivious: observation-driven costs
			// must not move with S.
			if g.GraphBuild != w.GraphBuild || g.Prediction != w.Prediction {
				t.Errorf("S=%d query %d: plan-phase costs drifted", s, qi)
			}
		}
		if got.TotalPages != want.TotalPages {
			t.Errorf("S=%d: total pages %d != %d", s, got.TotalPages, want.TotalPages)
		}

		// Router split is an exact partition of an arbitrary page set.
		r := e.Router()
		pages := tree.QueryPages(seq.Queries[3].Region, nil)
		parts := r.Split(pages, nil)
		part := r.Partition()
		total := 0
		for i, p := range parts {
			total += len(p)
			for _, pg := range p {
				if own := part.ShardOf(store, pg); own != i {
					t.Fatalf("S=%d: page %d routed to shard %d, owner %d", s, pg, i, own)
				}
			}
		}
		if total != len(pages) {
			t.Fatalf("S=%d: split dropped pages: %d != %d", s, total, len(pages))
		}
		if s == 1 && (len(parts[0]) != len(pages) || &parts[0][0] != &pages[0]) {
			t.Fatal("S=1: the single part is not the input slice")
		}
		e.Close()
	}
}

// TestShardedDeterministic: two fresh sharded engines (and a Clone) replay
// the same workload bit-identically — nothing outside the engine's own
// state may reach the virtual clock.
func TestShardedDeterministic(t *testing.T) {
	store, tree := cloudWorld(t, 3000, 19)
	if err := store.Relayout(pagestore.HilbertLayout()); err != nil {
		t.Fatal(err)
	}
	defer store.Relayout(pagestore.InsertionLayout())
	rng := rand.New(rand.NewSource(3))
	seq := randomWalk(rng, 12, 22)
	cfg := DefaultConfig()
	cfg.BatchedIO = true

	run := func(e *Engine) SequenceResult {
		defer e.Close()
		return e.RunSequence(seq, prefetch.NewStraightLine(22*22*22))
	}
	a := NewShardedEngine(store, tree, cfg, 8)
	b := a.Clone()
	ra := run(a)
	rb := run(b)
	rc := run(NewShardedEngine(store, tree, cfg, 8))
	if !reflect.DeepEqual(ra, rb) || !reflect.DeepEqual(ra, rc) {
		t.Fatal("sharded runs differ between identical engines")
	}
}

// TestShardSetOrder pins the ShardSet contract: Do visits shards 0..S-1 in
// order on the caller's goroutine. The visit counter is plain unsynchronised
// memory, so under -race a hand-off to another goroutine would be reported
// as well as mis-ordered.
func TestShardSetOrder(t *testing.T) {
	const shards = 8
	state := make([]*int, shards)
	for i := range state {
		state[i] = new(int)
	}
	set := NewShardSet(state)
	if set.Shards() != shards {
		t.Fatalf("Shards() = %d, want %d", set.Shards(), shards)
	}

	visits := 0
	for round := 0; round < 3; round++ {
		set.Do(func(i int, slot *int) {
			if slot != set.State(i) {
				t.Fatalf("round %d: shard %d handed another shard's state", round, i)
			}
			if want := round*shards + i; visits != want {
				t.Fatalf("round %d: shard %d visited at step %d, want %d", round, i, visits, want)
			}
			visits++
		})
	}
	if visits != 3*shards {
		t.Fatalf("%d visits, want %d", visits, 3*shards)
	}
}
