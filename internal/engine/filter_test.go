package engine

import (
	"errors"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"scout/internal/core"
	"scout/internal/dataset"
	"scout/internal/flatindex"
	"scout/internal/geom"
	"scout/internal/pagestore"
	"scout/internal/prefetch"
	"scout/internal/rtree"
	"scout/internal/workload"
)

// TestRunSequenceConcurrentIndexProbes is the race workout for Index's
// concurrency contract: explore's two bindings — SCOUT over the R-tree, and
// SCOUT-OPT over FLAT, whose Observe probes the very index the engine's
// filter goroutine is probing — run on two engines at once over one store,
// so four goroutines share it and its indexes. Their results must equal a
// run with GOMAXPROCS 1. CI runs it under -race -count=10.
func TestRunSequenceConcurrentIndexProbes(t *testing.T) {
	neuro := dataset.SmallNeuroConfig()
	neuro.NumObjects = 20_000
	ds := dataset.GenerateNeuro(neuro)
	store := pagestore.NewStore(ds.Objects)
	tree, err := rtree.BulkLoad(store, rtree.Config{})
	if err != nil {
		t.Fatal(err)
	}
	flat, err := flatindex.Build(store, rtree.Config{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	params := workload.Params{Queries: 12, Volume: 30_000, Shape: workload.FrustumShape, WindowRatio: 1.2}
	noGap, err := workload.GenerateMany(ds, params, 3, 5)
	if err != nil {
		t.Fatal(err)
	}
	params.Gap = 25
	gap, err := workload.GenerateMany(ds, params, 3, 6)
	if err != nil {
		t.Fatal(err)
	}

	run := func() [2][]SequenceResult {
		bindings := [2]struct {
			e    *Engine
			p    prefetch.Prefetcher
			seqs []workload.Sequence
		}{
			{New(store, tree, DefaultConfig()), core.New(store, ds.Adjacency, core.DefaultConfig()), noGap},
			{New(store, flat, DefaultConfig()), core.NewOpt(flat, ds.Adjacency, core.DefaultConfig()), gap},
		}
		var out [2][]SequenceResult
		var wg sync.WaitGroup
		for i := range bindings {
			wg.Add(1)
			go func() {
				defer wg.Done()
				b := bindings[i]
				for _, seq := range b.seqs {
					out[i] = append(out[i], b.e.RunSequence(seq, b.p))
				}
			}()
		}
		wg.Wait()
		return out
	}

	procs := runtime.GOMAXPROCS(1)
	want := run()
	runtime.GOMAXPROCS(procs)
	for i, res := range want {
		hits := int64(0)
		for _, r := range res {
			hits += r.HitPages
		}
		if hits == 0 {
			t.Fatalf("binding %d prefetched no hit; the coordinator never probed the index", i)
		}
	}
	if got := run(); !reflect.DeepEqual(got, want) {
		t.Fatal("concurrent engines differ from the GOMAXPROCS 1 run")
	}
}

// hookIndex is a test Index: every probe, from whichever goroutine, is
// counted and its pages passed through after (call is 1-based).
type hookIndex struct {
	Index
	calls atomic.Int32
	after func(call int32, pages []pagestore.PageID) []pagestore.PageID
}

func (x *hookIndex) QueryPages(r geom.Region, dst []pagestore.PageID) []pagestore.PageID {
	return x.after(x.calls.Add(1), x.Index.QueryPages(r, dst))
}

// panicPrefetcher panics in its first Observe, after calling before.
type panicPrefetcher struct {
	prefetch.None
	boom   any
	before func()
}

func (p panicPrefetcher) Observe(prefetch.Observation) {
	p.before()
	panic(p.boom)
}

// TestRunSequencePanics: a panic in the filter goroutine — the index probe,
// or the refine of the pages it returned — surfaces on RunSequence's caller
// with its original value, and a panic on the coordinator (the prefetcher)
// returns only once the filter goroutine has run out. Either way the engine
// stays usable: its next sequence matches a fresh engine's.
func TestRunSequencePanics(t *testing.T) {
	store, tree := cloudWorld(t, 4000, 13)
	seq := randomWalk(rand.New(rand.NewSource(3)), 10, 24)
	want := New(store, tree, DefaultConfig()).RunSequence(seq, prefetch.NewStraightLine(24*24*24))
	recovered := func(e *Engine, p prefetch.Prefetcher) (v any) {
		defer func() { v = recover() }()
		e.RunSequence(seq, p)
		return nil
	}
	pass := func(_ int32, pages []pagestore.PageID) []pagestore.PageID { return pages }
	stillUsable := func(t *testing.T, e *Engine, x *hookIndex) {
		t.Helper()
		x.after = pass
		if got := e.RunSequence(seq, prefetch.NewStraightLine(24*24*24)); !reflect.DeepEqual(got, want) {
			t.Fatal("the engine's next sequence differs from a fresh engine's")
		}
	}

	t.Run("index", func(t *testing.T) {
		boom := errors.New("index boom")
		x := &hookIndex{Index: tree, after: func(call int32, pages []pagestore.PageID) []pagestore.PageID {
			if call == 4 {
				panic(boom)
			}
			return pages
		}}
		e := New(store, x, DefaultConfig())
		if v := recovered(e, prefetch.None{}); v != boom {
			t.Fatalf("recovered %v, want the index's own panic value", v)
		}
		stillUsable(t, e, x)
	})

	t.Run("refine", func(t *testing.T) {
		x := &hookIndex{Index: tree, after: func(call int32, pages []pagestore.PageID) []pagestore.PageID {
			if call == 2 {
				return append(pages, pagestore.PageID(store.NumPages()+1))
			}
			return pages
		}}
		e := New(store, x, DefaultConfig())
		v := recovered(e, prefetch.None{})
		if err, ok := v.(runtime.Error); !ok || !strings.Contains(err.Error(), "out of range") {
			t.Fatalf("recovered %v, want the refine's out-of-range runtime error", v)
		}
		stillUsable(t, e, x)
	})

	t.Run("prefetcher", func(t *testing.T) {
		// Probes after the first wait until the prefetcher is about to panic,
		// so the filter goroutine still has most of the sequence ahead of it
		// when the coordinator unwinds.
		release := make(chan struct{})
		x := &hookIndex{Index: tree, after: func(call int32, pages []pagestore.PageID) []pagestore.PageID {
			if call > 1 {
				<-release
			}
			return pages
		}}
		e := New(store, x, DefaultConfig())
		boom := errors.New("prefetcher boom")
		if v := recovered(e, panicPrefetcher{boom: boom, before: func() { close(release) }}); v != boom {
			t.Fatalf("recovered %v, want the prefetcher's own panic value", v)
		}
		if n := x.calls.Load(); n != int32(len(seq.Queries)) {
			t.Fatalf("RunSequence returned after %d of %d probes: the filter goroutine outlived it", n, len(seq.Queries))
		}
		stillUsable(t, e, x)
	})
}
