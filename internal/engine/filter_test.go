package engine

import (
	"errors"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"scout/internal/core"
	"scout/internal/dataset"
	"scout/internal/fault"
	"scout/internal/flatindex"
	"scout/internal/geom"
	"scout/internal/pagestore"
	"scout/internal/prefetch"
	"scout/internal/rtree"
	"scout/internal/workload"
)

// exploreWorld is the explore workload's two bindings in miniature: a
// 20 000-object neuro store with its R-tree and FLAT index, and three
// 12-query frustum walks without gaps and three with.
type exploreWorld struct {
	ds         *dataset.Dataset
	store      *pagestore.Store
	tree       *rtree.Tree
	flat       *flatindex.Index
	noGap, gap []workload.Sequence
}

func newExploreWorld(tb testing.TB) *exploreWorld {
	tb.Helper()
	neuro := dataset.SmallNeuroConfig()
	neuro.NumObjects = 20_000
	w := &exploreWorld{ds: dataset.GenerateNeuro(neuro)}
	w.store = pagestore.NewStore(w.ds.Objects)
	var err error
	if w.tree, err = rtree.BulkLoad(w.store, rtree.Config{}); err != nil {
		tb.Fatal(err)
	}
	if w.flat, err = flatindex.Build(w.store, rtree.Config{}, 0); err != nil {
		tb.Fatal(err)
	}
	params := workload.Params{Queries: 12, Volume: 30_000, Shape: workload.FrustumShape, WindowRatio: 1.2}
	if w.noGap, err = workload.GenerateMany(w.ds, params, 3, 5); err != nil {
		tb.Fatal(err)
	}
	params.Gap = 25
	if w.gap, err = workload.GenerateMany(w.ds, params, 3, 6); err != nil {
		tb.Fatal(err)
	}
	return w
}

// scoutBinding is one engine, the SCOUT variant bound to its index, and the
// walks it runs.
type scoutBinding struct {
	name string
	e    *Engine
	p    prefetch.Prefetcher
	seqs []workload.Sequence
}

// bindings builds fresh engines and prefetchers for explore's two bindings:
// SCOUT over the R-tree on the walks without gaps, and SCOUT-OPT over FLAT —
// whose Observe probes the very index the engine's filter goroutine probes —
// on the walks with gaps.
func (w *exploreWorld) bindings() [2]scoutBinding {
	return [2]scoutBinding{
		{"scout/rtree", New(w.store, w.tree, DefaultConfig()), core.New(w.store, w.ds.Adjacency, core.DefaultConfig()), w.noGap},
		{"scoutopt/flat", New(w.store, w.flat, DefaultConfig()), core.NewOpt(w.flat, w.ds.Adjacency, core.DefaultConfig()), w.gap},
	}
}

// TestRunSequenceConcurrentIndexProbes is the race workout for Index's
// concurrency contract: explore's two bindings run on two engines at once
// over one store, so six goroutines — two callers, two filter goroutines,
// two observe stages, SCOUT-OPT's probing FLAT — share it and its indexes.
// Their results must equal a run with GOMAXPROCS 1. CI runs it under -race
// -count=10.
func TestRunSequenceConcurrentIndexProbes(t *testing.T) {
	w := newExploreWorld(t)
	run := func() [2][]SequenceResult {
		bindings := w.bindings()
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
// counted and its pages passed through after (call is 1-based). When set,
// box sees each box probe once it is counted, before the index does.
type hookIndex struct {
	Index
	calls atomic.Int32
	after func(call int32, pages []pagestore.PageID) []pagestore.PageID
	box   func(b geom.AABB)
}

func (x *hookIndex) QueryPages(r geom.Region, dst []pagestore.PageID) []pagestore.PageID {
	call := x.calls.Add(1)
	if _, frustum := r.(geom.Frustum); !frustum && x.box != nil {
		x.box(r.Bounds())
	}
	return x.after(call, x.Index.QueryPages(r, dst))
}

// hookPrefetcher is a test Prefetcher that plans nothing of its own: each
// Observe calls onObserve and each Plan onPlan, when set, with the query's
// sequence number; onPlan's plan is returned. observed counts the finished
// Observe calls.
type hookPrefetcher struct {
	prefetch.None
	onObserve func(seq int)
	onPlan    func(seq int) prefetch.Plan
	observed  atomic.Int32
}

func (p *hookPrefetcher) Observe(obs prefetch.Observation) {
	if p.onObserve != nil {
		p.onObserve(obs.Seq)
	}
	p.observed.Add(1)
}

func (p *hookPrefetcher) Plan() prefetch.Plan {
	if p.onPlan != nil {
		return p.onPlan(int(p.observed.Load()) - 1)
	}
	return prefetch.Plan{}
}

// TestRunSequencePanics: a panic in either helper goroutine — the filter
// goroutine's index probe or refine, the observe stage's Observe or Plan —
// surfaces on RunSequence's caller with its original value, and a panic on
// the caller (here in the prefetch window's probe) returns only once both
// helpers have run out. Either way the engine stays usable: its next
// sequence matches a fresh engine's.
func TestRunSequencePanics(t *testing.T) {
	store, tree := cloudWorld(t, 4000, 13)
	seq := randomWalk(rand.New(rand.NewSource(3)), 10, 24)
	n := int32(len(seq.Queries))
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
	// gated blocks every probe after the first until release is closed, so
	// the filter goroutine still has most of the sequence ahead of it when a
	// panic unwinds another goroutine.
	gated := func(release chan struct{}) func(int32, []pagestore.PageID) []pagestore.PageID {
		return func(call int32, pages []pagestore.PageID) []pagestore.PageID {
			if call > 1 {
				<-release
			}
			return pages
		}
	}
	// ranOut checks that the filter goroutine probed every query before
	// RunSequence returned; extra is the number of probes made on the caller.
	ranOut := func(t *testing.T, x *hookIndex, extra int32) {
		t.Helper()
		if got := x.calls.Load() - extra; got != n {
			t.Fatalf("RunSequence returned after %d of %d filter probes: the filter goroutine outlived it", got, n)
		}
	}

	t.Run("index", func(t *testing.T) {
		// The fourth probe (query 3) panics only once the observe stage has
		// planned query 2, so the stage is waiting on query 3's filter slot
		// when the panic arrives in its place.
		boom := errors.New("index boom")
		planned2 := make(chan struct{})
		x := &hookIndex{Index: tree, after: func(call int32, pages []pagestore.PageID) []pagestore.PageID {
			if call == 4 {
				<-planned2
				panic(boom)
			}
			return pages
		}}
		p := &hookPrefetcher{onPlan: func(seq int) prefetch.Plan {
			if seq == 2 {
				close(planned2)
			}
			return prefetch.Plan{}
		}}
		e := New(store, x, DefaultConfig())
		if v := recovered(e, p); v != boom {
			t.Fatalf("recovered %v, want the index's own panic value", v)
		}
		if got := p.observed.Load(); got != 3 {
			t.Fatalf("the observe stage observed %d queries past a failed filter step, want 3", got)
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
		release := make(chan struct{})
		x := &hookIndex{Index: tree, after: gated(release)}
		e := New(store, x, DefaultConfig())
		boom := errors.New("prefetcher boom")
		p := &hookPrefetcher{onObserve: func(int) {
			close(release)
			panic(boom)
		}}
		if v := recovered(e, p); v != boom {
			t.Fatalf("recovered %v, want the prefetcher's own panic value", v)
		}
		ranOut(t, x, 0)
		stillUsable(t, e, x)
	})

	t.Run("plan", func(t *testing.T) {
		release := make(chan struct{})
		x := &hookIndex{Index: tree, after: gated(release)}
		e := New(store, x, DefaultConfig())
		boom := errors.New("plan boom")
		p := &hookPrefetcher{onPlan: func(int) prefetch.Plan {
			close(release)
			panic(boom)
		}}
		if v := recovered(e, p); v != boom {
			t.Fatalf("recovered %v, want Plan's own panic value", v)
		}
		ranOut(t, x, 0)
		stillUsable(t, e, x)
	})

	t.Run("commit", func(t *testing.T) {
		// Query 0's plan holds a sentinel box whose probe in the prefetch
		// window panics on the caller; the observe stage waits at query 1
		// until then, so it still has the rest of the sequence ahead of it.
		release := make(chan struct{})
		releaseOnce := sync.OnceFunc(func() { close(release) })
		boom := errors.New("commit boom")
		sentinel := geom.CubeAt(geom.V(-1e6, -1e6, -1e6), 1)
		x := &hookIndex{Index: tree, after: pass, box: func(b geom.AABB) {
			if b == sentinel {
				releaseOnce()
				panic(boom)
			}
		}}
		e := New(store, x, DefaultConfig())
		p := &hookPrefetcher{
			onObserve: func(seq int) {
				if seq > 0 {
					<-release
				}
			},
			onPlan: func(int) prefetch.Plan {
				return prefetch.Plan{Requests: []geom.AABB{sentinel}}
			},
		}
		if v := recovered(e, p); v != boom {
			t.Fatalf("recovered %v, want the window probe's own panic value", v)
		}
		if got := p.observed.Load(); got != n {
			t.Fatalf("RunSequence returned after %d of %d observations: the observe stage outlived it", got, n)
		}
		ranOut(t, x, 1)
		stillUsable(t, e, x)
	})
}

// clonePlan deep-copies a plan: copying its slices copies everything.
func clonePlan(p prefetch.Plan) prefetch.Plan {
	p.Requests = slices.Clone(p.Requests)
	p.TraversalPages = slices.Clone(p.TraversalPages)
	return p
}

// TestPlanSurvivesNextObserve pins the Prefetcher contract the observe stage
// relies on: RunSequence's coordinator reads query i's plan while the
// prefetcher already observes query i+1, so every prefetcher in prefetch
// and core must leave a returned plan intact across its next Observe.
func TestPlanSurvivesNextObserve(t *testing.T) {
	w := newExploreWorld(t)
	bounds := w.ds.World
	prefetchers := []prefetch.Prefetcher{
		prefetch.None{},
		prefetch.NewStraightLine(30_000),
		prefetch.NewPolynomial(2, 30_000),
		prefetch.NewEWMA(0.3, 30_000),
		prefetch.NewHilbert(bounds, 30_000, 4),
		core.New(w.store, w.ds.Adjacency, core.DefaultConfig()),
		core.New(w.store, nil, core.DefaultConfig()),
		core.NewOpt(w.flat, w.ds.Adjacency, core.DefaultConfig()),
	}
	for _, p := range prefetchers {
		for _, seq := range append(slices.Clone(w.noGap), w.gap...) {
			p.Reset()
			var prev, snap prefetch.Plan
			for qi, q := range seq.Queries {
				pages := w.tree.QueryPages(q.Region, nil)
				observeQuery(p, qi, q, w.store.AppendMatches(nil, q.Region, pages), pages)
				if qi > 0 && !reflect.DeepEqual(prev, snap) {
					t.Fatalf("%s: query %d's Observe changed the plan returned for query %d", p.Name(), qi, qi-1)
				}
				prev = p.Plan()
				snap = clonePlan(prev)
			}
		}
	}
}

// recordingPrefetcher is the straight-line baseline recording a private
// copy of every Observation it receives.
type recordingPrefetcher struct {
	*prefetch.StraightLine
	seen []prefetch.Observation
}

func (r *recordingPrefetcher) Observe(obs prefetch.Observation) {
	obs.Result = slices.Clone(obs.Result)
	obs.Pages = slices.Clone(obs.Pages)
	r.seen = append(r.seen, obs)
	r.StraightLine.Observe(obs)
}

// TestShardedOutagesObserveServedSubset: an unreplicated sharded engine
// under shard:flaky drops whole shards' miss pages from answers, so it
// observes inline, and its prefetcher must see exactly what was served —
// the pages minus the lost ones, and the result refined from those pages,
// whose hash is the sequence's ResultHash — never the filter step's full
// demand set. The run is TestShardedFailoverHammer's, so the hashes it pins
// pin this one too.
func TestShardedOutagesObserveServedSubset(t *testing.T) {
	store, tree := cloudWorld(t, 3000, 17)
	if err := store.Relayout(pagestore.HilbertLayout()); err != nil {
		t.Fatal(err)
	}
	defer store.Relayout(pagestore.InsertionLayout())
	plan, err := fault.ParseProfile("shard:flaky", 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.BatchedIO = true
	cfg.Faults = fault.New(plan)
	e := NewShardedEngine(store, tree, cfg, 8)
	defer e.Close()
	r := rand.New(rand.NewSource(29))
	short := 0
	for si, want := range []uint64{0x868706bddc1a8f72, 0xd12e3547fbf08312, 0xc5781587de8315d4} {
		seq := randomWalk(r, []int{10, 12, 10}[si], 20)
		p := &recordingPrefetcher{StraightLine: prefetch.NewStraightLine(20 * 20 * 20)}
		res := e.RunSequence(seq, p)
		if res.ResultHash != want {
			t.Errorf("sequence %d: result hash %#x, want %#x", si, res.ResultHash, want)
		}
		if len(p.seen) != len(seq.Queries) {
			t.Fatalf("sequence %d: %d observations for %d queries", si, len(p.seen), len(seq.Queries))
		}
		h := fnvOffset
		for qi, obs := range p.seen {
			tr := res.Queries[qi]
			full := tree.QueryPages(seq.Queries[qi].Region, nil)
			if len(obs.Pages) != tr.ResultPages-tr.LostPages || !isSubsequence(obs.Pages, full) {
				t.Fatalf("sequence %d query %d: observed %d pages, served %d of the %d filtered, in filter order", si, qi, len(obs.Pages), tr.ResultPages-tr.LostPages, len(full))
			}
			if len(obs.Pages) < len(full) {
				short++
			}
			if refined := store.AppendMatches(nil, seq.Queries[qi].Region, obs.Pages); !slices.Equal(obs.Result, refined) {
				t.Fatalf("sequence %d query %d: observed result is not the refine of the observed pages", si, qi)
			}
			h = hashResult(h, qi, obs.Result)
		}
		if h != res.ResultHash {
			t.Fatalf("sequence %d: observed results hash %#x, served results %#x", si, h, res.ResultHash)
		}
	}
	if short == 0 {
		t.Fatal("no observation lacked a lost page; the outages never hit a demand set")
	}
}

// isSubsequence reports whether sub is s with zero or more elements removed.
func isSubsequence(sub, s []pagestore.PageID) bool {
	i := 0
	for _, pg := range s {
		if i < len(sub) && sub[i] == pg {
			i++
		}
	}
	return i == len(sub)
}
