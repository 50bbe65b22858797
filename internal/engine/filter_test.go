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
// counted and its region and pages passed through after (call is 1-based).
// When set, box sees each box probe once it is counted, before the index
// does. The engine sorts no probe's pages, so after must keep them in the
// index's ascending order.
type hookIndex struct {
	Index
	calls atomic.Int32
	after func(call int32, r geom.Region, pages []pagestore.PageID) []pagestore.PageID
	box   func(b geom.AABB)
}

func (x *hookIndex) QueryPages(r geom.Region, dst []pagestore.PageID) []pagestore.PageID {
	call := x.calls.Add(1)
	if _, frustum := r.(geom.Frustum); !frustum && x.box != nil {
		x.box(r.Bounds())
	}
	return x.after(call, r, x.Index.QueryPages(r, dst))
}

// passPages is the hookIndex.after that changes nothing.
func passPages(_ int32, _ geom.Region, pages []pagestore.PageID) []pagestore.PageID { return pages }

// onFilterGoroutine reports whether its caller runs on RunSequence's filter
// goroutine rather than on the coordinator.
func onFilterGoroutine() bool {
	pcs := make([]uintptr, 64)
	frames := runtime.CallersFrames(pcs[:runtime.Callers(2, pcs)])
	for {
		f, more := frames.Next()
		if strings.HasSuffix(f.Function, ".(*Engine).filterAhead") {
			return true
		}
		if !more {
			return false
		}
	}
}

// queryIndex returns the index of the query of seq whose region r is, or -1
// for any other region: a demand query's region reaches the index by value,
// a plan's box by pointer.
func queryIndex(seq workload.Sequence, r geom.Region) int {
	return slices.IndexFunc(seq.Queries, func(q workload.Query) bool { return q.Region == r })
}

// inlineConfig arms shard:flaky, so a NewShardedEngine fleet built from it
// observes inline and its coordinator filters queries too.
func inlineConfig(t testing.TB, replicas int, hedge float64) Config {
	t.Helper()
	plan, err := fault.ParseProfile("shard:flaky", 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.BatchedIO = true
	cfg.Faults = fault.New(plan)
	cfg.Replicas = replicas
	cfg.Hedge = hedge
	return cfg
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
// sequence matches a fresh engine's. The index and refine cases also run on
// an inline engine (inlinePanics), where the failing filter step may run on
// either goroutine.
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
	stillUsable := func(t *testing.T, e *Engine, x *hookIndex) {
		t.Helper()
		x.after = passPages
		if got := e.RunSequence(seq, prefetch.NewStraightLine(24*24*24)); !reflect.DeepEqual(got, want) {
			t.Fatal("the engine's next sequence differs from a fresh engine's")
		}
	}
	// gated blocks every probe after the first until release is closed, so
	// the filter goroutine still has most of the sequence ahead of it when a
	// panic unwinds another goroutine.
	gated := func(release chan struct{}) func(int32, geom.Region, []pagestore.PageID) []pagestore.PageID {
		return func(call int32, _ geom.Region, pages []pagestore.PageID) []pagestore.PageID {
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
		x := &hookIndex{Index: tree, after: func(call int32, _ geom.Region, pages []pagestore.PageID) []pagestore.PageID {
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
		inlinePanics(t, store, tree, seq, func([]pagestore.PageID) []pagestore.PageID { panic(boom) }, func(t *testing.T, v any) {
			if v != boom {
				t.Fatalf("recovered %v, want the index's own panic value", v)
			}
		})
	})

	// outOfRange appends a page past the store's last, which keeps the pages
	// ascending and fails the refine.
	outOfRange := func(pages []pagestore.PageID) []pagestore.PageID {
		return append(pages, pagestore.PageID(store.NumPages()+1))
	}
	isOutOfRange := func(t *testing.T, v any) {
		t.Helper()
		if err, ok := v.(runtime.Error); !ok || !strings.Contains(err.Error(), "out of range") {
			t.Fatalf("recovered %v, want the refine's out-of-range runtime error", v)
		}
	}
	t.Run("refine", func(t *testing.T) {
		x := &hookIndex{Index: tree, after: func(call int32, _ geom.Region, pages []pagestore.PageID) []pagestore.PageID {
			if call == 2 {
				return outOfRange(pages)
			}
			return pages
		}}
		e := New(store, x, DefaultConfig())
		isOutOfRange(t, recovered(e, prefetch.None{}))
		stillUsable(t, e, x)
		inlinePanics(t, store, tree, seq, outOfRange, isOutOfRange)
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

	// turn fails query k's filter step (failFilter) or its Observe on a staged
	// engine whose plans name one sentinel box per query, which only that
	// query's prefetch window probes: the panic must surface with its own
	// value at query k's turn, after the turns of queries 0..k-1 committed
	// their windows and before query k's did.
	turn := func(t *testing.T, k int, failFilter bool) {
		t.Helper()
		boom := errors.New("boom at query k")
		sentinels := make([]geom.AABB, n)
		for i := range sentinels {
			sentinels[i] = geom.CubeAt(geom.V(-1e6, -1e6, -1e6-10*float64(i)), 1)
		}
		windows := make([]atomic.Bool, n)
		x := &hookIndex{Index: tree, box: func(b geom.AABB) {
			if i := slices.Index(sentinels, b); i >= 0 {
				windows[i].Store(true)
			}
		}, after: func(_ int32, r geom.Region, pages []pagestore.PageID) []pagestore.PageID {
			if failFilter && queryIndex(seq, r) == k {
				panic(boom)
			}
			return pages
		}}
		p := &hookPrefetcher{
			onObserve: func(seq int) {
				if !failFilter && seq == k {
					panic(boom)
				}
			},
			onPlan: func(seq int) prefetch.Plan {
				return prefetch.Plan{Requests: []geom.AABB{sentinels[seq]}}
			},
		}
		e := New(store, x, DefaultConfig())
		if v := recovered(e, p); v != boom {
			t.Fatalf("recovered %v, want the original panic value", v)
		}
		for i := range windows {
			if ran := windows[i].Load(); ran != (i < k) {
				t.Fatalf("query %d's window ran: %v; the panic of query %d surfaced at another turn", i, ran, k)
			}
		}
		if got := p.observed.Load(); got != int32(k) {
			t.Fatalf("the observe stage finished %d observations, want %d: it went on past query %d", got, k, k)
		}
		plansReleased(t, e)
		stillUsable(t, e, x)
		plansReleased(t, e)
	}
	t.Run("turn/filter", func(t *testing.T) { turn(t, 4, true) })
	t.Run("turn/observe", func(t *testing.T) { turn(t, 6, false) })

	t.Run("commit", func(t *testing.T) {
		// Query 0's plan holds a sentinel box whose probe in the prefetch
		// window panics on the caller; the observe stage waits at query 1
		// until then, so it still has the rest of the sequence ahead of it.
		release := make(chan struct{})
		releaseOnce := sync.OnceFunc(func() { close(release) })
		boom := errors.New("commit boom")
		sentinel := geom.CubeAt(geom.V(-1e6, -1e6, -1e6), 1)
		x := &hookIndex{Index: tree, after: passPages, box: func(b geom.AABB) {
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

// plansReleased checks stopPipeline's promise: once RunSequence has
// returned, normally or by panic, no slot holds a plan, so the engine keeps
// none of the prefetcher's memory alive.
func plansReleased(t *testing.T, e *Engine) {
	t.Helper()
	for i := range e.slots {
		if !reflect.DeepEqual(e.slots[i].plan, prefetch.Plan{}) {
			t.Fatalf("slot %d still holds its plan after RunSequence returned", i)
		}
	}
}

// inlinePanics runs seq on three inline engines (S=8, R=2, hedged,
// shard:flaky) whose filter step of the last query fails through fail, on
// whichever goroutine runs it: ungated, with the coordinator's first probe
// held until the step fails (so the filter goroutine runs it), and with the
// filter goroutine's first probe held instead (so the coordinator runs it).
// In the held runs each goroutine's first probe first waits for the
// other's, so each holds one of the first two queries before either runs
// ahead, and a held probe is also released once the other goroutine has
// probed every other query. In each, check sees the value RunSequence re-raised, every
// query was probed exactly once, and the step failed where it was steered.
// The coordinator re-raises the failure when the sequence reaches the last
// query, whoever ran the step, so the three engines recover with equal disk
// and HA ledgers (the last query's turn never ran on any of them) and run
// their next sequence alike.
func inlinePanics(t *testing.T, store *pagestore.Store, tree Index, seq workload.Sequence, fail func([]pagestore.PageID) []pagestore.PageID, check func(t *testing.T, v any)) {
	type outcome struct {
		stats pagestore.DiskStats
		ha    HAStats
		next  SequenceResult
	}
	n, last := len(seq.Queries), len(seq.Queries)-1
	cfg := inlineConfig(t, 2, 1.5)
	var want outcome
	for _, held := range []string{"", "coordinator", "filter goroutine"} {
		t.Run("inline/held="+held, func(t *testing.T) {
			probes := make([]atomic.Int32, n)
			release := make(chan struct{})
			releaseOnce := sync.OnceFunc(func() { close(release) })
			var free atomic.Int32
			var failedOn string
			goroutines := [2]string{"coordinator", "filter goroutine"}
			arrived := [2]chan struct{}{make(chan struct{}), make(chan struct{})}
			arrive := [2]func(){sync.OnceFunc(func() { close(arrived[0]) }), sync.OnceFunc(func() { close(arrived[1]) })}
			x := &hookIndex{Index: tree, after: func(_ int32, r geom.Region, pages []pagestore.PageID) []pagestore.PageID {
				qi := queryIndex(seq, r)
				if qi < 0 {
					return pages
				}
				probes[qi].Add(1)
				g := 0
				if onFilterGoroutine() {
					g = 1
				}
				who := goroutines[g]
				if held != "" {
					arrive[g]()
					<-arrived[1-g]
				}
				switch {
				case qi == last:
					failedOn = who
					releaseOnce()
					return fail(pages)
				case who != held:
					if free.Add(1) == int32(n-1) {
						releaseOnce()
					}
				default:
					<-release
				}
				return pages
			}}
			e := NewShardedEngine(store, x, cfg, 8)
			v := func() (v any) {
				defer func() { v = recover() }()
				e.RunSequence(seq, prefetch.NewStraightLine(24*24*24))
				return nil
			}()
			check(t, v)
			for qi := range probes {
				if got := probes[qi].Load(); got != 1 {
					t.Fatalf("query %d was probed %d times before RunSequence returned, want once", qi, got)
				}
			}
			if held != "" && failedOn == held {
				t.Fatalf("the failing step ran on the held %s", held)
			}
			got := outcome{stats: e.Stats(), ha: e.HAStats()}
			x.after = passPages
			got.next = e.RunSequence(seq, prefetch.NewStraightLine(24*24*24))
			if held == "" {
				want = got
				return
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("failed on the %s: ledgers after recovery or the next sequence differ from the ungated run's", failedOn)
			}
		})
	}
}

// holdFilterGoroutine is a hookIndex.after for one run of seq: it holds the
// filter goroutine's first probe of a query until the coordinator has probed
// every other query, so the coordinator filters all of them but one.
func holdFilterGoroutine(seq workload.Sequence) func(int32, geom.Region, []pagestore.PageID) []pagestore.PageID {
	var coordinator atomic.Int32
	release := make(chan struct{})
	return func(_ int32, r geom.Region, pages []pagestore.PageID) []pagestore.PageID {
		switch {
		case queryIndex(seq, r) < 0:
		case onFilterGoroutine():
			<-release
		case coordinator.Add(1) == int32(len(seq.Queries)-1):
			close(release)
		}
		return pages
	}
}

// TestInlineCallerFilterAgrees: a fleet with shard faults armed observes
// inline, and its coordinator filters whatever query the filter goroutine
// has not reached, so which goroutine filters a query must never show. Here
// the filter goroutine is held at its first probe of every sequence until
// the coordinator has probed all the others, so the coordinator filters all
// but one query. Every result, trace, HA ledger and disk stat must equal an
// ungated run's and the fingerprints recorded before the coordinator
// filtered; the unreplicated rows are TestShardedFailoverHammer's run, so
// their result hashes are its pinned ones.
func TestInlineCallerFilterAgrees(t *testing.T) {
	store, tree := cloudWorld(t, 3000, 17)
	if err := store.Relayout(pagestore.HilbertLayout()); err != nil {
		t.Fatal(err)
	}
	defer store.Relayout(pagestore.InsertionLayout())
	r := rand.New(rand.NewSource(29))
	var seqs []workload.Sequence
	for _, q := range []int{10, 12, 10} {
		seqs = append(seqs, randomWalk(r, q, 20))
	}
	for _, row := range []struct {
		name        string
		replicas    int
		hedge       float64
		hashes      []uint64
		fingerprint uint64
	}{
		{"R=1", 1, 0, []uint64{0x868706bddc1a8f72, 0xd12e3547fbf08312, 0xc5781587de8315d4}, 0x3f6691af8a3b985e},
		{"R=2/hedged", 2, 1.5, nil, 0xdbe6c6da1ce6ac3a},
	} {
		t.Run(row.name, func(t *testing.T) {
			cfg := inlineConfig(t, row.replicas, row.hedge)
			run := func(held bool) ([]SequenceResult, HAStats, pagestore.DiskStats) {
				x := &hookIndex{Index: tree, after: passPages}
				e := NewShardedEngine(store, x, cfg, 8)
				var out []SequenceResult
				for _, seq := range seqs {
					if !held {
						out = append(out, e.RunSequence(seq, prefetch.NewStraightLine(20*20*20)))
						continue
					}
					x.after = holdFilterGoroutine(seq)
					out = append(out, e.RunSequence(seq, prefetch.NewStraightLine(20*20*20)))
					mine := 0
					for _, s := range e.slots[:len(seq.Queries)] {
						if s.mine {
							mine++
						}
					}
					if mine < len(seq.Queries)-1 {
						t.Fatalf("the coordinator filtered %d of %d queries, want all but one", mine, len(seq.Queries))
					}
				}
				return out, e.HAStats(), e.Stats()
			}
			want, wantHA, wantStats := run(false)
			got, gotHA, gotStats := run(true)
			if !reflect.DeepEqual(got, want) || gotHA != wantHA || gotStats != wantStats {
				t.Fatal("the run whose coordinator filtered differs from the ungated run")
			}
			for i, h := range row.hashes {
				if got[i].ResultHash != h {
					t.Errorf("sequence %d: result hash %#x, want %#x", i, got[i].ResultHash, h)
				}
			}
			if fp := fingerprint(got, gotHA, gotStats); fp != row.fingerprint {
				t.Errorf("fingerprint %#x, want %#x", fp, row.fingerprint)
			}
		})
	}
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
