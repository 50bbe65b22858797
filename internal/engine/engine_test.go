package engine

import (
	"testing"
	"time"

	"scout/internal/geom"
	"scout/internal/pagestore"
	"scout/internal/prefetch"
	"scout/internal/rtree"
	"scout/internal/workload"
)

// lineWorld is a store of one long chain along +x with an R-tree.
func lineWorld(t *testing.T, segs int) (*pagestore.Store, *rtree.Tree) {
	t.Helper()
	objs := make([]pagestore.Object, segs)
	for s := 0; s < segs; s++ {
		objs[s] = pagestore.Object{
			Seg: geom.Seg(geom.V(float64(s), 0, 0), geom.V(float64(s+1), 0, 0)),
		}
	}
	store := pagestore.NewStore(objs)
	tree, err := rtree.BulkLoad(store, rtree.Config{ObjectsPerPage: 8})
	if err != nil {
		t.Fatal(err)
	}
	return store, tree
}

// walkSequence builds a simple straight walk along the chain.
func walkSequence(n int, side, step, ratio float64) workload.Sequence {
	seq := workload.Sequence{Params: workload.Params{
		Queries: n, Volume: side * side * side, WindowRatio: ratio,
	}}
	for i := 0; i < n; i++ {
		c := geom.V(20+float64(i)*step, 0, 0)
		seq.Queries = append(seq.Queries, workload.Query{
			Region: geom.CubeAt(c, side*side*side),
			Center: c,
		})
	}
	return seq
}

// oracle is a test prefetcher that always prefetches a fixed huge region
// (everything), simulating a perfect prediction with unlimited knowledge.
type oracle struct{ region geom.AABB }

func (o oracle) Name() string                 { return "oracle" }
func (o oracle) Observe(prefetch.Observation) {}
func (o oracle) Reset()                       {}
func (o oracle) Plan() prefetch.Plan {
	return prefetch.Plan{Requests: []geom.AABB{o.region}}
}

func TestNoneHasNoHits(t *testing.T) {
	store, tree := lineWorld(t, 500)
	e := New(store, tree, DefaultConfig())
	seq := walkSequence(10, 10, 9, 1)
	res := e.RunSequence(seq, prefetch.None{})
	// The cache holds prefetched data only: with no prefetcher there are
	// no hits at all, and the speedup is exactly 1.
	if hr := res.HitRate(); hr != 0 {
		t.Errorf("None hit rate = %v, want 0", hr)
	}
	if res.TotalPages == 0 {
		t.Fatal("no pages counted")
	}
	if sp := res.Speedup(); sp < 0.999 || sp > 1.001 {
		t.Errorf("None speedup = %v, want 1", sp)
	}
}

func TestOraclePrefetcherHitsEverything(t *testing.T) {
	store, tree := lineWorld(t, 500)
	cfg := DefaultConfig()
	cfg.CacheFraction = 1 // cache everything
	e := New(store, tree, cfg)
	if got := e.Cache().Capacity(); got != store.NumPages() {
		t.Fatalf("capacity = %d, want every page (%d)", got, store.NumPages())
	}
	seq := walkSequence(10, 10, 9, 50) // giant window: oracle can read all
	res := e.RunSequence(seq, oracle{region: geom.Box(geom.V(-1, -1, -1), geom.V(501, 1, 1))})
	if hr := res.HitRate(); hr < 0.99 {
		t.Errorf("oracle hit rate = %v, want ≈1", hr)
	}
	if sp := res.Speedup(); sp < 5 {
		t.Errorf("oracle speedup = %v, want large", sp)
	}
}

func TestRepeatedQueryStillMissesWithoutPrefetch(t *testing.T) {
	store, tree := lineWorld(t, 200)
	e := New(store, tree, DefaultConfig())
	seq := workload.Sequence{Params: workload.Params{Queries: 2, Volume: 1000, WindowRatio: 1}}
	q := geom.CubeAt(geom.V(50, 0, 0), 1000)
	for i := 0; i < 2; i++ {
		seq.Queries = append(seq.Queries, workload.Query{Region: q, Center: q.Center()})
	}
	res := e.RunSequence(seq, prefetch.None{})
	// The cache holds prefetched data only: a repeated query without any
	// prefetcher misses again.
	if hr := res.HitRate(); hr != 0 {
		t.Errorf("repeat hit rate = %v, want 0", hr)
	}
}

func TestWindowBudgetLimitsPrefetching(t *testing.T) {
	store, tree := lineWorld(t, 2000)
	cfg := DefaultConfig()
	cfg.CacheFraction = 1 // isolate the window effect from eviction
	e := New(store, tree, cfg)
	if got := e.Cache().Capacity(); got != store.NumPages() {
		t.Fatalf("capacity = %d, want every page (%d)", got, store.NumPages())
	}
	// Tiny window ratio: almost no prefetching possible.
	seqSmall := walkSequence(10, 10, 9, 0.01)
	resSmall := e.RunSequence(seqSmall, oracle{region: geom.Box(geom.V(-1, -1, -1), geom.V(2001, 1, 1))})
	// Large window: everything prefetched.
	seqBig := walkSequence(10, 10, 9, 100)
	resBig := e.RunSequence(seqBig, oracle{region: geom.Box(geom.V(-1, -1, -1), geom.V(2001, 1, 1))})
	if resSmall.HitRate() >= resBig.HitRate() {
		t.Errorf("window did not matter: small=%v big=%v", resSmall.HitRate(), resBig.HitRate())
	}
	var prefSmall, prefBig int
	for _, q := range resSmall.Queries {
		prefSmall += q.Prefetched
	}
	for _, q := range resBig.Queries {
		prefBig += q.Prefetched
	}
	if prefSmall >= prefBig {
		t.Errorf("prefetched pages small=%d big=%d", prefSmall, prefBig)
	}
}

func TestPredictionCostEatsWindow(t *testing.T) {
	store, tree := lineWorld(t, 500)
	e := New(store, tree, DefaultConfig())
	seq := walkSequence(5, 10, 9, 1)

	// A prefetcher whose prediction cost exceeds any plausible window.
	expensive := &fixedPlanPrefetcher{plan: prefetch.Plan{
		Requests:   []geom.AABB{geom.Box(geom.V(0, -1, -1), geom.V(500, 1, 1))},
		Prediction: time.Hour,
	}}
	res := e.RunSequence(seq, expensive)
	for _, q := range res.Queries {
		if q.Prefetched != 0 {
			t.Fatalf("query %d prefetched %d pages despite exhausted window", q.Seq, q.Prefetched)
		}
	}
	// The same plan with hidden prediction cost prefetches freely.
	hidden := &fixedPlanPrefetcher{plan: prefetch.Plan{
		Requests:         expensive.plan.Requests,
		Prediction:       time.Hour,
		PredictionHidden: true,
	}}
	res = e.RunSequence(seq, hidden)
	total := 0
	for _, q := range res.Queries {
		total += q.Prefetched
	}
	if total == 0 {
		t.Error("hidden prediction still blocked prefetching")
	}
}

type fixedPlanPrefetcher struct{ plan prefetch.Plan }

func (f *fixedPlanPrefetcher) Name() string                 { return "fixed" }
func (f *fixedPlanPrefetcher) Observe(prefetch.Observation) {}
func (f *fixedPlanPrefetcher) Plan() prefetch.Plan          { return f.plan }
func (f *fixedPlanPrefetcher) Reset()                       {}

func TestTraversalPagesAreChargedAndCached(t *testing.T) {
	store, tree := lineWorld(t, 500)
	e := New(store, tree, DefaultConfig())
	seq := walkSequence(3, 10, 9, 5)
	pages := []pagestore.PageID{0, 1, 2}
	p := &fixedPlanPrefetcher{plan: prefetch.Plan{TraversalPages: pages}}
	res := e.RunSequence(seq, p)
	for _, pg := range pages {
		if !e.Cache().Contains(pg) {
			t.Errorf("traversal page %d not cached", pg)
		}
	}
	var io time.Duration
	for _, q := range res.Queries {
		io += q.PrefetchIO
	}
	if io == 0 {
		t.Error("traversal I/O not charged")
	}
}

// TestSkipFirstQueryAccounting pins the counted-query rule (Counted) on
// both drivers, RunSequence and a one-session Serve: every query is traced,
// and the totals hold exactly the result pages of queries 1…n−1.
func TestSkipFirstQueryAccounting(t *testing.T) {
	store, tree := lineWorld(t, 500)
	seq := walkSequence(5, 10, 9, 1)
	served := PlanSessions(store, tree, []SessionWorkload{{
		Sequences:  []workload.Sequence{seq},
		Prefetcher: prefetch.None{},
	}}, DefaultConfig().Cost, 0).Serve(ServeConfig{Engine: DefaultConfig()})
	if len(served.Sessions) != 1 || len(served.Sessions[0].Sequences) != 1 {
		t.Fatalf("serve returned %d sessions, want one with one sequence", len(served.Sessions))
	}
	for _, d := range []struct {
		name string
		res  SequenceResult
	}{
		{"RunSequence", New(store, tree, DefaultConfig()).RunSequence(seq, prefetch.None{})},
		{"Serve", served.Sessions[0].Sequences[0]},
	} {
		if len(d.res.Queries) != len(seq.Queries) {
			t.Fatalf("%s: %d traces for %d queries", d.name, len(d.res.Queries), len(seq.Queries))
		}
		if d.res.Queries[0].ResultPages == 0 {
			t.Fatalf("%s: first query read no pages, so skipping it cannot show", d.name)
		}
		var want int64
		for _, tr := range d.res.Queries[1:] {
			want += int64(tr.ResultPages)
		}
		if d.res.TotalPages != want {
			t.Errorf("%s: TotalPages = %d, want %d (queries 1…%d)",
				d.name, d.res.TotalPages, want, len(seq.Queries)-1)
		}
	}
}

func TestSequencesAreIsolated(t *testing.T) {
	store, tree := lineWorld(t, 500)
	e := New(store, tree, DefaultConfig())
	seq := walkSequence(5, 10, 9, 1)
	a := e.RunSequence(seq, prefetch.None{})
	b := e.RunSequence(seq, prefetch.None{})
	if a.HitRate() != b.HitRate() || a.Residual != b.Residual {
		t.Error("second run differs: state leaked between sequences")
	}
}

func TestRunAllAggregates(t *testing.T) {
	store, tree := lineWorld(t, 800)
	e := New(store, tree, DefaultConfig())
	seqs := []workload.Sequence{
		walkSequence(5, 10, 9, 1),
		walkSequence(5, 10, 9, 1),
	}
	agg := e.RunAll(seqs, prefetch.None{})
	if agg.Sequences != 2 {
		t.Errorf("sequences = %d", agg.Sequences)
	}
	single := e.RunSequence(seqs[0], prefetch.None{})
	if agg.TotalPages != 2*single.TotalPages {
		t.Errorf("aggregate pages %d != 2×%d", agg.TotalPages, single.TotalPages)
	}
	if agg.HitRate() < 0 || agg.HitRate() > 1 {
		t.Errorf("aggregate hit rate %v out of range", agg.HitRate())
	}
}

func TestCacheCapacityFromFraction(t *testing.T) {
	store, tree := lineWorld(t, 800)
	cfg := DefaultConfig()
	cfg.CacheFraction = 0.5
	e := New(store, tree, cfg)
	want := store.NumPages() / 2
	if got := e.Cache().Capacity(); got != want {
		t.Errorf("capacity = %d, want %d", got, want)
	}
	// A fraction half a page above 7 pages truncates to exactly 7.
	cfg.CacheFraction = 7.5 / float64(store.NumPages())
	e = New(store, tree, cfg)
	if got := e.Cache().Capacity(); got != 7 {
		t.Errorf("small capacity = %d, want 7", got)
	}
}

func TestStraightLineBeatsNoneOnStraightWalk(t *testing.T) {
	store, tree := lineWorld(t, 2000)
	e := New(store, tree, DefaultConfig())
	seq := walkSequence(15, 10, 9, 2)
	none := e.RunSequence(seq, prefetch.None{})
	sl := e.RunSequence(seq, prefetch.NewStraightLine(1000))
	if sl.HitRate() <= none.HitRate() {
		t.Errorf("straight line (%v) did not beat none (%v) on a straight walk",
			sl.HitRate(), none.HitRate())
	}
	if sl.Speedup() <= none.Speedup() {
		t.Errorf("straight line speedup (%v) did not beat none (%v)",
			sl.Speedup(), none.Speedup())
	}
}
