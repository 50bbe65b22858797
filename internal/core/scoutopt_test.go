package core

import (
	"testing"

	"scout/internal/flatindex"
	"scout/internal/geom"
	"scout/internal/pagestore"
	"scout/internal/prefetch"
	"scout/internal/rtree"
	"scout/internal/sgraph"
)

func TestScoutOptPredictsAlongChain(t *testing.T) {
	w := newChainWorld(t, 3, 200, 20)
	s := NewOpt(w.flat, nil, DefaultConfig())
	if s.Name() != "SCOUT-OPT" {
		t.Errorf("name = %s", s.Name())
	}
	side := 10.0
	step := 9.0
	for i := 0; i < 5; i++ {
		w.observe(s, i, queryAt(20+float64(i)*step, 0, side))
	}
	next := geom.V(20+5*step, 0, 0)
	if !planCovers(s.Plan(), next) {
		t.Errorf("plan does not cover next query center %v", next)
	}
}

// decoyWorld builds a long followed chain at y = z = 0 plus short decoy
// chains at y = 8 (one per query window). Decoys intersect individual
// queries but never continue into the next one, so candidate pruning drops
// them and sparse construction should skip their pages.
func decoyWorld(t *testing.T) *chainWorld {
	t.Helper()
	var objs []pagestore.Object
	for s := 0; s < 600; s++ {
		objs = append(objs, pagestore.Object{
			Seg:    geom.Seg(geom.V(float64(s), 0, 0), geom.V(float64(s+1), 0, 0)),
			Struct: 0,
		})
	}
	for k := 0; k < 25; k++ {
		x0 := 45 + float64(k)*18
		for s := 0; s < 12; s++ {
			objs = append(objs, pagestore.Object{
				Seg:    geom.Seg(geom.V(x0+float64(s), 8, 0), geom.V(x0+float64(s+1), 8, 0)),
				Struct: int32(1 + k),
			})
		}
	}
	store := pagestore.NewStore(objs)
	cfg := rtree.Config{ObjectsPerPage: 16}
	tree, err := rtree.BulkLoad(store, cfg)
	if err != nil {
		t.Fatal(err)
	}
	flat, err := flatindex.Build(store, cfg, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	return &chainWorld{store: store, tree: tree, flat: flat}
}

func TestScoutOptSparseBuildIsSmaller(t *testing.T) {
	// After the first query, sparse construction should build a graph from
	// fewer objects than the full result: the decoy chains' pages are
	// neither near the previous exits nor reachable from the candidate.
	w := decoyWorld(t)
	s := NewOpt(w.flat, nil, DefaultConfig())

	side := 20.0 // covers the decoys at y = 8 too
	step := 18.0
	var sparseSeen, savedSeen bool
	for i := 0; i < 6; i++ {
		obs := w.observe(s, i, queryAt(60+float64(i)*step, 0, side))
		st := s.LastStats()
		if i == 0 {
			if st.Vertices != len(obs.Result) {
				t.Fatalf("first query should build the full graph: %d vs %d",
					st.Vertices, len(obs.Result))
			}
			continue
		}
		if st.SparsePages > 0 {
			sparseSeen = true
			if st.Vertices < st.ResultObjects {
				savedSeen = true
			}
			if !s.Plan().PredictionHidden {
				t.Error("sparse build did not hide prediction cost")
			}
		}
	}
	if !sparseSeen {
		t.Fatal("sparse construction never engaged")
	}
	if !savedSeen {
		t.Error("sparse graph never smaller than the full result")
	}
}

func TestScoutOptSparseMemorySavings(t *testing.T) {
	// §8.2: SCOUT-OPT's graph memory is a fraction of SCOUT's because only
	// candidate-reachable pages enter the graph.
	w := decoyWorld(t)
	full := New(w.store, nil, DefaultConfig())
	opt := NewOpt(w.flat, nil, DefaultConfig())
	side := 20.0
	step := 18.0
	var fullMem, optMem int64
	for i := 0; i < 6; i++ {
		q := queryAt(60+float64(i)*step, 0, side)
		w.observe(full, i, q)
		w.observe(opt, i, q)
		if i > 0 {
			fullMem += full.LastStats().MemoryBytes
			optMem += opt.LastStats().MemoryBytes
		}
	}
	if optMem >= fullMem {
		t.Errorf("opt memory %d not below full memory %d", optMem, fullMem)
	}
}

func TestScoutOptGapTraversal(t *testing.T) {
	w := newChainWorld(t, 2, 600, 40)
	s := NewOpt(w.flat, nil, DefaultConfig())
	side := 10.0
	gap := 15.0
	step := side + gap
	for i := 0; i < 5; i++ {
		w.observe(s, i, queryAt(40+float64(i)*step, 0, side))
	}
	st := s.LastStats()
	if st.GapPages == 0 {
		t.Fatal("gap traversal never read pages")
	}
	p := s.Plan()
	if len(p.TraversalPages) == 0 {
		t.Fatal("plan has no traversal pages")
	}
	next := geom.V(40+5*step, 0, 0)
	if !planCovers(p, next) {
		t.Errorf("gap plan does not cover next query center %v", next)
	}
}

// TestScoutOptGapBudgetRespected walks a dozen parallel chains with gaps,
// so each query touches about 60 pages and the gap budget (gapIOFrac of
// them) exceeds the per-exit floor of two pages. gapTraverse follows at
// most two distinct exits and gives each max(2, budget/exits) pages, so no
// query may read more than max(budget, 4); and on at least one query the
// traversal must read its whole budget, more than two exits' floors, so the
// cap is what stopped it.
func TestScoutOptGapBudgetRespected(t *testing.T) {
	w := newChainWorld(t, 12, 700, 2)
	s := NewOpt(w.flat, nil, DefaultConfig())
	side := 60.0
	step := side + 20
	binds := false
	for i := 0; i < 5; i++ {
		obs := w.observe(s, i, queryAt(40+float64(i)*step, 0, side))
		budget := max(int(gapIOFrac*float64(len(obs.Pages))), 1)
		got := s.LastStats().GapPages
		if got > max(budget, 4) {
			t.Errorf("query %d: gap pages %d exceed the budget %d of %d pages", i, got, budget, len(obs.Pages))
		}
		binds = binds || (got == budget && budget > 4)
	}
	if !binds {
		t.Error("no query's gap traversal read its whole budget; the walk never reaches the cap")
	}
}

func TestScoutOptNoGapNoTraversalPages(t *testing.T) {
	w := newChainWorld(t, 1, 200, 10)
	s := NewOpt(w.flat, nil, DefaultConfig())
	for i := 0; i < 4; i++ {
		w.observe(s, i, queryAt(20+float64(i)*9, 0, 10))
	}
	if got := len(s.Plan().TraversalPages); got != 0 {
		t.Errorf("no-gap plan has %d traversal pages", got)
	}
	if s.LastStats().GapPages != 0 {
		t.Error("no-gap stats report gap pages")
	}
}

func TestScoutOptResetRecovers(t *testing.T) {
	w := newChainWorld(t, 3, 200, 50)
	s := NewOpt(w.flat, nil, DefaultConfig())
	for i := 0; i < 3; i++ {
		w.observe(s, i, queryAt(20+float64(i)*9, 0, 10))
	}
	// Jump to chain 2: sparse build finds no entries → full rebuild.
	for i := 0; i < 3; i++ {
		w.observe(s, 3+i, queryAt(20+float64(i)*9, 100, 10))
	}
	next := geom.V(20+3*9, 100, 100)
	if !planCovers(s.Plan(), next) {
		t.Errorf("after jump, plan does not cover %v", next)
	}
}

func TestScoutOptMatchesScoutWithoutGaps(t *testing.T) {
	// "In the absence of gaps SCOUT and SCOUT-OPT have the same
	// performance" (§7.1): predictions must agree on a clean walk.
	w := newChainWorld(t, 3, 300, 30)
	plain := New(w.store, nil, DefaultConfig())
	opt := NewOpt(w.flat, nil, DefaultConfig())
	side := 10.0
	step := 9.0
	for i := 0; i < 6; i++ {
		q := queryAt(30+float64(i)*step, 0, side)
		w.observe(plain, i, q)
		w.observe(opt, i, q)
	}
	next := geom.V(30+6*step, 0, 0)
	if !planCovers(plain.Plan(), next) || !planCovers(opt.Plan(), next) {
		t.Error("plans disagree on covering the next center")
	}
}

func TestFarthestAlongEmptyStarts(t *testing.T) {
	w := newChainWorld(t, 1, 10, 10)
	bounds := geom.Box(geom.V(0, -1, -1), geom.V(10, 1, 1))
	g := sgraph.New(w.store, bounds, 4096)
	e := sgraph.Boundary{Point: geom.V(10, 0, 0), Dir: geom.V(1, 0, 0)}
	loc, reached := farthestAlong(g, nil, e, 20, 10)
	if reached {
		t.Error("empty starts reported reached")
	}
	// The anchor is the expected entry point: exit + gap along the exit dir.
	want := geom.V(10+20, 0, 0)
	if loc.center.Dist(want) > 1e-9 {
		t.Errorf("fallback center %v, want %v", loc.center, want)
	}
}

func TestPrefetcherContract(t *testing.T) {
	w := newChainWorld(t, 1, 50, 10)
	var p prefetch.Prefetcher = NewOpt(w.flat, nil, DefaultConfig())
	p.Reset()
	if plan := p.Plan(); len(plan.Requests) != 0 {
		t.Error("fresh prefetcher planned requests")
	}
}
