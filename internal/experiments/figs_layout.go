package experiments

import (
	"fmt"

	"scout/internal/core"
	"scout/internal/engine"
	"scout/internal/pagestore"
	"scout/internal/workload"
)

// Layout1 measures the physical-layout subsystem: the same spatially
// coherent guided walks, executed under every layout policy × the two I/O
// paths, on each applicability dataset (neuro/artery/road). The cost model
// charges a seek per physical discontinuity, so Seeks is the direct
// measure of how well a layout packs what a walk touches; SimulatedIO is
// what the seeks cost end to end. Wall time per experiment is reported by
// the scoutbench harness line (it is nondeterministic and stays out of the
// golden).
//
// Rows:
//   - insertion/page:  the seed's configuration — logical order on the
//     platter, per-page prioritized prefetch flush. The baseline.
//   - insertion/batch: same layout, elevator batching — isolates what
//     batching alone is worth.
//   - hilbert/batch, str/batch: remapped layouts under elevator batching —
//     the locality win on top.
func Layout1(env *Env) Result {
	opt := env.Options()
	res := Result{
		ID:     "layout1",
		Figure: "layout",
		Title:  "Seeks and simulated I/O by physical page layout (batched elevator reads)",
		Header: []string{"Dataset", "Layout", "I/O path", "Seeks", "Pages", "SimulatedIO", "Hit rate", "Seeks vs insertion"},
	}
	type mode struct {
		layout  string
		batched bool
	}
	modes := []mode{
		{"insertion", false},
		{"insertion", true},
		{"hilbert", true},
		{"str", true},
	}
	for _, s := range []*Setup{env.Neuro(), env.Artery(), env.Road()} {
		seqs := s.genSequences(layoutParams(), opt.sequences(10), opt.Seed)
		// The sweep remaps the shared store in place; restore its layout
		// afterwards so later experiments see the order they were built
		// on.
		restore := s.Store.LayoutName()
		var baseSeeks int64
		for _, m := range modes {
			relayout(s.Store, m.layout)
			stats, hit := runLayoutWalks(s, seqs, m.batched)
			if m.layout == "insertion" && !m.batched {
				baseSeeks = stats.Seeks
			}
			vs := "1.00x"
			if m.batched {
				vs = x2(float64(baseSeeks) / float64(stats.Seeks))
			}
			path := "page"
			if m.batched {
				path = "batch"
			}
			res.AddRow(s.DS.Name, m.layout, path,
				fmt.Sprintf("%d", stats.Seeks),
				fmt.Sprintf("%d", stats.PagesRead),
				ms(stats.SimulatedIO),
				pct(hit),
				vs)
			opt.progress("layout1: %s %s/%s done", s.DS.Name, m.layout, path)
		}
		relayout(s.Store, restore)
	}
	res.Notes = append(res.Notes,
		"seeks = discontinuities charged by the cost model; an elevator run (adjacent + bridged gaps) costs one seek",
		"'seeks vs insertion' compares each configuration against insertion/page, the seed's per-page configuration",
		"hilbert packs pages along a 3D Hilbert curve over page centroids, str re-tiles them Sort-Tile-Recursively; the seed's STR bulk-load order is already spatially coherent, so remaps matter most for stores whose creation order is not spatial")
	return res
}

// layoutParams is the spatially coherent walk the sweep measures: the
// model-building microbenchmark (Figure 10), whose dense step-by-step
// navigation is exactly the access pattern physical locality serves.
func layoutParams() workload.Params {
	return workload.Params{Queries: 35, Volume: 20_000, Shape: workload.Cube, WindowRatio: 2}
}

// relayout installs the named layout, panicking on the impossible (names
// come from the experiment's own table).
func relayout(store *pagestore.Store, name string) {
	l, err := pagestore.ParseLayout(name)
	if err != nil {
		panic(fmt.Sprintf("experiments: %v", err))
	}
	if err := store.Relayout(l); err != nil {
		panic(fmt.Sprintf("experiments: relayout: %v", err))
	}
}

// runLayoutWalks executes the sequences with SCOUT on one engine,
// sequentially (RunAll), so the engine's single disk accumulates the whole
// sweep's I/O stats (the parallel path would scatter them across
// per-worker clones). Returns the accumulated disk stats and the pooled
// hit rate.
func runLayoutWalks(s *Setup, seqs []workload.Sequence, batched bool) (pagestore.DiskStats, float64) {
	cfg := engine.DefaultConfig()
	cfg.BatchedIO = batched
	e := engine.New(s.Store, s.Tree, cfg)
	agg := e.RunAll(seqs, s.scout(core.DefaultConfig()))
	return e.Disk().Stats(), agg.HitRate()
}
