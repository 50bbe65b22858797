package experiments

import (
	"fmt"
	"time"

	"scout/internal/core"
	"scout/internal/engine"
	"scout/internal/workload"
)

// shardPoint is one measured cell of the shard1 sweep: one layout × one
// workload × one shard count, run to completion on a single sharded engine
// so the shard disks accumulate the whole cell's I/O. Kept structured (the
// rendering is separate) so the property tests can assert on the physics
// instead of parsing table strings.
type shardPoint struct {
	Layout   string
	Workload string
	Shards   int
	// Service is the summed counted residual — the virtual wall-clock the
	// sessions actually waited on demand I/O.
	Service    time.Duration
	TotalPages int64
	HitRate    float64
	// Seeks is the fleet total; MaxShardSeeks the worst single shard —
	// the per-disk head-movement load the scale-out is meant to divide.
	Seeks         int64
	MaxShardSeeks int64
	RoutedPages   int64
	MeanFanout    float64
	// P95Single / P95Multi split the counted residual tail by routing
	// degree: queries answered by one shard vs queries that fanned out.
	P95Single time.Duration
	P95Multi  time.Duration
}

// shardWorkloads returns the two walks the sweep measures: the
// model-building walk layout1 also uses (dense, spatially coherent — the
// best case for range partitioning), and a boundary-stress walk with 6×
// the query volume, whose wide queries routinely straddle shard ranges and
// so exercise the fan-out/merge path and the routing charge.
func shardWorkloads() []struct {
	name   string
	params workload.Params
} {
	return []struct {
		name   string
		params workload.Params
	}{
		{"model", layoutParams()},
		{"boundary", workload.Params{Queries: 20, Volume: 120_000, Shape: workload.Cube, WindowRatio: 1.5}},
	}
}

// shard1Counts is shard1's shard-count sweep.
var shard1Counts = []int{1, 2, 4, 8, 16}

// shard1Sweep runs the full grid — {insertion, hilbert} × {model, boundary}
// × shard1Counts — on the neuro dataset and
// returns the structured points. Sequential and single-coordinator
// throughout, so the output is byte-identical for any -workers.
func shard1Sweep(env *Env) []shardPoint {
	opt := env.Options()
	s := env.Neuro()
	restore := s.Store.LayoutName()
	var points []shardPoint
	for _, layout := range []string{"insertion", "hilbert"} {
		relayout(s.Store, layout)
		for _, wl := range shardWorkloads() {
			seqs := s.genSequences(wl.params, opt.sequences(6), opt.Seed)
			for _, n := range shard1Counts {
				points = append(points, runShardWalks(s, layout, wl.name, n, seqs))
				opt.progress("shard1: %s/%s S=%d done", layout, wl.name, n)
			}
		}
	}
	relayout(s.Store, restore)
	return points
}

// runShardWalks measures one cell: all sequences on one sharded engine with
// one SCOUT prefetcher (RunSequence clears shard caches and resets the
// prefetcher per sequence, exactly like the unsharded RunAll path).
func runShardWalks(s *Setup, layout, wl string, shards int, seqs []workload.Sequence) shardPoint {
	e := engine.NewShardedEngine(s.Store, s.Tree, engine.DefaultConfig(), shards)
	defer e.Close()
	sc := s.scout(core.DefaultConfig())

	pt := shardPoint{Layout: layout, Workload: wl, Shards: shards}
	var hitPages int64
	var single, multi []time.Duration
	var fanSum, fanN int64
	for _, seq := range seqs {
		r := e.RunSequence(seq, sc)
		pt.Service += r.Residual
		pt.TotalPages += r.TotalPages
		hitPages += r.HitPages
		for _, tr := range r.Queries {
			pt.RoutedPages += int64(tr.RoutedPages)
			fanSum += int64(tr.Fanout)
			fanN++
			if !engine.Counted(tr.Seq) {
				continue
			}
			if tr.Fanout > 1 {
				multi = append(multi, tr.Residual)
			} else {
				single = append(single, tr.Residual)
			}
		}
	}
	stats := e.Stats()
	pt.Seeks = stats.Seeks
	for _, ds := range e.ShardStats() {
		if ds.Seeks > pt.MaxShardSeeks {
			pt.MaxShardSeeks = ds.Seeks
		}
	}
	if fanN > 0 {
		pt.MeanFanout = float64(fanSum) / float64(fanN)
	}
	if pt.TotalPages > 0 {
		pt.HitRate = float64(hitPages) / float64(pt.TotalPages)
	}
	pt.P95Single = summarize(single).P95
	pt.P95Multi = summarize(multi).P95
	return pt
}

// Shard1 renders the scale-out sweep: service-time speedup over the
// one-shard run, fleet and worst-shard seeks, fan-out degree, routed pages
// and the single- vs multi-shard residual tails, per layout × workload ×
// shard count.
func Shard1(env *Env) Result {
	points := shard1Sweep(env)
	res := Result{
		ID:     "shard1",
		Figure: "scale-out",
		Title:  "Sharded engine scaling: service time, per-shard seeks and fan-out vs shard count",
		Header: []string{"Layout", "Workload", "Shards", "Service", "Speedup", "Seeks", "MaxShardSeeks", "Fanout", "Routed", "p95 1-shard", "p95 multi", "Hit rate"},
	}
	base := make(map[string]time.Duration)
	for _, p := range points {
		if p.Shards == 1 {
			base[p.Layout+"/"+p.Workload] = p.Service
		}
	}
	for _, p := range points {
		speed := "-"
		if b, ok := base[p.Layout+"/"+p.Workload]; ok && p.Service > 0 {
			speed = x2(float64(b) / float64(p.Service))
		}
		res.AddRow(p.Layout, p.Workload,
			fmt.Sprintf("%d", p.Shards),
			ms(p.Service),
			speed,
			fmt.Sprintf("%d", p.Seeks),
			fmt.Sprintf("%d", p.MaxShardSeeks),
			fmt.Sprintf("%.2f", p.MeanFanout),
			fmt.Sprintf("%d", p.RoutedPages),
			ms(p.P95Single),
			ms(p.P95Multi),
			pct(p.HitRate))
	}
	res.Notes = append(res.Notes,
		"service = summed counted residual I/O; speedup is vs the same layout/workload at one shard",
		"shards own contiguous physical ranges of the layout key, so under hilbert each shard owns a Hilbert range; demand and prefetch fan out in parallel and merge as the slowest shard plus a per-page routing charge for pages shipped from non-home shards",
		"every shard sweeps its slice of the prefetch window concurrently under the full budget — that is where the scale-out speedup comes from; MaxShardSeeks shows the per-disk head-movement load dividing as shards are added")
	return res
}
