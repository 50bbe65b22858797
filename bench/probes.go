package main

import (
	"sync"
	"time"

	"scout/internal/cache"
	"scout/internal/core"
	"scout/internal/engine"
	"scout/internal/fault"
	"scout/internal/pagestore"
	"scout/internal/prefetch"
	"scout/internal/sgraph"
)

// flatten concatenates page lists.
func flatten(lists [][]pagestore.PageID) []pagestore.PageID {
	var out []pagestore.PageID
	for _, l := range lists {
		out = append(out, l...)
	}
	return out
}

// replayProbes replays what the decorators recorded straight into the
// concrete layers' public functions and returns per-layer values by metric
// name. The streams stand in for the engine's own calls: demand page lists
// for lookups and reads (the engine reads only the missing subset, which
// cannot be seen from outside), index probe results for inserts.
func replayProbes(b *base, rec *recorder, opt options, cachePages int) map[string]float64 {
	out := map[string]float64{}
	probeBudget := time.Duration(opt.sz.ProbeMS) * time.Millisecond
	faultSeed := opt.faultSeed
	lookups, inserts := flatten(rec.lookups), flatten(rec.inserts)
	cost := pagestore.DefaultCostModel()

	// cache: the single-session LRU and the serving path's sharded cache.
	lru := cache.New(cachePages)
	out["cache.lru.insert.ns_per_op"] = nsPerOp(probeBudget, len(inserts), func() {
		for _, pg := range inserts {
			lru.Insert(pg)
		}
	})
	st := lru.Stats()
	out["replay.evictions_per_insert"] = ratio(float64(st.Evictions), float64(st.Inserted))
	out["cache.lru.lookup.ns_per_op"] = nsPerOp(probeBudget, len(lookups), func() {
		for _, pg := range lookups {
			lru.Lookup(pg)
		}
	})
	sh := cache.NewSharded(cachePages, 0)
	out["cache.sharded.insert.ns_per_op"] = nsPerOp(probeBudget, len(inserts), func() {
		for _, pg := range inserts {
			sh.Insert(pg)
		}
	})
	out["cache.sharded.lookup.ns_per_op"] = nsPerOp(probeBudget, len(lookups), func() {
		for _, pg := range lookups {
			sh.Lookup(pg)
		}
	})
	procs := gomaxprocs()
	out["cache.sharded.mixed.ns_per_op_contended"] = nsPerOp(probeBudget, procs*(len(lookups)+len(inserts)), func() {
		var wg sync.WaitGroup
		for g := 0; g < procs; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for _, pg := range lookups {
					sh.Lookup(pg)
				}
				for _, pg := range inserts {
					sh.Insert(pg)
				}
			}()
		}
		wg.Wait()
	})

	// pagestore: the disk model's three pricing entry points.
	disk := pagestore.NewDisk(b.store, cost)
	out["pagestore.disk.read_pages.ns_per_page"] = nsPerOp(probeBudget, len(lookups), func() {
		for _, l := range rec.lookups {
			disk.ResetHead()
			disk.ReadPages(l)
		}
	})
	out["pagestore.disk.read_batch.ns_per_page"] = nsPerOp(probeBudget, len(lookups), func() {
		for _, l := range rec.lookups {
			disk.ResetHead()
			disk.ReadBatch(l)
		}
	})
	out["pagestore.disk.cold_cost.ns_per_page"] = nsPerOp(probeBudget, len(lookups), func() {
		for _, l := range rec.lookups {
			disk.ColdCost(l)
		}
	})

	// The router and what it stands on.
	part := pagestore.NewPartition(b.store, shards)
	out["pagestore.partition.shard_of.ns_per_op"] = nsPerOp(probeBudget, len(lookups), func() {
		for _, pg := range lookups {
			part.ShardOf(b.store, pg)
		}
	})
	router := engine.NewRouter(b.store, part, cost)
	var parts [][]pagestore.PageID
	out["engine.router.split.ns_per_page"] = nsPerOp(probeBudget, len(lookups), func() {
		for _, l := range rec.lookups {
			parts = router.Split(l, parts)
		}
	})
	var fanout float64
	for _, l := range rec.lookups {
		parts = router.Split(l, parts)
		fanout += float64(router.Fanout(parts))
	}
	out["replay.fanout_mean"] = ratio(fanout, float64(len(rec.lookups)))
	for _, n := range []int{1, shards} {
		set := engine.NewShardSet(make([]struct{}, n))
		name := "engine.shardset.do.us_per_barrier_s1"
		if n > 1 {
			name = "engine.shardset.do.us_per_barrier_s8"
		}
		out[name] = nsPerOp(probeBudget, 100, func() {
			for i := 0; i < 100; i++ {
				set.Do(func(int, struct{}) {})
			}
		}) / 1e3
		set.Close()
	}

	// fault: one roll of each kind the read path consults.
	plan, _ := fault.ParseProfile("shard:flaky", faultSeed)
	inj := fault.New(plan)
	out["fault.injector.roll.ns_per_op"] = nsPerOp(probeBudget, 3*len(lookups), func() {
		for i, pg := range lookups {
			now := time.Duration(i) * time.Millisecond
			inj.ReadFailure(pg, now, 0)
			inj.SlowPage(pg, now)
			inj.ShardOutage(int(pg)%shards, shards, now)
		}
	})

	// arbiter: a grant with k contenders (the demand-weighted policy walks
	// them all), and the per-query ledger update.
	const sessions = 256
	arb := engine.NewArbiter(engine.DemandWeighted, sessions)
	for s := 0; s < sessions; s++ {
		arb.Record(s, 40, s%40, time.Millisecond)
	}
	all := make([]int, sessions-1)
	for i := range all {
		all[i] = i + 1
	}
	for _, k := range []struct {
		n    int
		name string
	}{{8, "k8"}, {64, "k64"}, {255, "k255"}} {
		contenders := all[:k.n]
		out["engine.arbiter.grant.ns_per_call_"+k.name] = nsPerOp(probeBudget, 100, func() {
			for i := 0; i < 100; i++ {
				arb.Grant(0, contenders, 10*time.Millisecond)
			}
		})
	}
	out["engine.arbiter.record.ns_per_call"] = nsPerOp(probeBudget, 100, func() {
		for i := 0; i < 100; i++ {
			arb.Record(i%sessions, 40, 10, time.Millisecond)
		}
	})

	// flatindex: SCOUT-OPT's ordered retrieval, on the recorded regions.
	out["flatindex.query_pages_from.us_per_call"] = nsPerOp(probeBudget, len(rec.obs), func() {
		for _, o := range rec.obs {
			b.flat.QueryPagesFrom(o.region, o.center)
		}
	}) / 1e3

	// prefetch: the straight-line baseline on the recorded observations,
	// for workloads that do not run it themselves.
	sl := prefetch.NewStraightLine(boundaryParams().Volume)
	out["replay.straightline.us_per_query"] = nsPerOp(probeBudget, len(rec.obs), func() {
		sl.Reset()
		for _, o := range rec.obs {
			sl.Observe(prefetch.Observation{Seq: o.seq, Region: o.region, Center: o.center, Result: o.result})
			sl.Plan()
		}
	}) / 1e3

	replayGraph(b, rec, probeBudget, out)

	// Store.Relayout swaps the translation table in place; put the
	// workload's own layout back afterwards.
	restore, _ := pagestore.ParseLayout(b.store.LayoutName())
	t0 := time.Now()
	_ = b.store.Relayout(pagestore.HilbertLayout())
	out["pagestore.store.relayout_ms"] = ms(time.Since(t0))
	_ = b.store.Relayout(restore)
	return out
}

// replayGraph drives the recorded result sets through the spatial graph the
// way SCOUT does: a full build per query, an in-place advance from the
// previous query of the same walk, and the boundary-crossing scan.
func replayGraph(b *base, rec *recorder, probeBudget time.Duration, out map[string]float64) {
	if len(rec.obs) == 0 {
		return
	}
	res := core.DefaultConfig().Resolution
	g := sgraph.New(b.store, rec.obs[0].region.Bounds(), res)
	build := func(o obsSample) {
		g.Reset(o.region.Bounds(), res)
		for _, id := range o.result {
			g.AddObject(id)
		}
	}
	out["sgraph.build.us_per_query"] = nsPerOp(probeBudget, len(rec.obs), func() {
		for _, o := range rec.obs {
			build(o)
		}
	}) / 1e3

	var verts, edges float64
	var crossings []sgraph.Boundary
	var crossNS, advanceNS time.Duration
	advances := 0
	prev := map[*tracedPrefetcher]obsSample{}
	for _, o := range rec.obs {
		// Advance: rebuild the predecessor's graph untimed, diff the result
		// sets, then time carrying the graph over.
		if p, ok := prev[o.who]; ok && p.seq+1 == o.seq {
			build(p)
			if g.CanAdvance(o.region.Bounds(), res) {
				removed, added := diff(p.result, o.result)
				t0 := time.Now()
				g.Advance(o.region.Bounds(), res, removed, added)
				advanceNS += time.Since(t0)
				advances++
			}
		}
		prev[o.who] = o

		build(o)
		verts += float64(g.NumVertices())
		edges += float64(g.NumEdges())
		t0 := time.Now()
		crossings = g.AppendCrossings(crossings[:0], o.region)
		crossNS += time.Since(t0)
	}
	n := float64(len(rec.obs))
	out["sgraph.advance.us_per_query"] = ratio(float64(advanceNS.Microseconds()), float64(advances))
	out["sgraph.crossings.us_per_query"] = float64(crossNS.Microseconds()) / n
	out["sgraph.vertices_per_query"] = verts / n
	out["sgraph.edges_per_query"] = edges / n
	out["sgraph.memory_kb"] = float64(g.MemoryBytes()) / 1024
}

// diff returns the object IDs only in old (removed) and only in cur (added).
func diff(old, cur []pagestore.ObjectID) (removed, added []pagestore.ObjectID) {
	in := make(map[pagestore.ObjectID]bool, len(old))
	for _, id := range old {
		in[id] = true
	}
	for _, id := range cur {
		if in[id] {
			delete(in, id)
		} else {
			added = append(added, id)
		}
	}
	for _, id := range old {
		if in[id] {
			removed = append(removed, id)
		}
	}
	return removed, added
}
