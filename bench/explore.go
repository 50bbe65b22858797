package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"scout/internal/core"
	"scout/internal/engine"
	"scout/internal/fault"
	"scout/internal/pagestore"
	"scout/internal/prefetch"
	"scout/internal/workload"
)

// boundaryParams is shard1's "boundary" walk: wide queries that routinely
// straddle shard ranges. explore_file and explore_sharded share it, so the
// two differ only in what backs the page reads.
func boundaryParams() workload.Params {
	return workload.Params{Queries: 20, Volume: 120_000, Shape: workload.Cube, WindowRatio: 1.5}
}

// timeWalks is the explore workloads' operation loop: one timed call per
// walk, with the result folded into the pass outside the timed interval.
func timeWalks(rec *recorder, opName string, walks []workload.Sequence, res *passResult,
	run func(i int) engine.SequenceResult, check func(i int, r engine.SequenceResult) error) {
	for i := range walks {
		n := int64(len(walks[i].Queries))
		rec.beginOp(opName)
		t := startOp()
		r := run(i)
		res.ops = append(res.ops, t.stop(n))
		rec.endOp()

		res.attempted += n
		res.v.addSequence(r, &res.fingerprint)
		for _, tr := range r.Queries {
			res.count("cache.lookups", float64(tr.ResultPages))
			res.count("cache.hits", float64(tr.HitPages))
			res.count("prefetched", float64(tr.Prefetched))
			res.count("fanout_sum", float64(tr.Fanout))
			res.count("routed_pages", float64(tr.RoutedPages))
		}
		if check != nil {
			if err := check(i, r); err != nil {
				fmt.Fprintf(os.Stderr, "check failed: walk %d: %v\n", i, err)
				res.failed += n
			}
		}
	}
}

// warmCount is how many of n walks the warm-up pass runs.
func warmCount(n, divisor int) int {
	return max(1, n/divisor)
}

// explore is the paper's scenario (Figure 10's mix) on the seed path: the
// five no-gap presets with SCOUT over the R-tree, the two gap presets with
// SCOUT-OPT over FLAT; sim backend, insertion layout, per-page I/O.
type explore struct {
	opt options
	b   *base
	// walks are preset-major; viaFlat marks the gap presets' walks.
	walks   []workload.Sequence
	viaFlat []bool
	scout   *core.Scout
	scoutO  *core.ScoutOpt
}

func (w *explore) base() *base     { return w.b }
func (w *explore) opsPerPass() int { return len(w.walks) }
func (w *explore) close()          {}
func (w *explore) traits() traits  { return traits{op: "engine.run_sequence"} }

func (w *explore) setup(*recorder) error {
	b, err := buildBase(w.opt, nil)
	if err != nil {
		return err
	}
	w.b, w.walks, w.viaFlat = b, nil, nil
	for i, mb := range workload.Microbenchmarks() {
		seqs, err := b.genWalks(mb.Params, w.opt.sz.WalksPerPreset, w.opt.seed+int64(i))
		if err != nil {
			return err
		}
		for _, s := range seqs {
			w.walks = append(w.walks, s)
			w.viaFlat = append(w.viaFlat, mb.Params.Gap > 0)
		}
	}
	w.scout = core.New(b.store, b.ds.Adjacency, core.DefaultConfig())
	w.scoutO = core.NewOpt(b.flat, b.ds.Adjacency, core.DefaultConfig())
	return nil
}

func (w *explore) pass(rec *recorder, warm bool) (passResult, error) {
	res := passResult{fingerprint: fnvOffset, counters: map[string]float64{}}
	start := time.Now()
	cfg := engine.DefaultConfig()
	viaTree := engine.New(w.b.store, traceIndex(w.b.tree, "rtree.query_pages", rec), cfg)
	viaFlat := engine.New(w.b.store, traceIndex(w.b.flat, "flatindex.query_pages", rec), cfg)
	scout := tracePrefetcher(w.scout, "core.scout.observe", rec)
	scoutO := tracePrefetcher(w.scoutO, "core.scoutopt.observe", rec)
	w.scout.ClearSession()
	w.b.tree.ResetNodesVisited()

	walks, flat := w.walks, w.viaFlat
	if warm {
		// One walk of each kind is enough to grow the arenas and cell memo.
		step := w.opt.sz.WarmDivisor
		walks, flat = nil, nil
		for i := 0; i < len(w.walks); i += step {
			walks, flat = append(walks, w.walks[i]), append(flat, w.viaFlat[i])
		}
	}
	timeWalks(rec, "engine.run_sequence", walks, &res, func(i int) engine.SequenceResult {
		if flat[i] {
			return viaFlat.RunSequence(walks[i], scoutO)
		}
		return viaTree.RunSequence(walks[i], scout)
	}, nil)

	for _, e := range []*engine.Engine{viaTree, viaFlat} {
		res.countDisk(e.Disk().Stats())
		res.count("cache.evictions", float64(e.Cache().Stats().Evictions))
	}
	sess := w.scout.Session()
	res.count("scout.delta_builds", float64(sess.DeltaBuilds))
	res.count("scout.builds", float64(sess.DeltaBuilds+sess.FullBuilds))
	res.count("rtree.nodes_visited", float64(w.b.tree.NodesVisited()))
	res.elapsed = time.Since(start)
	return res, nil
}

func (w *explore) probe(*recorder) (map[string]float64, error) { return nil, nil }

// exploreFile drives the durable path: a straight-line prefetcher (near-zero
// prediction cost) over the hilbert layout with batched I/O, every simulated
// read also performed against a FileStore in repair mode with a replica and
// a background scrub. Each pass starts by damaging the file at rest and
// rewrites it crash-consistently half-way (FileStore.Relayout, then reopen),
// so the first half reads a damaged file and the second a rewritten one.
type exploreFile struct {
	opt   options
	b     *base
	walks []workload.Sequence
	dir   string
	path  string
	fs    *pagestore.FileStore
	eng   *engine.Engine
	// engRec is the recorder eng's index decorator was built with.
	engRec *recorder

	createMBps float64
	// maintenance spans of the traced passes, by per-layer metric name.
	maint map[string][]float64
}

func (w *exploreFile) base() *base     { return w.b }
func (w *exploreFile) opsPerPass() int { return len(w.walks) }
func (w *exploreFile) traits() traits  { return traits{op: "engine.run_sequence", batched: true} }

func (w *exploreFile) close() {
	if w.fs != nil {
		w.fs.Close()
		w.fs = nil
	}
	if w.dir != "" {
		os.RemoveAll(w.dir)
		w.dir = ""
	}
}

func (w *exploreFile) setup(*recorder) error {
	w.close()
	b, err := buildBase(w.opt, pagestore.HilbertLayout())
	if err != nil {
		return err
	}
	w.b = b
	if err := os.MkdirAll(w.opt.tmpRoot, 0o755); err != nil {
		return err
	}
	if w.dir, err = os.MkdirTemp(w.opt.tmpRoot, "explore_file-"); err != nil {
		return err
	}
	w.path = filepath.Join(w.dir, "neuro.pages")
	t0 := time.Now()
	// Written after Relayout, so the file's slot order is the layout the
	// cost model prices.
	if w.fs, err = pagestore.CreateFileStore(w.path, b.store, w.opt.fileCfg); err != nil {
		return err
	}
	w.createMBps = w.fileBytes() / 1e6 / time.Since(t0).Seconds()
	if w.walks, err = b.genWalks(boundaryParams(), w.opt.sz.FileWalks, w.opt.seed); err != nil {
		return err
	}
	w.eng, w.maint = nil, map[string][]float64{}
	return nil
}

// fileBytes is the size of the primary and its replica.
func (w *exploreFile) fileBytes() float64 {
	var n int64
	for _, p := range []string{w.path, w.path + ".replica"} {
		if st, err := os.Stat(p); err == nil {
			n += st.Size()
		}
	}
	return float64(n)
}

// damage is the light at-rest corruption each pass starts from: 1 % of the
// pages get a flipped bit, 0.25 % a torn write.
func (w *exploreFile) damage() *fault.StorageInjector {
	return fault.NewStorage(fault.StoragePlan{
		Seed: w.opt.faultSeed, CorruptRate: 0.01, TornRate: 0.0025, CrashStep: fault.NoCrash})
}

// keep records one maintenance span of a traced pass.
func (w *exploreFile) keep(traced bool, name string, v float64) {
	if traced {
		w.maint[name] = append(w.maint[name], v)
	}
}

// reopen closes the store and opens the file again, as a restarted process
// would: recovery must accept whatever the last rewrite left behind, and the
// scrub cursor and counters start over, so every pass starts the same.
func (w *exploreFile) reopen(traced bool) error {
	if err := w.fs.Close(); err != nil {
		return fmt.Errorf("closing the page file: %w", err)
	}
	w.fs = nil
	t0 := time.Now()
	fs, err := pagestore.OpenFileStore(w.path, w.opt.fileCfg)
	if err != nil {
		return fmt.Errorf("reopening the page file: %w", err)
	}
	w.keep(traced, "pagestore.filestore.open_recover_ms", ms(time.Since(t0)))
	w.fs = fs
	w.eng.Disk().SetBacking(fs)
	return nil
}

// rewrite is the mid-pass maintenance: a crash-consistent rewrite of the
// whole file (shadow file, fsync, rename, replica rewrite), then a reopen.
func (w *exploreFile) rewrite(traced bool) error {
	t0 := time.Now()
	if err := w.fs.Relayout(w.b.store, pagestore.HilbertLayout(), nil); err != nil {
		return fmt.Errorf("relayout: %w", err)
	}
	w.keep(traced, "pagestore.filestore.relayout_ms", ms(time.Since(t0)))
	return w.reopen(traced)
}

func (w *exploreFile) pass(rec *recorder, warm bool) (passResult, error) {
	res := passResult{fingerprint: fnvOffset, counters: map[string]float64{}}
	start := time.Now()
	if w.eng == nil || w.engRec != rec {
		cfg := engine.DefaultConfig()
		cfg.BatchedIO = true
		cfg.Backing = w.fs
		cfg.ScrubPages = 64
		w.eng = engine.New(w.b.store, traceIndex(w.b.tree, "rtree.query_pages", rec), cfg)
		w.engRec = rec
	}
	if err := w.reopen(rec != nil); err != nil {
		return res, err
	}
	w.eng.Disk().ResetStats()
	w.eng.Cache().ResetStats()
	w.b.tree.ResetNodesVisited()
	p := tracePrefetcher(prefetch.NewStraightLine(boundaryParams().Volume), "prefetch.straightline.observe", rec)

	// The same pages are damaged every pass: the mid-pass rewrite re-encodes
	// every frame from memory, so each pass starts from a clean file
	// (ApplyCorruption flips bits, so applying it twice would undo it).
	if _, _, err := w.fs.ApplyCorruption(w.damage()); err != nil {
		return res, fmt.Errorf("applying corruption: %w", err)
	}

	walks := w.walks
	if warm {
		walks = walks[:2*warmCount(len(walks)/2, w.opt.sz.WarmDivisor)]
	}
	half := len(walks) / 2
	run := func(part []workload.Sequence) {
		timeWalks(rec, "engine.run_sequence", part, &res, func(i int) engine.SequenceResult {
			return w.eng.RunSequence(part[i], p)
		}, nil)
	}
	run(walks[:half])
	fs1 := w.fs.Stats() // the reopened store starts its counters again
	if err := w.rewrite(rec != nil); err != nil {
		return res, err
	}
	run(walks[half:])

	// Finish the scrub cycle (timed for the per-layer report), then hold the
	// file against the in-memory store.
	t0 := time.Now()
	rep := w.fs.Scrub(w.b.store.NumPages())
	w.keep(rec != nil, "pagestore.filestore.scrub.pages_per_s", float64(rep.Scanned)/time.Since(t0).Seconds())
	fs2 := w.fs.Stats()
	silent := fs1.SilentCorruptReads + fs2.SilentCorruptReads
	fail := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "check failed: "+format+"\n", args...)
		res.failed = res.attempted
	}
	if err := w.fs.VerifyAgainst(w.b.store); err != nil {
		fail("file does not verify against the store at pass end: %v", err)
	}
	if silent > 0 {
		fail("%d corrupt pages served silently", silent)
	}
	if errs := w.eng.Disk().Errs(); len(errs) > 0 {
		fail("%d read errors, first: %v", len(errs), errs[0])
	}

	res.countDisk(w.eng.Disk().Stats())
	res.count("cache.evictions", float64(w.eng.Cache().Stats().Evictions))
	res.count("rtree.nodes_visited", float64(w.b.tree.NodesVisited()))
	res.count("fs.detected", float64(fs1.CorruptDetected+fs2.CorruptDetected))
	res.count("fs.repaired", float64(fs1.Repaired+fs2.Repaired))
	res.count("fs.silent", float64(silent))
	res.elapsed = time.Since(start)
	return res, nil
}

// probe replays the recorded demand reads straight into FileStore.ReadPage
// under each checksum mode, and reports the maintenance spans.
func (w *exploreFile) probe(rec *recorder) (map[string]float64, error) {
	out := map[string]float64{
		"pagestore.filestore.create.mb_per_s":     w.createMBps,
		"pagestore.filestore.bytes_per_user_byte": ratio(w.fileBytes(), float64(w.b.store.TotalBytes())),
	}
	for name, v := range w.maint {
		out[name] = median(v)
	}
	var pages []pagestore.PageID
	for _, l := range rec.lookups {
		pages = append(pages, l...)
	}
	if err := w.fs.Close(); err != nil {
		return nil, err
	}
	w.fs = nil
	for _, mode := range []pagestore.ChecksumMode{pagestore.ChecksumOff, pagestore.ChecksumVerify, pagestore.ChecksumRepair} {
		repair := mode == pagestore.ChecksumRepair
		fs, err := pagestore.OpenFileStore(w.path, pagestore.FileStoreConfig{Mode: mode, Replica: repair})
		if err != nil {
			return nil, fmt.Errorf("opening for the %s read probe: %w", mode, err)
		}
		if repair {
			// Damage first, so the first sweep pays for detection and repair.
			if _, _, err := fs.ApplyCorruption(w.damage()); err != nil {
				fs.Close()
				return nil, err
			}
		}
		var buf []byte
		t0 := time.Now()
		for _, pg := range pages {
			payload, _, err := fs.ReadPage(pg, buf)
			if err != nil {
				fs.Close()
				return nil, fmt.Errorf("%s read probe: %w", mode, err)
			}
			buf = payload[:0]
		}
		out["pagestore.filestore.read_page."+mode.String()+".us_per_page"] =
			ratio(float64(time.Since(t0).Microseconds()), float64(len(pages)))
		if err := fs.Close(); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// exploreSharded drives ShardedEngine.RunSequence: the same walks and sweep
// pricing as explore_file without a file, on 8 Hilbert-range shards with
// chained replication, hedged prefetch and the shard:flaky fault profile.
type exploreSharded struct {
	opt   options
	b     *base
	walks []workload.Sequence
	// ref holds each walk's result hash on a fault-free, unreplicated,
	// single-shard engine: what every served result set must equal.
	ref []uint64
}

const shards = 8

func (w *exploreSharded) base() *base     { return w.b }
func (w *exploreSharded) opsPerPass() int { return len(w.walks) }
func (w *exploreSharded) close()          {}
func (w *exploreSharded) traits() traits {
	return traits{op: "engine.sharded.run_sequence", sharded: true, batched: true, faults: true}
}

func (w *exploreSharded) setup(*recorder) error {
	b, err := buildBase(w.opt, pagestore.HilbertLayout())
	if err != nil {
		return err
	}
	w.b, w.ref = b, nil
	w.walks, err = b.genWalks(boundaryParams(), w.opt.sz.ShardWalks, w.opt.seed)
	return err
}

// reference computes the result hashes the checks compare against. It is
// verification, not set-up, so it runs once, before the warm-up pass.
func (w *exploreSharded) reference() {
	cfg := engine.DefaultConfig()
	cfg.BatchedIO = true
	e := engine.NewShardedEngine(w.b.store, w.b.tree, cfg, 1)
	defer e.Close()
	w.ref = make([]uint64, len(w.walks))
	for i, seq := range w.walks {
		w.ref[i] = e.RunSequence(seq, prefetch.None{}).ResultHash
	}
}

func (w *exploreSharded) pass(rec *recorder, warm bool) (passResult, error) {
	res := passResult{fingerprint: fnvOffset, counters: map[string]float64{}}
	start := time.Now()
	if w.ref == nil {
		w.reference()
	}
	plan, err := fault.ParseProfile("shard:flaky", w.opt.faultSeed)
	if err != nil {
		return res, err
	}
	cfg := engine.DefaultConfig()
	cfg.BatchedIO = true
	cfg.Replicas = 2
	cfg.Hedge = 1.5
	cfg.Faults = fault.New(plan)
	// A fresh engine per pass: its virtual serving clock, which fault
	// episodes are a function of, persists across sequences.
	e := engine.NewShardedEngine(w.b.store, traceIndex(w.b.tree, "rtree.query_pages", rec), cfg, shards)
	defer e.Close()
	w.b.tree.ResetNodesVisited()
	p := tracePrefetcher(prefetch.NewStraightLine(boundaryParams().Volume), "prefetch.straightline.observe", rec)

	walks := w.walks
	if warm {
		walks = walks[:warmCount(len(walks), w.opt.sz.WarmDivisor)]
	}
	timeWalks(rec, "engine.sharded.run_sequence", walks, &res, func(i int) engine.SequenceResult {
		return e.RunSequence(walks[i], p)
	}, func(i int, r engine.SequenceResult) error {
		if r.LostPages > 0 {
			return fmt.Errorf("%d result pages lost despite replication", r.LostPages)
		}
		if r.ResultHash != w.ref[i] {
			return fmt.Errorf("result hash %x differs from the fault-free single-shard reference %x", r.ResultHash, w.ref[i])
		}
		return nil
	})
	res.countDisk(e.Stats())
	res.countHA(e.HAStats())
	res.count("rtree.nodes_visited", float64(w.b.tree.NodesVisited()))
	res.elapsed = time.Since(start)
	return res, nil
}

func (w *exploreSharded) probe(*recorder) (map[string]float64, error) { return nil, nil }
