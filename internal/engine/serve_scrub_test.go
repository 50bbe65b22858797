package engine

import (
	"reflect"
	"testing"
	"time"

	"scout/internal/fault"
	"scout/internal/pagestore"
)

// TestServeScrubMakesProgress is the ScrubPages-dead-on-serving-path bugfix
// test: with a backing file and ScrubPages set, Serve paces the background
// scrub out of idle granted prefetch-window time — and with ScrubPages 0
// (the seed config) it never scrubs at all.
func TestServeScrubMakesProgress(t *testing.T) {
	store, tree := lineWorld(t, 4000)
	cfg := ServeConfig{Engine: DefaultConfig(), Policy: FairShare, CacheShards: 8}
	cfg.Engine.Backing = backedStore(t, store, pagestore.FileStoreConfig{Mode: pagestore.ChecksumVerify})
	off := PlanSessions(store, tree, serveWorkloads(6, 7), cfg.Engine.Cost, 0).Serve(cfg)
	if off.Disk.ScrubbedPages != 0 || off.Disk.ScrubIO != 0 {
		t.Fatalf("ScrubPages=0 still scrubbed: %+v", off.Disk)
	}

	cfg.Engine.ScrubPages = 16
	on := PlanSessions(store, tree, serveWorkloads(6, 7), cfg.Engine.Cost, 0).Serve(cfg)
	if on.Disk.ScrubbedPages == 0 || on.Disk.ScrubIO <= 0 {
		t.Fatalf("serve never scrubbed despite ScrubPages=16: %+v", on.Disk)
	}
	// Scrub occupies idle window time the session already owned: demand-read
	// responses — every percentile of them — are byte-identical to the
	// scrub-free serve.
	if !reflect.DeepEqual(off.Responses(), on.Responses()) {
		t.Error("background scrub changed demand-read responses")
	}
	for _, p := range []float64{50, 95, 99, 99.9} {
		a, b := Percentile(off.Responses(), p), Percentile(on.Responses(), p)
		if a != b {
			t.Errorf("p%v drifted under scrub: %v vs %v", p, b, a)
		}
	}
	if on.Makespan != off.Makespan {
		t.Errorf("scrub moved the makespan: %v vs %v", on.Makespan, off.Makespan)
	}
	// The scrub is priced, not free: it shows up in the simulated-I/O ledger.
	if on.Disk.SimulatedIO <= off.Disk.SimulatedIO {
		t.Errorf("scrub charged no simulated I/O: %v vs %v", on.Disk.SimulatedIO, off.Disk.SimulatedIO)
	}
}

// TestServeScrubRepairsCorruption: on a repairable backing file damaged at
// rest, the serving-path scrub detects and heals pages, with the detected
// corruption attributed to the scrubbing sessions so the per-session ledger
// still sums to the disk's.
func TestServeScrubRepairsCorruption(t *testing.T) {
	store, tree := lineWorld(t, 4000)
	// The scrub heals the file in place, so each run needs its own
	// identically corrupted copy (same injector seed, same damage).
	corruptFS := func() *pagestore.FileStore {
		fs := backedStore(t, store, pagestore.FileStoreConfig{Mode: pagestore.ChecksumRepair, Replica: true})
		inj := fault.NewStorage(fault.StoragePlan{Seed: 7, CorruptRate: 0.2, CrashStep: fault.NoCrash})
		if flipped, torn, err := fs.ApplyCorruption(inj); err != nil || flipped+torn == 0 {
			t.Fatalf("ApplyCorruption = (%d, %d, %v)", flipped, torn, err)
		}
		return fs
	}

	cfg := ServeConfig{Engine: DefaultConfig(), Policy: FairShare, CacheShards: 8}
	cfg.Engine.Backing = corruptFS()
	cfg.Engine.ScrubPages = 64
	res := PlanSessions(store, tree, serveWorkloads(8, 7), cfg.Engine.Cost, 0).Serve(cfg)
	if res.Disk.ScrubbedPages == 0 {
		t.Fatalf("no scrub progress: %+v", res.Disk)
	}
	if res.Disk.RepairedPages == 0 {
		t.Fatalf("scrub repaired nothing on a 20%% corrupt file: %+v", res.Disk)
	}
	// Determinism holds with the scrub in the loop (fresh copy of the same
	// corruption — the first run healed its own file).
	cfg.Engine.Backing = corruptFS()
	again := PlanSessions(store, tree, serveWorkloads(8, 7), cfg.Engine.Cost, 0).Serve(cfg)
	res.Disk.WallRead, again.Disk.WallRead = 0, 0
	if !reflect.DeepEqual(res, again) {
		t.Error("scrubbing serve is not deterministic")
	}
}

// TestServeScrubShedAware: a degraded session's windows are shed — grant
// zero — so an all-but-one-degraded serve still scrubs (the one admitted
// session's windows), while a serve whose every window is starved by the
// injector scrubs nothing.
func TestServeScrubShedAware(t *testing.T) {
	store, tree := lineWorld(t, 4000)
	cfg := ServeConfig{Engine: DefaultConfig(), Policy: FairShare, CacheShards: 8}
	cfg.Engine.Backing = backedStore(t, store, pagestore.FileStoreConfig{Mode: pagestore.ChecksumVerify})
	cfg.Engine.ScrubPages = 16

	// Every arbiter window starved: no grants anywhere, so no scrub either —
	// the scrub must never run on budget the session was not granted.
	starved := cfg
	starved.Faults = fault.New(fault.Plan{Seed: 7, StarvePeriod: time.Millisecond, StarveRate: 1})
	res := PlanSessions(store, tree, serveWorkloads(6, 7), starved.Engine.Cost, 0).Serve(starved)
	for _, s := range res.Sessions {
		for _, seq := range s.Sequences {
			for _, tr := range seq.Queries {
				if tr.Prefetched != 0 {
					t.Fatalf("full starvation still prefetched %d pages", tr.Prefetched)
				}
			}
		}
	}
	if res.Disk.ScrubbedPages != 0 {
		t.Errorf("starved windows still scrubbed %d pages", res.Disk.ScrubbedPages)
	}
}
