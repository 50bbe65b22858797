package engine

import (
	"path/filepath"
	"reflect"
	"testing"

	"scout/internal/fault"
	"scout/internal/pagestore"
	"scout/internal/prefetch"
)

// backedStore writes a FileStore for the test world into a temp dir.
func backedStore(t *testing.T, store *pagestore.Store, cfg pagestore.FileStoreConfig) *pagestore.FileStore {
	t.Helper()
	fs, err := pagestore.CreateFileStore(filepath.Join(t.TempDir(), "world.pages"), store, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fs.Close() })
	return fs
}

// TestBackedEngineMatchesSim pins the backend's no-drift contract: with an
// uncorrupted file the backed engine's virtual-clock outputs are
// byte-identical to the pure simulation — the only divergence is the
// wall-clock WallRead counter.
func TestBackedEngineMatchesSim(t *testing.T) {
	store, tree := lineWorld(t, 4000)
	for _, batched := range []bool{false, true} {
		cfg := DefaultConfig()
		cfg.BatchedIO = batched
		sim := New(store, tree, cfg)
		seq := walkSequence(12, 10, 9, 1.5)
		want := sim.RunSequence(seq, prefetch.NewStraightLine(1000))

		cfg.Backing = backedStore(t, store, pagestore.FileStoreConfig{Mode: pagestore.ChecksumVerify})
		backed := New(store, tree, cfg)
		got := backed.RunSequence(seq, prefetch.NewStraightLine(1000))
		if !reflect.DeepEqual(want, got) {
			t.Errorf("batched=%v: backed sequence result differs from sim", batched)
		}
		ss, bs := sim.Disk().Stats(), backed.Disk().Stats()
		if bs.WallRead <= 0 {
			t.Errorf("batched=%v: backed run recorded no wall read time", batched)
		}
		bs.WallRead = ss.WallRead
		if ss != bs {
			t.Errorf("batched=%v: disk stats drifted:\nsim    %+v\nbacked %+v", batched, ss, bs)
		}
		if len(backed.Disk().Errs()) != 0 {
			t.Errorf("batched=%v: clean backing surfaced errors: %v", batched, backed.Disk().Errs())
		}
	}
}

// TestBackedEngineScrubHeals: with ScrubPages set, idle prefetch-window time
// scrubs the file in the background — corruption injected at rest is
// repaired and priced without any demand read failing.
func TestBackedEngineScrubHeals(t *testing.T) {
	store, tree := lineWorld(t, 4000)
	fs := backedStore(t, store, pagestore.FileStoreConfig{Mode: pagestore.ChecksumRepair, Replica: true})
	inj := fault.NewStorage(fault.StoragePlan{Seed: 7, CorruptRate: 0.2, CrashStep: fault.NoCrash})
	flipped, torn, err := fs.ApplyCorruption(inj)
	if err != nil {
		t.Fatal(err)
	}
	if flipped+torn == 0 {
		t.Fatal("injector damaged nothing at rate 0.2")
	}

	cfg := DefaultConfig()
	cfg.Backing = fs
	cfg.ScrubPages = 16
	e := New(store, tree, cfg)
	e.RunSequence(walkSequence(12, 10, 9, 1.5), prefetch.NewStraightLine(1000))
	// Finish the pass the idle windows started.
	e.Disk().ScrubStep(store.NumPages())

	st := e.Disk().Stats()
	if st.ScrubbedPages == 0 || st.ScrubIO <= 0 {
		t.Fatalf("scrub never ran: %+v", st)
	}
	if st.RepairedPages == 0 {
		t.Fatalf("scrub repaired nothing: %+v", st)
	}
	// Scrub steps and repairs bill ScrubIO and CorruptDelay; the read ledger
	// of this walk is the clean simulation's (12 cold query starts, 19 pages).
	// dur1 runs this configuration and prints neither count.
	if st.Seeks != 12 || st.PagesRead != 19 {
		t.Errorf("read ledger moved under scrub and repair: Seeks %d PagesRead %d, want 12 and 19", st.Seeks, st.PagesRead)
	}
	if len(e.Disk().Errs()) != 0 {
		t.Errorf("repairable corruption surfaced errors: %v", e.Disk().Errs())
	}
	if err := fs.VerifyAgainst(store); err != nil {
		t.Errorf("file not intact after full scrub: %v", err)
	}
}

// TestServeBackedCleanIsByteIdentical: the serving path with an uncorrupted
// backing file produces the same virtual output as the pure simulation.
func TestServeBackedCleanIsByteIdentical(t *testing.T) {
	store, tree := lineWorld(t, 4000)
	cfg := ServeConfig{Engine: DefaultConfig(), Policy: FairShare, CacheShards: 8}
	want := Serve(store, tree, serveWorkloads(6, 7), cfg)

	cfg.Engine.Backing = backedStore(t, store, pagestore.FileStoreConfig{Mode: pagestore.ChecksumVerify})
	got := Serve(store, tree, serveWorkloads(6, 7), cfg)
	if got.Disk.WallRead <= 0 {
		t.Error("backed serve recorded no wall read time")
	}
	got.Disk.WallRead = want.Disk.WallRead
	if !reflect.DeepEqual(want, got) {
		t.Error("backed serve output differs from sim")
	}
}

// TestServeBackedCorruptionAttribution: detected corruption on the serving
// path lands in the per-session and global corruption counters — never in
// TimedOutReads — and feeds the circuit breaker's evidence.
func TestServeBackedCorruptionAttribution(t *testing.T) {
	store, tree := lineWorld(t, 4000)
	fs := backedStore(t, store, pagestore.FileStoreConfig{Mode: pagestore.ChecksumVerify})
	inj := fault.NewStorage(fault.StoragePlan{Seed: 7, CorruptRate: 0.3, CrashStep: fault.NoCrash})
	if flipped, torn, err := fs.ApplyCorruption(inj); err != nil || flipped+torn == 0 {
		t.Fatalf("ApplyCorruption = (%d, %d, %v)", flipped, torn, err)
	}

	cfg := ServeConfig{Engine: DefaultConfig(), Policy: FairShare, CacheShards: 8,
		Breaker: DefaultBreakerConfig()}
	cfg.Engine.Backing = fs
	res := Serve(store, tree, serveWorkloads(6, 7), cfg)
	if res.Disk.CorruptPages == 0 {
		t.Fatalf("corrupt backing detected nothing: %+v", res.Disk)
	}
	if res.Disk.TimedOutReads != 0 {
		t.Errorf("corruption was masked as %d timeouts", res.Disk.TimedOutReads)
	}
	var perSession int64
	for _, s := range res.Sessions {
		perSession += s.CorruptPages
	}
	if perSession != res.Disk.CorruptPages {
		t.Errorf("per-session corrupt pages %d do not sum to disk ledger %d",
			perSession, res.Disk.CorruptPages)
	}
	var trips int64
	for _, s := range res.Sessions {
		trips += s.BreakerTrips
	}
	if trips == 0 {
		t.Error("heavy unrepairable corruption never tripped a breaker")
	}
	// Determinism: the corrupt serve is byte-identical across worker counts.
	ra := PlanSessions(store, tree, serveWorkloads(6, 7), cfg.Engine.Cost, 1).Serve(cfg)
	rb := PlanSessions(store, tree, serveWorkloads(6, 7), cfg.Engine.Cost, 8).Serve(cfg)
	ra.Disk.WallRead, rb.Disk.WallRead = 0, 0
	if !reflect.DeepEqual(ra, rb) {
		t.Error("corrupt backed serve differs between 1 and 8 workers")
	}
}
