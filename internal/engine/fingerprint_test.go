package engine

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"scout/internal/cache"
	"scout/internal/fault"
	"scout/internal/pagestore"
	"scout/internal/prefetch"
	"scout/internal/workload"
)

// fingerprint folds the %+v rendering of its arguments with FNV-1a: every
// field of every nested result, trace and ledger row moves it.
func fingerprint(vs ...any) uint64 {
	h := fnvOffset
	for _, v := range vs {
		for _, b := range []byte(fmt.Sprintf("%+v|", v)) {
			h = (h ^ uint64(b)) * fnvPrime
		}
	}
	return h
}

// withoutFanOut strips the fan-out bookkeeping — QueryTrace.Fanout and
// SequenceResult.ResultHash — from results of the one-range configurations
// (Engine through New, Serve with Shards 0). Those two fields say nothing
// about behaviour there (nothing fans out; the served sets are hashed on the
// sharded rows) and whether a one-range run bothers to fill them is not part
// of what the table pins. Everything else, and every field of the sharded
// rows, is.
func withoutFanOut(seqs []SequenceResult) []SequenceResult {
	out := make([]SequenceResult, len(seqs))
	for i, r := range seqs {
		r.ResultHash = 0
		r.Queries = append([]QueryTrace(nil), r.Queries...)
		for k := range r.Queries {
			r.Queries[k].Fanout = 0
		}
		out[i] = r
	}
	return out
}

// coreFingerprints was recorded at commit 7fb4c01, before the four execution
// paths were folded onto one shard fleet, and is the oracle that fold leans
// on: the 31 experiment goldens have known holes (two wrong programs have
// passed all of them), so every configuration the fold moves is pinned here
// field by field. A row may only change with a stated behavioural reason.
// Every row was re-derived when the result, ledger and disk stats lost the
// fields no program read (the field census): the old code's rendering with
// those fields cut out hashes to exactly these values.
var coreFingerprints = map[string]uint64{
	"engine/insertion/per-page":        0xbaf3ccbb5ec589de,
	"engine/insertion/batched":         0x53c7d2796ba14457,
	"engine/hilbert/per-page":          0x1e6e966bf5588117,
	"engine/hilbert/per-page/heavy":    0xe604e83667491db,
	"engine/hilbert/batched":           0x37d648935dc20a58,
	"engine/hilbert/batched/heavy":     0xb7b40589c37ce8e0,
	"engine/str/per-page":              0xa69908f48fa8e96c,
	"engine/str/batched":               0x5c2eed71abc6dd36,
	"sharded/S=1/R=1/hedge=0/none":     0x7a1b4bd2605430a9,
	"sharded/S=1/R=1/hedge=0/flaky1":   0xac9b11d2d8b91212,
	"sharded/S=1/R=1/hedge=0/flaky3":   0xcddc7f519d83ba1e,
	"sharded/S=1/R=1/hedge=1.5/none":   0x7a1b4bd2605430a9,
	"sharded/S=1/R=1/hedge=1.5/flaky1": 0xac9b11d2d8b91212,
	"sharded/S=1/R=1/hedge=1.5/flaky3": 0xcddc7f519d83ba1e,
	"sharded/S=1/R=2/hedge=0/none":     0x7a1b4bd2605430a9,
	"sharded/S=1/R=2/hedge=0/flaky1":   0xac9b11d2d8b91212,
	"sharded/S=1/R=2/hedge=0/flaky3":   0xcddc7f519d83ba1e,
	"sharded/S=1/R=2/hedge=1.5/none":   0x7a1b4bd2605430a9,
	"sharded/S=1/R=2/hedge=1.5/flaky1": 0xac9b11d2d8b91212,
	"sharded/S=1/R=2/hedge=1.5/flaky3": 0xcddc7f519d83ba1e,
	"sharded/S=4/R=1/hedge=0/none":     0x27756c9a32951206,
	"sharded/S=4/R=1/hedge=0/flaky1":   0x59168b85f98dd89f,
	"sharded/S=4/R=1/hedge=0/flaky3":   0x39a6f41d7f31bd1b,
	"sharded/S=4/R=1/hedge=1.5/none":   0x27756c9a32951206,
	"sharded/S=4/R=1/hedge=1.5/flaky1": 0x59168b85f98dd89f,
	"sharded/S=4/R=1/hedge=1.5/flaky3": 0x39a6f41d7f31bd1b,
	"sharded/S=4/R=2/hedge=0/none":     0x27756c9a32951206,
	"sharded/S=4/R=2/hedge=0/flaky1":   0xdf5df07a9c8dd3da,
	"sharded/S=4/R=2/hedge=0/flaky3":   0x500ff3c7cbc582ab,
	"sharded/S=4/R=2/hedge=1.5/none":   0x27756c9a32951206,
	"sharded/S=4/R=2/hedge=1.5/flaky1": 0x713dec8b078c58e4,
	"sharded/S=4/R=2/hedge=1.5/flaky3": 0x500ff3c7cbc582ab,
	"sharded/S=8/R=1/hedge=0/none":     0x749144df9ca06064,
	"sharded/S=8/R=1/hedge=0/flaky1":   0x3ad0696aac6b1f4f,
	"sharded/S=8/R=1/hedge=0/flaky3":   0x4087fa18dba4f739,
	"sharded/S=8/R=1/hedge=1.5/none":   0x749144df9ca06064,
	"sharded/S=8/R=1/hedge=1.5/flaky1": 0x3ad0696aac6b1f4f,
	"sharded/S=8/R=1/hedge=1.5/flaky3": 0x4087fa18dba4f739,
	"sharded/S=8/R=2/hedge=0/none":     0x749144df9ca06064,
	"sharded/S=8/R=2/hedge=0/flaky1":   0x7a48ae4569b78e7d,
	"sharded/S=8/R=2/hedge=0/flaky3":   0x8f672aa1343c0e55,
	"sharded/S=8/R=2/hedge=1.5/none":   0x749144df9ca06064,
	"sharded/S=8/R=2/hedge=1.5/flaky1": 0x7a48ae4569b78e7d,
	"sharded/S=8/R=2/hedge=1.5/flaky3": 0xe495184b0bd565f7,
	"serve/fair/shared/per-page":       0xf029bfe1fae21397,
	"serve/fair/shared/batched":        0x6169ccc5af2b4f3f,
	"serve/fair/private/per-page":      0x1ce9f371fd1e99e9,
	"serve/fair/private/batched":       0x7ac68893b9b019e0,
	"serve/demand/shared/per-page":     0xf029bfe1fae21397,
	"serve/demand/shared/batched":      0x6169ccc5af2b4f3f,
	"serve/demand/private/per-page":    0x1ce9f371fd1e99e9,
	"serve/demand/private/batched":     0x7ac68893b9b019e0,
	"serve/starved/shared/per-page":    0x4a183333f701a814,
	"serve/starved/shared/batched":     0x6169ccc5af2b4f3f,
	"serve/starved/private/per-page":   0xc3c8a4c5943278dd,
	"serve/starved/private/batched":    0x7ac68893b9b019e0,
	"serve/none/shared/per-page":       0x4a183333f701a814,
	"serve/none/shared/batched":        0x6169ccc5af2b4f3f,
	"serve/none/private/per-page":      0xd8aed0a29038a54e,
	"serve/none/private/batched":       0x7ac68893b9b019e0,
	"serve/robust/per-page":            0xb853d8447c3541c1,
	"serve/robust/private/per-page":    0x69b34d271892b28b,
	"serve/robust/batched":             0x5a4eca68199bff41,
	"serve/robust/private/batched":     0x7c7130001e012feb,
	"serve/robust/S=1":                 0x3494a2ff6e1061cd,
	"serve/classes/per-page":           0x1cee4dada482e265,
	"serve/classes/batched":            0x15f56a0bffc5d69f,
	"serve/classes/S=4":                0x45ea4926e2451d3e,
	"serve/flaky/S=1/R=1":              0x571aa75d9d72464d,
	"serve/flaky/S=1/R=2":              0x571aa75d9d72464d,
	"serve/flaky/S=4/R=1":              0xf460b68ef69f61b4,
	"serve/flaky/S=4/R=2":              0xd75be18a4547bbac,
	"serve/flaky/S=0":                  0xa28963ee1d5556b7,
	// Recorded at commit b45e7ca, before the commit loop's next-event scan
	// became a (virtual time, session ID) heap: ties and arrival order.
	"serve/bursty/per-page":   0xf9be96f1c6b30d29,
	"serve/bursty/batched":    0x170fbf146c75b564,
	"serve/closed64/per-page": 0x27073da2c1f1fe15,
	"serve/closed64/batched":  0xb09885e6a2033db2,
	// Recorded at commit 5cf1249, before each demand set got one physical
	// order: lookup and miss-read order under a cache that evicts every turn.
	"evicting/sharded/S=8/R=2":   0xd119f67d78280a7b,
	"evicting/serve/S=8/R=2":     0x157ce4cf2e06540a,
	"evicting/serve/S=0/batched": 0x3654612c3a1de98b,
}

// TestCoreFingerprints runs every execution-core configuration — Engine
// {per-page, batched} under each layout and under page faults; NewShardedEngine
// over shard counts, replication, hedging and shard faults; Serve over
// policy × cache mode × I/O mode, the robustness stack, open-loop classes,
// tied and out-of-order arrivals, and the replicated fleet under shard
// faults; both drivers under a cache that evicts every turn — and compares
// the FNV-1a of
// the whole result (traces, ledgers, disk, cache and HA stats) against
// constants.
func TestCoreFingerprints(t *testing.T) {
	seen := map[string]bool{}
	check := func(name string, got uint64) {
		t.Helper()
		seen[name] = true
		want, ok := coreFingerprints[name]
		if !ok {
			t.Errorf("unrecorded row:\n\t%q: %#x,", name, got)
		} else if got != want {
			t.Errorf("%s: fingerprint %#x, want %#x", name, got, want)
		}
	}
	flaky := func(seed int64) *fault.Injector {
		plan, err := fault.ParseProfile("shard:flaky", seed)
		if err != nil {
			t.Fatal(err)
		}
		return fault.New(plan)
	}
	ioModes := []struct {
		name    string
		batched bool
	}{{"per-page", false}, {"batched", true}}

	t.Run("engine", func(t *testing.T) {
		store, tree := cloudWorld(t, 4000, 31)
		defer store.Relayout(pagestore.InsertionLayout())
		rng := rand.New(rand.NewSource(41))
		seqs := []workload.Sequence{randomWalk(rng, 12, 20), randomWalk(rng, 15, 20)}
		run := func(cfg Config) uint64 {
			e := New(store, tree, cfg)
			p := prefetch.NewStraightLine(20 * 20 * 20)
			var res []SequenceResult
			for _, seq := range seqs {
				res = append(res, e.RunSequence(seq, p))
			}
			return fingerprint(withoutFanOut(res), e.Disk().Stats(), e.Cache().Stats())
		}
		for _, layout := range pagestore.LayoutNames() {
			l, err := pagestore.ParseLayout(layout)
			if err != nil {
				t.Fatal(err)
			}
			if err := store.Relayout(l); err != nil {
				t.Fatal(err)
			}
			for _, io := range ioModes {
				cfg := DefaultConfig()
				cfg.BatchedIO = io.batched
				check(fmt.Sprintf("engine/%s/%s", layout, io.name), run(cfg))
				if layout == "hilbert" {
					// An armed engine disk rolls faults on its own clock (its
					// accumulated I/O time), not on a serving clock.
					cfg.Faults = heavyInjector(t, 7)
					check(fmt.Sprintf("engine/%s/%s/heavy", layout, io.name), run(cfg))
				}
			}
		}
	})

	t.Run("sharded", func(t *testing.T) {
		store, tree := cloudWorld(t, 4000, 31)
		if err := store.Relayout(pagestore.HilbertLayout()); err != nil {
			t.Fatal(err)
		}
		defer store.Relayout(pagestore.InsertionLayout())
		rng := rand.New(rand.NewSource(43))
		seqs := []workload.Sequence{randomWalk(rng, 14, 24), randomWalk(rng, 12, 24)}
		for _, shards := range []int{1, 4, 8} {
			for _, replicas := range []int{1, 2} {
				for _, hedge := range []float64{0, 1.5} {
					// Seed 1 hedges a window at S=4, seed 3 at S=8; both fail over.
					for _, faultSeed := range []int64{0, 1, 3} {
						cfg := DefaultConfig()
						cfg.Replicas, cfg.Hedge = replicas, hedge
						faults := "none"
						if faultSeed > 0 {
							cfg.Faults = flaky(faultSeed)
							faults = fmt.Sprintf("flaky%d", faultSeed)
						}
						e := NewShardedEngine(store, tree, cfg, shards)
						p := prefetch.NewStraightLine(24 * 24 * 24)
						var res []SequenceResult
						var lost int64
						for _, seq := range seqs {
							// The virtual serving clock runs on across sequences.
							res = append(res, e.RunSequence(seq, p))
							lost += res[len(res)-1].LostPages
						}
						name := fmt.Sprintf("sharded/S=%d/R=%d/hedge=%v/%s", shards, replicas, hedge, faults)
						// Seed 3's outages darken whole chains where nothing
						// is replicated (R=1, or S=1, where R clamps to 1):
						// those rows pin the lost-page path, served subsets
						// and their result hashes included, and no other row
						// may lose a page.
						if wantLoss := faultSeed == 3 && min(shards, replicas) == 1; (lost > 0) != wantLoss {
							t.Errorf("%s: %d pages lost, want loss %v", name, lost, wantLoss)
						}
						check(name, fingerprint(res, e.Stats(), e.ShardStats(), e.HAStats()))
						e.Close()
					}
				}
			}
		}
	})

	t.Run("serve", func(t *testing.T) {
		store, tree := lineWorld(t, 4000)
		cost := DefaultConfig().Cost
		// flat commits a one-range configuration; sharded one with Shards set.
		flat := func(plans *SessionPlans, cfg ServeConfig) uint64 {
			res := plans.Serve(cfg)
			for i := range res.Sessions {
				res.Sessions[i].Sequences = withoutFanOut(res.Sessions[i].Sequences)
			}
			return fingerprint(res)
		}
		sharded := func(plans *SessionPlans, cfg ServeConfig) uint64 { return fingerprint(plans.Serve(cfg)) }

		plans := PlanSessions(store, tree, serveWorkloads(6, 7), cost, 2)
		for _, policy := range Policies() {
			for _, private := range []bool{false, true} {
				for _, io := range ioModes {
					cfg := ServeConfig{
						Engine:           DefaultConfig(),
						Policy:           policy,
						PrivateCaches:    private,
						InterferenceSeek: time.Millisecond,
						CacheShards:      8,
					}
					cfg.Engine.BatchedIO = io.batched
					mode := "shared"
					if private {
						mode = "private"
					}
					check(fmt.Sprintf("serve/%v/%s/%s", policy, mode, io.name), flat(plans, cfg))
				}
			}
		}

		// The robustness stack of TestServeShardedSingleShardBitExact: page
		// faults, stalled cache shards, starved windows, breaker, degrading
		// admission, SLO, Poisson arrivals.
		robust := ServeConfig{
			Engine:           DefaultConfig(),
			Policy:           FairShare,
			InterferenceSeek: time.Millisecond,
			CacheShards:      8,
			Faults:           heavyInjector(t, 7),
			Breaker:          DefaultBreakerConfig(),
			Admission:        AdmissionConfig{Enabled: true, MaxConcurrent: 4, Degrade: true},
			SLO:              40 * time.Millisecond,
			Arrivals:         ArrivalConfig{Enabled: true, Rate: 50, Seed: 11},
		}
		for _, io := range ioModes {
			cfg := robust
			cfg.Engine.BatchedIO = io.batched
			check("serve/robust/"+io.name, flat(plans, cfg))
			cfg.PrivateCaches = true
			check("serve/robust/private/"+io.name, flat(plans, cfg))
		}
		robust.Shards = 1
		check("serve/robust/S=1", sharded(plans, robust))

		// Workload classes with patience under Poisson arrivals, loaded enough
		// that admission rejects sessions, impatient ones abandon and the SLO
		// is missed: priorities in the arbiter, lost-query accounting.
		classed := PlanSessions(store, tree, classedWorkloads(16, 5), cost, 2)
		for _, io := range ioModes {
			cfg := ServeConfig{
				Engine:           DefaultConfig(),
				Policy:           DemandWeighted,
				InterferenceSeek: 500 * time.Microsecond,
				CacheShards:      8,
				Admission:        AdmissionConfig{Enabled: true, MaxConcurrent: 6},
				SLO:              5 * time.Millisecond,
				Arrivals:         ArrivalConfig{Enabled: true, Rate: 200, Seed: 3},
				Classes:          testClasses(2 * time.Millisecond),
			}
			cfg.Engine.BatchedIO = io.batched
			check("serve/classes/"+io.name, flat(classed, cfg))
			if io.batched {
				cfg.Shards = 4
				check("serve/classes/S=4", sharded(classed, cfg))
			}
		}

		// Event order under ties, all decided by the commit loop's (virtual
		// time, session ID) order: bursts of simultaneous arrivals that meet
		// the admission gate mid-run, and a 64-session closed loop where
		// everyone ties at t = 0.
		ordered := PlanSessions(store, tree, serveWorkloads(16, 9), cost, 2)
		for _, io := range ioModes {
			cfg := ServeConfig{
				Engine:           DefaultConfig(),
				Policy:           FairShare,
				InterferenceSeek: time.Millisecond,
				CacheShards:      8,
				Admission:        AdmissionConfig{Enabled: true, MaxConcurrent: 4},
				Arrivals:         ArrivalConfig{Enabled: true, Process: Bursty, Rate: 100, Seed: 5},
			}
			cfg.Engine.BatchedIO = io.batched
			// Bursts land at 65, 94, 250 and 286 ms; the second and fourth
			// arrive while the one before is still reading and are rejected.
			check("serve/bursty/"+io.name, flat(ordered, cfg))
		}
		closed := PlanSessions(store, tree, serveWorkloads(64, 3), cost, 2)
		for _, io := range ioModes {
			cfg := ServeConfig{
				Engine:           DefaultConfig(),
				Policy:           FairShare,
				InterferenceSeek: time.Millisecond,
				CacheShards:      8,
			}
			cfg.Engine.BatchedIO = io.batched
			check("serve/closed64/"+io.name, flat(closed, cfg))
		}

		// The replicated fleet under shard faults (seed 6: outages lose pages at
		// R=1 and fail over at R=2, brownouts at both), on walks that start on
		// shard-range boundaries so demand sets straddle two shards.
		straddling := PlanSessions(store, tree, shardServeWorkloads(8), cost, 2)
		for _, shards := range []int{1, 4} {
			for _, replicas := range []int{1, 2} {
				cfg := ServeConfig{
					Engine:           DefaultConfig(),
					Policy:           FairShare,
					InterferenceSeek: time.Millisecond,
					Shards:           shards,
					Replicas:         replicas,
					Breaker:          DefaultBreakerConfig(),
					Faults:           flaky(6),
				}
				check(fmt.Sprintf("serve/flaky/S=%d/R=%d", shards, replicas), sharded(straddling, cfg))
			}
		}
		// Shard faults have no fleet to act on at Shards 0: only the plan's
		// page-level read errors apply.
		check("serve/flaky/S=0", flat(straddling, ServeConfig{
			Engine:           DefaultConfig(),
			Policy:           FairShare,
			InterferenceSeek: time.Millisecond,
			Breaker:          DefaultBreakerConfig(),
			Faults:           flaky(6),
		}))
	})

	// Under the hilbert layout the index returns a demand set out of physical
	// order, and a cache of a few pages per shard evicts on every turn: these
	// rows see the order the lookups run in (LRU recency) and the order the
	// misses are read in, on both drivers and on the flat and sharded fleets.
	t.Run("evicting", func(t *testing.T) {
		store, tree := cloudWorld(t, 4000, 31)
		if err := store.Relayout(pagestore.HilbertLayout()); err != nil {
			t.Fatal(err)
		}
		defer store.Relayout(pagestore.InsertionLayout())
		cfg := DefaultConfig()
		cfg.CacheFraction = 0.05
		evicts := func(name string, queries int64, st cache.Stats) {
			t.Helper()
			if st.Evictions < queries {
				t.Fatalf("%s: %d evictions over %d queries; the cache no longer evicts every turn", name, st.Evictions, queries)
			}
		}

		rng := rand.New(rand.NewSource(47))
		seqs := []workload.Sequence{randomWalk(rng, 14, 24), randomWalk(rng, 12, 24)}
		ec := cfg
		ec.Replicas = 2
		e := NewShardedEngine(store, tree, ec, 8)
		var res []SequenceResult
		queries := int64(0)
		for _, seq := range seqs {
			res = append(res, e.RunSequence(seq, prefetch.NewStraightLine(24*24*24)))
			queries += int64(len(seq.Queries))
		}
		var st cache.Stats
		for _, sh := range e.fleet.shards {
			st.Evictions += sh.cache.(*cache.Cache).Stats().Evictions
		}
		evicts("evicting/sharded/S=8/R=2", queries, st)
		check("evicting/sharded/S=8/R=2", fingerprint(res, e.Stats(), e.ShardStats(), e.HAStats()))

		plans := PlanSessions(store, tree, walkWorkloads(rng, 12, 10), cfg.Cost, 2)
		sharded := ServeConfig{Engine: cfg, Policy: FairShare, InterferenceSeek: time.Millisecond, Shards: 8, Replicas: 2}
		sr := plans.Serve(sharded)
		evicts("evicting/serve/S=8/R=2", sr.Queries, sr.Cache)
		check("evicting/serve/S=8/R=2", fingerprint(sr))

		flat := ServeConfig{Engine: cfg, Policy: FairShare, InterferenceSeek: time.Millisecond}
		flat.Engine.BatchedIO = true
		fr := plans.Serve(flat)
		evicts("evicting/serve/S=0/batched", fr.Queries, fr.Cache)
		for i := range fr.Sessions {
			fr.Sessions[i].Sequences = withoutFanOut(fr.Sessions[i].Sequences)
		}
		check("evicting/serve/S=0/batched", fingerprint(fr))
	})

	for name := range coreFingerprints {
		if !seen[name] {
			t.Errorf("row %q is recorded but no configuration produced it", name)
		}
	}
}
