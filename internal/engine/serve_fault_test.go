package engine

import (
	"reflect"
	"testing"
	"time"

	"scout/internal/fault"
)

// heavyInjector builds the heaviest canned fault plan, keyed by seed.
func heavyInjector(t *testing.T, seed int64) *fault.Injector {
	t.Helper()
	plan, err := fault.ParseProfile("heavy", seed)
	if err != nil {
		t.Fatal(err)
	}
	return fault.New(plan)
}

// TestServeFaultsOffByteIdentical pins the seed-compatibility contract: a
// nil injector, a disabled (zero-plan) injector, and the breaker/admission
// zero values must all produce output byte-identical to a config that never
// mentions faults.
func TestServeFaultsOffByteIdentical(t *testing.T) {
	store, tree := lineWorld(t, 4000)
	base := ServeConfig{
		Engine:           DefaultConfig(),
		Policy:           FairShare,
		InterferenceSeek: time.Millisecond,
		CacheShards:      8,
	}
	want := PlanSessions(store, tree, serveWorkloads(6, 7), base.Engine.Cost, 0).Serve(base)

	off := base
	off.Faults = fault.New(fault.Plan{}) // zero plan: injects nothing
	off.SLO = 0
	got := PlanSessions(store, tree, serveWorkloads(6, 7), off.Engine.Cost, 0).Serve(off)
	if !reflect.DeepEqual(want, got) {
		t.Error("disabled injector changed serve output")
	}
	if got.Disk.FaultRetries != 0 || got.Disk.TimedOutReads != 0 {
		t.Errorf("disabled injector charged faults: %+v", got.Disk)
	}
}

// TestServeFaultsChargeAndDeterminism: an armed serve must charge fault
// recoveries to the ledger and slow responses down, identically for any
// plan-phase worker count, on both the per-page and the batched I/O path.
func TestServeFaultsChargeAndDeterminism(t *testing.T) {
	store, tree := lineWorld(t, 4000)
	for _, batched := range []bool{false, true} {
		cfg := ServeConfig{
			Engine:           DefaultConfig(),
			Policy:           FairShare,
			InterferenceSeek: time.Millisecond,
			CacheShards:      8,
			Faults:           heavyInjector(t, 7),
		}
		cfg.Engine.BatchedIO = batched

		clean := cfg
		clean.Faults = nil
		quiet := PlanSessions(store, tree, serveWorkloads(6, 7), clean.Engine.Cost, 0).Serve(clean)

		a := PlanSessions(store, tree, serveWorkloads(6, 7), cfg.Engine.Cost, 1).Serve(cfg)
		b := PlanSessions(store, tree, serveWorkloads(6, 7), cfg.Engine.Cost, 8).Serve(cfg)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("batched=%v: faulty serve differs between 1 and 8 workers", batched)
		}
		if a.Disk.FaultRetries == 0 {
			t.Errorf("batched=%v: heavy faults charged nothing: %+v", batched, a.Disk)
		}
		if res := residual(a); res <= residual(quiet) {
			t.Errorf("batched=%v: faults did not slow responses: %v vs %v", batched, res, residual(quiet))
		}
		// Stalled cache stripes alone charge their penalty into responses.
		stalled := clean
		stalled.Faults = fault.New(fault.Plan{Seed: 7, StallPeriod: 30 * time.Millisecond, StallRate: 0.3, StallPenalty: 2 * time.Millisecond})
		st := PlanSessions(store, tree, serveWorkloads(6, 7), clean.Engine.Cost, 0).Serve(stalled)
		if res := residual(st); res <= residual(quiet) {
			t.Errorf("batched=%v: shard stalls did not slow responses: %v vs %v", batched, res, residual(quiet))
		}
	}
}

// residual sums a serve's demand residuals over its sessions.
func residual(r ServeResult) time.Duration {
	var sum time.Duration
	for _, s := range r.Sessions {
		sum += s.Aggregate().Residual
	}
	return sum
}

// TestServeBreakerShedsPrefetch: under heavy faults the breaker must trip,
// shed prefetch windows (returning budget to the pool), and never block
// demand reads — every planned query still executes.
func TestServeBreakerShedsPrefetch(t *testing.T) {
	store, tree := lineWorld(t, 4000)
	cfg := ServeConfig{
		Engine:           DefaultConfig(),
		Policy:           FairShare,
		InterferenceSeek: time.Millisecond,
		Faults:           heavyInjector(t, 7),
	}
	open := cfg
	open.Breaker = DefaultBreakerConfig()
	free := PlanSessions(store, tree, serveWorkloads(8, 7), cfg.Engine.Cost, 0).Serve(cfg)
	broken := PlanSessions(store, tree, serveWorkloads(8, 7), open.Engine.Cost, 0).Serve(open)

	if broken.BreakerTrips == 0 || broken.ShedPrefetches == 0 {
		t.Fatalf("breaker never engaged under heavy faults: trips=%d shed=%d",
			broken.BreakerTrips, broken.ShedPrefetches)
	}
	if broken.Queries != free.Queries {
		t.Errorf("breaker dropped demand queries: %d vs %d", broken.Queries, free.Queries)
	}
	// With admission off, shed windows can only come from an open breaker:
	// a session that shed must have tripped. (The converse fails benignly —
	// a breaker can trip on its last observation with no window left to
	// shed. And the shed share returns to the arbiter pool, inflating other
	// sessions' grants — TestSheddingReturnsBudgetToPool pins that — so
	// TOTAL prefetch I/O is not required to drop.)
	for i, s := range broken.Sessions {
		if s.ShedPrefetches > 0 && s.BreakerTrips == 0 {
			t.Errorf("session %d shed %d windows without tripping", i, s.ShedPrefetches)
		}
	}
	var trips int64
	for _, s := range broken.Sessions {
		trips += s.BreakerTrips
	}
	if trips != broken.BreakerTrips {
		t.Errorf("per-session trips (%d) do not sum to total (%d)", trips, broken.BreakerTrips)
	}
}

// TestServeAdmissionRejectsAndDegrades: over the concurrency ceiling, new
// sessions are either rejected (no queries at all) or, with Degrade,
// admitted with prefetch permanently shed.
func TestServeAdmissionRejectsAndDegrades(t *testing.T) {
	store, tree := lineWorld(t, 4000)
	cfg := ServeConfig{
		Engine:    DefaultConfig(),
		Policy:    FairShare,
		Admission: AdmissionConfig{Enabled: true, MaxConcurrent: 2},
	}
	res := PlanSessions(store, tree, serveWorkloads(8, 7), cfg.Engine.Cost, 0).Serve(cfg)
	if res.RejectedSessions == 0 || res.RejectedSessions >= 8 {
		t.Fatalf("rejected %d of 8 sessions", res.RejectedSessions)
	}
	for i, s := range res.Sessions {
		if s.Rejected {
			if len(s.Sequences) != 0 || len(s.Responses) != 0 {
				t.Errorf("rejected session %d still served queries", i)
			}
		} else if len(s.Responses) == 0 {
			t.Errorf("admitted session %d served nothing", i)
		}
	}

	cfg.Admission.Degrade = true
	deg := PlanSessions(store, tree, serveWorkloads(8, 7), cfg.Engine.Cost, 0).Serve(cfg)
	if deg.RejectedSessions != 0 {
		t.Errorf("degrade mode rejected %d sessions", deg.RejectedSessions)
	}
	if deg.DegradedSessions == 0 {
		t.Fatal("degrade mode degraded nothing")
	}
	if deg.Queries != 8*8 {
		t.Errorf("degrade mode dropped queries: %d, want 64", deg.Queries)
	}
	for i, s := range deg.Sessions {
		if !s.Degraded {
			continue
		}
		for _, seq := range s.Sequences {
			for _, tr := range seq.Queries {
				if tr.Prefetched != 0 || tr.PrefetchIO != 0 {
					t.Errorf("degraded session %d prefetched %d pages in %v", i, tr.Prefetched, tr.PrefetchIO)
				}
			}
		}
		if s.ShedPrefetches == 0 {
			t.Errorf("degraded session %d shed no prefetch windows", i)
		}
	}
}

// TestServeSLOAccounting: a sub-floor SLO flags exactly the counted queries
// with a nonzero residual (cache-hit queries respond in zero simulated time
// and can never violate), an enormous one flags none, and the rate/goodput
// derive from the counts.
func TestServeSLOAccounting(t *testing.T) {
	store, tree := lineWorld(t, 4000)
	cfg := ServeConfig{Engine: DefaultConfig(), Policy: FairShare, SLO: time.Nanosecond}
	tight := PlanSessions(store, tree, serveWorkloads(4, 7), cfg.Engine.Cost, 0).Serve(cfg)
	var slow int64
	for _, r := range tight.Responses() {
		if r > cfg.SLO {
			slow++
		}
	}
	if slow == 0 {
		t.Fatal("no counted query exceeded a nanosecond SLO")
	}
	if tight.SLOViolations != slow {
		t.Errorf("nanosecond SLO: %d violations, want %d (responses over SLO)",
			tight.SLOViolations, slow)
	}
	if want := float64(slow) / float64(tight.CountedQueries()); tight.SLORate() != want {
		t.Errorf("SLO rate = %v, want %v", tight.SLORate(), want)
	}
	wantGoodput := float64(tight.CountedQueries()-slow) / tight.Makespan.Seconds()
	if tight.Goodput() != wantGoodput {
		t.Errorf("goodput = %v, want %v", tight.Goodput(), wantGoodput)
	}
	cfg.SLO = time.Hour
	loose := PlanSessions(store, tree, serveWorkloads(4, 7), cfg.Engine.Cost, 0).Serve(cfg)
	if loose.SLOViolations != 0 || loose.SLORate() != 0 {
		t.Errorf("hour SLO: %d violations (rate %v)", loose.SLOViolations, loose.SLORate())
	}
	if loose.Goodput() <= 0 {
		t.Error("hour SLO goodput is zero")
	}
}

// TestServeMitigationImprovesTail pins the PR's headline claim in-engine:
// at the same injected fault rate, breaker + admission yields strictly
// lower p99 latency and a strictly lower SLO-violation rate than no
// mitigation.
func TestServeMitigationImprovesTail(t *testing.T) {
	store, tree := lineWorld(t, 4000)
	base := ServeConfig{
		Engine:           DefaultConfig(),
		Policy:           FairShare,
		InterferenceSeek: 500 * time.Microsecond,
		CacheShards:      8,
	}
	// The objective: the fault-free unmitigated run's p95, like rob1.
	slo := Percentile(PlanSessions(store, tree, serveWorkloads(16, 7), base.Engine.Cost, 0).Serve(base).Responses(), 95)

	faulty := base
	faulty.Faults = heavyInjector(t, 7)
	faulty.SLO = slo
	raw := PlanSessions(store, tree, serveWorkloads(16, 7), faulty.Engine.Cost, 0).Serve(faulty)

	mitigated := faulty
	mitigated.Breaker = DefaultBreakerConfig()
	mitigated.Admission = DefaultAdmissionConfig()
	better := PlanSessions(store, tree, serveWorkloads(16, 7), mitigated.Engine.Cost, 0).Serve(mitigated)

	rawP99 := Percentile(raw.Responses(), 99)
	mitP99 := Percentile(better.Responses(), 99)
	if mitP99 >= rawP99 {
		t.Errorf("mitigation did not lower p99: %v vs %v", mitP99, rawP99)
	}
	if better.SLORate() >= raw.SLORate() {
		t.Errorf("mitigation did not lower the SLO-violation rate: %v vs %v",
			better.SLORate(), raw.SLORate())
	}
}

// TestServeFaultRaceHammer runs the full robustness stack — heavy faults,
// breaker, admission, shared sharded cache — across 16 sessions with a
// parallel plan phase, twice, and requires byte-identical results. Under
// `go test -race` this also proves the fault path adds no shared-state
// races.
func TestServeFaultRaceHammer(t *testing.T) {
	store, tree := lineWorld(t, 4000)
	cfg := ServeConfig{
		Engine:           DefaultConfig(),
		Policy:           DemandWeighted,
		InterferenceSeek: 500 * time.Microsecond,
		CacheShards:      8,
		Faults:           heavyInjector(t, 11),
		Breaker:          DefaultBreakerConfig(),
		Admission:        AdmissionConfig{Enabled: true, MaxConcurrent: 8, Degrade: true},
		SLO:              25 * time.Millisecond,
	}
	a := PlanSessions(store, tree, serveWorkloads(16, 11), cfg.Engine.Cost, 8).Serve(cfg)
	b := PlanSessions(store, tree, serveWorkloads(16, 11), cfg.Engine.Cost, 8).Serve(cfg)
	if !reflect.DeepEqual(a, b) {
		t.Error("robustness stack is not deterministic across runs")
	}
	if a.Disk.FaultRetries == 0 {
		t.Error("heavy plan injected nothing")
	}
}
