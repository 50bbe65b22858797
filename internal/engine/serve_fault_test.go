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
	want := Serve(store, tree, serveWorkloads(6, 7), base)

	off := base
	off.Faults = fault.New(fault.Plan{}) // zero plan: injects nothing
	off.SLO = 0
	got := Serve(store, tree, serveWorkloads(6, 7), off)
	if !reflect.DeepEqual(want, got) {
		t.Error("disabled injector changed serve output")
	}
	if got.Disk.FaultRetries != 0 || got.Disk.FaultDelay != 0 || got.ShardStalls != 0 {
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
		quiet := Serve(store, tree, serveWorkloads(6, 7), clean)

		a := PlanSessions(store, tree, serveWorkloads(6, 7), cfg.Engine.Cost, 1).Serve(cfg)
		b := PlanSessions(store, tree, serveWorkloads(6, 7), cfg.Engine.Cost, 8).Serve(cfg)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("batched=%v: faulty serve differs between 1 and 8 workers", batched)
		}
		if a.Disk.FaultRetries == 0 || a.Disk.FaultDelay <= 0 {
			t.Errorf("batched=%v: heavy faults charged nothing: %+v", batched, a.Disk)
		}
		if a.ShardStalls == 0 || a.StallDelay <= 0 {
			t.Errorf("batched=%v: no shard stalls under the heavy plan", batched)
		}
		var quietRes, faultyRes time.Duration
		for _, s := range quiet.Sessions {
			quietRes += s.Aggregate().Residual
		}
		for _, s := range a.Sessions {
			faultyRes += s.Aggregate().Residual
		}
		if faultyRes <= quietRes {
			t.Errorf("batched=%v: faults did not slow responses: %v vs %v", batched, faultyRes, quietRes)
		}
		// The per-session disk ledger deltas must sum to the global one.
		var retries, timeouts int64
		for _, s := range a.Sessions {
			retries += s.FaultRetries
			timeouts += s.TimedOutReads
		}
		if retries != a.Disk.FaultRetries || timeouts != a.Disk.TimedOutReads {
			t.Errorf("batched=%v: per-session fault counters (%d/%d) do not sum to disk ledger (%d/%d)",
				batched, retries, timeouts, a.Disk.FaultRetries, a.Disk.TimedOutReads)
		}
	}
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
	free := Serve(store, tree, serveWorkloads(8, 7), cfg)
	broken := Serve(store, tree, serveWorkloads(8, 7), open)

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
	for _, s := range broken.Sessions {
		if s.ShedPrefetches > 0 && s.BreakerTrips == 0 {
			t.Errorf("session %d shed %d windows without tripping", s.Session, s.ShedPrefetches)
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
	res := Serve(store, tree, serveWorkloads(8, 7), cfg)
	if res.RejectedSessions == 0 || res.RejectedSessions >= 8 {
		t.Fatalf("rejected %d of 8 sessions", res.RejectedSessions)
	}
	for _, s := range res.Sessions {
		if s.Rejected {
			if len(s.Sequences) != 0 || len(s.Responses) != 0 {
				t.Errorf("rejected session %d still served queries", s.Session)
			}
		} else if len(s.Responses) == 0 {
			t.Errorf("admitted session %d served nothing", s.Session)
		}
	}

	cfg.Admission.Degrade = true
	deg := Serve(store, tree, serveWorkloads(8, 7), cfg)
	if deg.RejectedSessions != 0 {
		t.Errorf("degrade mode rejected %d sessions", deg.RejectedSessions)
	}
	if deg.DegradedSessions == 0 {
		t.Fatal("degrade mode degraded nothing")
	}
	if deg.Queries != 8*8 {
		t.Errorf("degrade mode dropped queries: %d, want 64", deg.Queries)
	}
	for _, s := range deg.Sessions {
		if !s.Degraded {
			continue
		}
		if s.Ledger.Granted != 0 {
			t.Errorf("degraded session %d was granted %v prefetch budget", s.Session, s.Ledger.Granted)
		}
		if s.ShedPrefetches == 0 {
			t.Errorf("degraded session %d shed no prefetch windows", s.Session)
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
	tight := Serve(store, tree, serveWorkloads(4, 7), cfg)
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
	loose := Serve(store, tree, serveWorkloads(4, 7), cfg)
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
	slo := Percentile(Serve(store, tree, serveWorkloads(16, 7), base).Responses(), 95)

	faulty := base
	faulty.Faults = heavyInjector(t, 7)
	faulty.SLO = slo
	raw := Serve(store, tree, serveWorkloads(16, 7), faulty)

	mitigated := faulty
	mitigated.Breaker = DefaultBreakerConfig()
	mitigated.Admission = DefaultAdmissionConfig()
	better := Serve(store, tree, serveWorkloads(16, 7), mitigated)

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
