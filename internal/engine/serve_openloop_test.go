package engine

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"time"

	"scout/internal/prefetch"
	"scout/internal/workload"
)

// classedWorkloads is serveWorkloads with sessions bound round-robin to
// three workload classes.
func classedWorkloads(n int, seed int64) []SessionWorkload {
	out := serveWorkloads(n, seed)
	for i := range out {
		out[i].Class = i % 3
	}
	return out
}

// testClasses is a mixed-traffic class set: a prioritized model-building
// class, a neutral scan class, and an impatient teleporting class.
func testClasses(patience time.Duration) []ClassSpec {
	return []ClassSpec{
		{Name: "model", Weight: 3},
		{Name: "scan", Weight: 1},
		{Name: "teleport", Weight: 1, Patience: patience},
	}
}

// TestServeOpenLoopDeterministicAcrossWorkers pins the tentpole determinism
// contract: the full open-loop configuration — seeded arrivals, classes,
// patience, admission, SLO — is byte-identical for any plan-phase worker
// count, on both arrival processes.
func TestServeOpenLoopDeterministicAcrossWorkers(t *testing.T) {
	store, tree := lineWorld(t, 4000)
	for _, proc := range []ArrivalProcess{Poisson, Bursty} {
		cfg := ServeConfig{
			Engine:           DefaultConfig(),
			Policy:           FairShare,
			InterferenceSeek: 500 * time.Microsecond,
			CacheShards:      8,
			Admission:        AdmissionConfig{Enabled: true, MaxConcurrent: 6},
			SLO:              25 * time.Millisecond,
			Arrivals:         ArrivalConfig{Enabled: true, Process: proc, Rate: 50, Seed: 7},
			Classes:          testClasses(time.Millisecond),
		}
		var results []ServeResult
		for _, workers := range []int{1, 4, 16} {
			results = append(results, PlanSessions(store, tree, classedWorkloads(16, 7), cfg.Engine.Cost, workers).Serve(cfg))
		}
		for i := 1; i < len(results); i++ {
			if !reflect.DeepEqual(results[0], results[i]) {
				t.Errorf("%v: open-loop serve differs between workers 1 and %d", proc, []int{1, 4, 16}[i])
			}
		}
	}
}

// TestServeOpenLoopDisabledBitExact: with the generator disabled, a config
// that merely mentions neutral classes is byte-identical to the seed, and
// the open-loop ledgers stay zero even when admission rejects sessions.
func TestServeOpenLoopDisabledBitExact(t *testing.T) {
	store, tree := lineWorld(t, 4000)
	base := ServeConfig{
		Engine:    DefaultConfig(),
		Policy:    FairShare,
		Admission: AdmissionConfig{Enabled: true, MaxConcurrent: 2},
		SLO:       25 * time.Millisecond,
	}
	want := PlanSessions(store, tree, serveWorkloads(8, 7), base.Engine.Cost, 0).Serve(base)
	if want.RejectedSessions == 0 {
		t.Fatal("ceiling 2 rejected nothing — test needs rejections")
	}
	if want.LostQueries != 0 || want.AbandonedSessions != 0 {
		t.Fatalf("closed-loop run charged open-loop ledgers: lost=%d abandoned=%d",
			want.LostQueries, want.AbandonedSessions)
	}

	classed := base
	classed.Classes = []ClassSpec{{Name: "neutral"}}
	got := PlanSessions(store, tree, serveWorkloads(8, 7), classed.Engine.Cost, 0).Serve(classed)
	if !reflect.DeepEqual(want, got) {
		t.Error("neutral classes changed the closed-loop output")
	}
}

// TestServeOpenLoopAdmissionAtArrival is the admission-semantics bugfix
// test: the gate sees the in-flight set at the session's GENERATED arrival
// time. Simultaneous arrivals over a ceiling of 2 (Bursty puts each burst
// of 4 on one instant) reject sessions; the same population spaced far
// apart rejects none — and every rejected trajectory's counted slots land in
// LostQueries, keeping the SLO denominator honest.
func TestServeOpenLoopAdmissionAtArrival(t *testing.T) {
	store, tree := lineWorld(t, 4000)
	cfg := ServeConfig{
		Engine:    DefaultConfig(),
		Policy:    FairShare,
		Admission: AdmissionConfig{Enabled: true, MaxConcurrent: 2},
		SLO:       time.Nanosecond,
		Arrivals:  ArrivalConfig{Enabled: true, Process: Bursty, Rate: 1000, Seed: 3},
	}
	slam := PlanSessions(store, tree, serveWorkloads(8, 7), cfg.Engine.Cost, 0).Serve(cfg)
	if slam.RejectedSessions == 0 {
		t.Fatal("simultaneous arrivals over the ceiling rejected nothing")
	}
	if slam.LostQueries == 0 {
		t.Fatal("open-loop rejections charged no lost queries")
	}
	// Every trajectory has 7 counted slots (8 queries, first uncounted):
	// served responses plus lost slots must conserve them, per session.
	for i, s := range slam.Sessions {
		if got := int64(len(s.Responses)) + s.LostQueries; got != 7 {
			t.Errorf("session %d: responses %d + lost %d != 7",
				i, len(s.Responses), s.LostQueries)
		}
		if s.Rejected && s.LostQueries != 7 {
			t.Errorf("rejected session %d lost %d queries, want 7", i, s.LostQueries)
		}
	}
	// Lost queries enter the SLO denominator as violations.
	n := slam.CountedQueries() + slam.LostQueries
	if want := float64(slam.SLOViolations+slam.LostQueries) / float64(n); slam.SLORate() != want {
		t.Errorf("SLORate = %v, want %v", slam.SLORate(), want)
	}

	// Poisson arrivals a thousand virtual seconds apart on average: every
	// prior session has drained by the next arrival, so the same ceiling
	// rejects nothing.
	cfg.Arrivals = ArrivalConfig{Enabled: true, Process: Poisson, Rate: 0.001, Seed: 3}
	times := cfg.Arrivals.ArrivalTimes(8)
	calm := PlanSessions(store, tree, serveWorkloads(8, 7), cfg.Engine.Cost, 0).Serve(cfg)
	if calm.RejectedSessions != 0 || calm.LostQueries != 0 {
		t.Errorf("spaced arrivals still rejected %d sessions (lost %d)",
			calm.RejectedSessions, calm.LostQueries)
	}
	// No session completes before it arrives, nor the run before the last.
	for i, s := range calm.Sessions {
		if s.Completed <= times[i] {
			t.Errorf("session %d completed at %v, not past its arrival %v", i, s.Completed, times[i])
		}
	}
	if calm.Makespan <= times[7] {
		t.Errorf("makespan %v not past the last arrival %v", calm.Makespan, times[7])
	}
}

// TestServeOpenLoopAbandonment: a class with sub-seek patience abandons at
// its first cold query — the remaining trajectory is forfeited as lost
// queries, the partial sequence is flushed, and the abandon rate accounts
// for it.
func TestServeOpenLoopAbandonment(t *testing.T) {
	store, tree := lineWorld(t, 4000)
	workloads := serveWorkloads(6, 7)
	for i := range workloads {
		workloads[i].Class = 2
	}
	cfg := ServeConfig{
		Engine:   DefaultConfig(),
		Policy:   FairShare,
		SLO:      25 * time.Millisecond,
		Arrivals: ArrivalConfig{Enabled: true, Rate: 50, Seed: 7},
		Classes:  testClasses(time.Nanosecond),
	}
	res := PlanSessions(store, tree, workloads, cfg.Engine.Cost, 0).Serve(cfg)
	if res.AbandonedSessions != 6 {
		t.Fatalf("abandoned %d of 6 sessions with nanosecond patience", res.AbandonedSessions)
	}
	if res.AbandonRate() != 1 {
		t.Errorf("abandon rate = %v, want 1", res.AbandonRate())
	}
	for i, s := range res.Sessions {
		if !s.Abandoned {
			t.Errorf("session %d never abandoned", i)
			continue
		}
		if got := int64(len(s.Responses)) + s.LostQueries; got != 7 {
			t.Errorf("session %d: responses %d + lost %d != 7",
				i, len(s.Responses), s.LostQueries)
		}
		if len(s.Sequences) != 1 {
			t.Errorf("session %d: partial sequence not flushed (%d sequences)",
				i, len(s.Sequences))
		}
	}
	if res.LostQueries == 0 {
		t.Error("abandoned sessions lost no queries")
	}
	// With everything forfeited the SLO rate saturates at 1.
	if res.CountedQueries() == 0 && res.SLORate() != 1 {
		t.Errorf("all-lost SLO rate = %v, want 1", res.SLORate())
	}
}

// TestServeOpenLoopChurnHammer runs the full open-loop stack — Poisson
// churn, three classes with priorities and patience, heavy faults, breaker,
// admission, SLO — across 16 sessions, and requires byte-identical results
// across runs and across worker counts. Under `go test -race` this also
// proves the churn path adds no shared-state races.
func TestServeOpenLoopChurnHammer(t *testing.T) {
	store, tree := lineWorld(t, 4000)
	cfg := ServeConfig{
		Engine:           DefaultConfig(),
		Policy:           DemandWeighted,
		InterferenceSeek: 500 * time.Microsecond,
		CacheShards:      8,
		Faults:           heavyInjector(t, 11),
		Breaker:          DefaultBreakerConfig(),
		Admission:        AdmissionConfig{Enabled: true, MaxConcurrent: 6},
		SLO:              25 * time.Millisecond,
		Arrivals:         ArrivalConfig{Enabled: true, Rate: 50, Seed: 11},
		Classes:          testClasses(time.Millisecond),
	}
	a := PlanSessions(store, tree, classedWorkloads(16, 11), cfg.Engine.Cost, 8).Serve(cfg)
	b := PlanSessions(store, tree, classedWorkloads(16, 11), cfg.Engine.Cost, 8).Serve(cfg)
	if !reflect.DeepEqual(a, b) {
		t.Error("open-loop churn stack is not deterministic across runs")
	}
	c := PlanSessions(store, tree, classedWorkloads(16, 11), cfg.Engine.Cost, 1).Serve(cfg)
	if !reflect.DeepEqual(a, c) {
		t.Error("open-loop churn stack differs between 8 and 1 workers")
	}
	if a.Disk.FaultRetries == 0 {
		t.Error("heavy plan injected nothing")
	}
	if a.AbandonedSessions == 0 {
		t.Error("nanosecond-scale patience abandoned nothing under faults")
	}
	if a.LostQueries == 0 {
		t.Error("churn charged no lost queries")
	}
}

// refPercentile is the independent nearest-rank definition: the smallest
// sample whose rank covers at least p percent of the population.
func refPercentile(samples []time.Duration, p float64) time.Duration {
	if len(samples) == 0 {
		return 0
	}
	sorted := append([]time.Duration(nil), samples...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	for i := 1; i <= len(sorted); i++ {
		if float64(i) >= float64(len(sorted))*p/100 {
			return sorted[i-1]
		}
	}
	return sorted[len(sorted)-1]
}

// TestPercentileDoesNotMutate: the input order must survive.
func TestPercentileDoesNotMutate(t *testing.T) {
	samples := []time.Duration{5, 1, 4, 2, 3}
	Percentile(samples, 50)
	for i, want := range []time.Duration{5, 1, 4, 2, 3} {
		if samples[i] != want {
			t.Fatalf("Percentile reordered its input: %v", samples)
		}
	}
}

// TestPercentileMatchesReference is the p999 guard: Percentile agrees with
// the independent nearest-rank definition for the small sample counts the
// load experiments now feed it, across p50/p95/p99/p999.
func TestPercentileMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{0, 1, 2, 10, 999, 1000} {
		samples := make([]time.Duration, n)
		for i := range samples {
			samples[i] = time.Duration(rng.Intn(1_000_000))
		}
		for _, p := range []float64{50, 95, 99, 99.9} {
			got := Percentile(samples, p)
			want := refPercentile(samples, p)
			if got != want {
				t.Errorf("n=%d p=%v: Percentile = %v, reference %v", n, p, got, want)
			}
		}
		// Tiny samples must clamp to real elements, never panic or zero out.
		if n > 0 {
			if got := Percentile(samples, 99.9); got != refPercentile(samples, 99.9) {
				t.Errorf("n=%d: p999 = %v", n, got)
			}
		}
	}
	// p999 of 1..1000 is exactly the 999th element.
	ladder := make([]time.Duration, 1000)
	for i := range ladder {
		ladder[i] = time.Duration(i + 1)
	}
	if got := Percentile(ladder, 99.9); got != 999 {
		t.Errorf("p999 of 1..1000 = %v, want 999", got)
	}
	if got := Percentile(ladder[:2], 99.9); got != 2 {
		t.Errorf("p999 of {1,2} = %v, want 2", got)
	}
}

// TestServeClassPriorityShiftsBudget: a session's class weight reaches every
// shard's arbiter as its priority — which shifts contended windows toward it
// (TestArbiterPriorityWeightsShares) and so changes the serve — and
// all-neutral weights must leave the grant arithmetic bit-exact with a
// class-free serve.
func TestServeClassPriorityShiftsBudget(t *testing.T) {
	store, tree := lineWorld(t, 4000)
	// Symmetric population: identical walk shape and window ratio per
	// session (only the offset differs), classes alternating, so any
	// difference can only come from the class weights.
	symmetric := func() []SessionWorkload {
		out := make([]SessionWorkload, 6)
		for i := range out {
			out[i] = SessionWorkload{
				Sequences:  []workload.Sequence{offsetWalk(8, 10, 9, 1.5, float64(i*40))},
				Prefetcher: prefetch.NewStraightLine(1000),
				Class:      i % 2,
			}
		}
		return out
	}
	base := ServeConfig{
		Engine:      DefaultConfig(),
		Policy:      FairShare,
		CacheShards: 8,
	}
	want := PlanSessions(store, tree, symmetric(), base.Engine.Cost, 0).Serve(base)

	weighted := base
	weighted.Classes = []ClassSpec{{Name: "heavy", Weight: 3}, {Name: "light"}}
	plans := PlanSessions(store, tree, symmetric(), weighted.Engine.Cost, 0)
	c := plans.newCommit(weighted)
	for i := range c.sess {
		cs := weighted.Classes[i%2]
		if got := c.f.shards[0].arb.priorityOf(i); got != cs.weight() {
			t.Errorf("session %d of class %s: arbiter priority %v, want %v", i, cs.Name, got, cs.weight())
		}
	}
	if got := plans.Serve(weighted); reflect.DeepEqual(want, got) {
		t.Error("class weights 3:1 left the serve output unchanged")
	}

	neutral := base
	neutral.Classes = []ClassSpec{{Name: "a"}, {Name: "b"}}
	same := PlanSessions(store, tree, symmetric(), neutral.Engine.Cost, 0).Serve(neutral)
	if !reflect.DeepEqual(want, same) {
		t.Error("all-neutral class weights changed the serve output")
	}
}
