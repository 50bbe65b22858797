package experiments

import (
	"fmt"
	"time"

	"scout/internal/core"
	"scout/internal/engine"
	"scout/internal/workload"
)

// The load1 experiment is the capacity-planning story the closed-loop mu*
// scaling curves cannot tell: an OPEN-LOOP load sweep. Sessions arrive by a
// seeded stochastic process at an offered rate that sweeps past the
// system's saturation knee, bind to mixed workload classes (model-building
// walks, scan-heavy users, teleporting users) with per-class
// prefetch-budget priorities and abandonment patience, and are gated by
// admission control at their true arrival time. Reported per load level:
// response-time percentiles down to p999, goodput, abandonment rate and
// the SLO-violation rate — with rejected and abandoned trajectories
// charged to the denominator, never silently dropped.

// load1Multipliers is the offered-load sweep in multiples of the calibrated
// closed-loop capacity: below, at, and well past the saturation knee.
var load1Multipliers = []float64{0.5, 1, 2, 4, 8}

// loadSessions is the arriving population: three times the default
// admission ceiling, so the sweep's high end actually saturates the gate.
const loadSessions = 24

// loadClassParams is the per-class navigation behavior: the class index of
// every session is its slot in this table (round-robin over arrivals).
// Model builders run small high-think-time walks, scanners drag large
// volumes at low think time, teleporters jump between regions.
func loadClassParams() []workload.Params {
	return []workload.Params{
		{Queries: 25, Volume: 20_000, Shape: workload.Cube, WindowRatio: 2.0},
		{Queries: 25, Volume: 160_000, Shape: workload.Cube, WindowRatio: 0.8},
		{Queries: 25, Volume: 80_000, Shape: workload.Cube, Gap: 25, WindowRatio: 1.0},
	}
}

// loadClasses is the class table handed to the serving layer. weighted
// selects the mitigated arbiter priorities (model builders get 3× the
// prefetch-budget share, scanners stay at 1×, teleporters at 2× so their
// cold jumps warm quickly); unweighted keeps every class neutral, so the
// two configurations differ ONLY in admission and priorities — patience
// and SLOs are identical and the comparison stays apples to apples.
func loadClasses(weighted bool, patience time.Duration) []engine.ClassSpec {
	specs := []engine.ClassSpec{
		{Name: "model", Patience: 2 * patience},
		{Name: "scan", Patience: patience},
		{Name: "teleport", Patience: patience / 2},
	}
	if weighted {
		specs[0].Weight = 3
		specs[2].Weight = 2
	}
	return specs
}

// loadWorkloads builds the arriving population: n sessions bound
// round-robin to the class mix, each with its own SCOUT clone and a
// class-specific guided walk.
func loadWorkloads(s *Setup, n int, seed int64) []engine.SessionWorkload {
	params := loadClassParams()
	out := make([]engine.SessionWorkload, n)
	for class := range params {
		// One generator call per class so every class's walks are a
		// deterministic function of (setup, class, seed), not of n.
		count := (n - class + len(params) - 1) / len(params)
		seqs := s.genSequences(params[class], count, seed+int64(class))
		for i := 0; i < count; i++ {
			out[class+i*len(params)] = engine.SessionWorkload{
				Sequences:  []workload.Sequence{seqs[i]},
				Prefetcher: s.scout(core.DefaultConfig()),
				Class:      class,
			}
		}
	}
	return out
}

// loadPoint is one measured cell of the sweep — kept structured so the
// acceptance property (mitigation strictly improves the saturated tail) is
// testable without parsing the rendered table.
type loadPoint struct {
	Mult      float64
	Mitigated bool
	Rate      float64 // offered sessions per simulated second
	P50, P95  time.Duration
	P99, P999 time.Duration
	Goodput   float64
	Abandon   float64
	SLORate   float64
	Rejected  int
	Degraded  int
	Lost      int64
}

// load1Sweep runs the open-loop sweep and returns its structured points in
// row order (each multiplier unmitigated first, then mitigated), plus the
// derived SLO, patience and calibrated capacity.
func load1Sweep(env *Env) (points []loadPoint, slo, patience time.Duration, capacity float64) {
	s := env.Neuro()
	opt := env.Options()
	w := loadWorkloads(s, loadSessions, opt.Seed)
	plans := engine.PlanSessions(s.Store, s.Tree, w, engine.DefaultConfig().Cost, opt.Workers)
	base := muConfig(engine.FairShare, false)

	// Calibrate capacity closed-loop: the drain rate with the whole
	// population in flight. Offered load is swept in multiples of it, so
	// the knee sits near 1× by construction at any dataset scale.
	closed := plans.Serve(base)
	capacity = float64(loadSessions) / closed.Makespan.Seconds()
	opt.progress("load1: calibrated capacity %.2f sessions/s", capacity)

	// The objective: the lowest-load unmitigated run's p95 — scale-free and
	// deterministic, like rob1. Patience is 2× the SLO (a user waits a
	// couple of objectives, not forever).
	probe := base
	probe.Arrivals = engine.ArrivalConfig{Enabled: true, Rate: load1Multipliers[0] * capacity, Seed: opt.Seed}
	probe.Classes = loadClasses(false, 0)
	slo = engine.Percentile(plans.Serve(probe).Responses(), 95)
	opt.progress("load1: derived SLO %s from %.1fx-load p95", slo, load1Multipliers[0])
	patience = 2 * slo

	for _, mult := range load1Multipliers {
		rate := mult * capacity
		for _, mitigated := range []bool{false, true} {
			cfg := base
			cfg.SLO = slo
			cfg.Arrivals = engine.ArrivalConfig{Enabled: true, Rate: rate, Seed: opt.Seed}
			cfg.Classes = loadClasses(mitigated, patience)
			if mitigated {
				// Degrade, don't reject: over-ceiling arrivals are admitted
				// with prefetch permanently shed. They still answer queries
				// (slower, demand reads only), so saturation costs tail
				// latency instead of forfeiting whole trajectories.
				adm := engine.DefaultAdmissionConfig()
				adm.Degrade = true
				cfg.Admission = adm
			}
			sr := plans.Serve(cfg)
			lat := summarize(sr.Responses())
			points = append(points, loadPoint{
				Mult:      mult,
				Mitigated: mitigated,
				Rate:      rate,
				P50:       lat.P50,
				P95:       lat.P95,
				P99:       lat.P99,
				P999:      lat.P999,
				Goodput:   sr.Goodput(),
				Abandon:   sr.AbandonRate(),
				SLORate:   sr.SLORate(),
				Rejected:  sr.RejectedSessions,
				Degraded:  sr.DegradedSessions,
				Lost:      sr.LostQueries,
			})
			opt.progress("load1: %.1fx mitigated=%v done", mult, mitigated)
		}
	}
	return points, slo, patience, capacity
}

// Load1 renders the open-loop load sweep: offered rate vs tail latency,
// goodput, abandonment and SLO violations, unmitigated vs mitigated
// (admission + class priorities) at every load level.
func Load1(env *Env) Result {
	points, slo, patience, capacity := load1Sweep(env)
	res := Result{
		ID:     "load1",
		Figure: "load",
		Title: fmt.Sprintf("Open-loop load sweep: tail latency and goodput vs offered rate (%d sessions, poisson arrivals, mixed classes, SLO=%s, patience=%s)",
			loadSessions, slo, patience),
		Header: []string{"Load", "Mitigation", "p50", "p95", "p99", "p999", "Goodput", "Abandon", "SLO viol", "Rej/Deg", "Lost"},
	}
	// The last row is the headline p999: the highest offered load with
	// mitigation on, where admission and priorities either hold the tail or
	// do not.
	for _, p := range points {
		mode := "none"
		if p.Mitigated {
			mode = "adm+prio"
		}
		res.AddRow(
			fmt.Sprintf("%.1fx (%.1f/s)", p.Mult, p.Rate),
			mode,
			ms(p.P50), ms(p.P95), ms(p.P99), ms(p.P999),
			fmt.Sprintf("%.1f q/s", p.Goodput),
			pct(p.Abandon),
			pct(p.SLORate),
			fmt.Sprintf("%d/%d", p.Rejected, p.Degraded),
			fmt.Sprintf("%d", p.Lost))
	}
	res.Notes = append(res.Notes,
		fmt.Sprintf("offered load in multiples of the calibrated closed-loop capacity (%.1f sessions/s): the saturation knee sits near 1x by construction", capacity),
		"open-loop semantics: sessions arrive by a seeded stochastic process, are admission-gated at their TRUE arrival time, and abandon when a response exceeds their class patience",
		"SLO rate charges rejected and abandoned trajectories' counted slots as violations — refusing to serve a query is not meeting its objective",
		"SLO defaults to the lowest-load unmitigated run's p95, patience to 2x the SLO; both scale-free",
		"mitigation = admission ceiling of 8 (over-ceiling arrivals admitted degraded: demand reads only, prefetch shed) + class prefetch-budget priorities (model 3x, teleport 2x); patience and SLOs identical across configurations")
	return res
}
