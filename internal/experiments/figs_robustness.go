package experiments

import (
	"fmt"

	"scout/internal/engine"
	"scout/internal/fault"
)

// The rob1 experiment measures graceful degradation: the multi-session
// serving path under deterministic injected faults (transient read errors,
// slow pages, stalled cache shards, starved arbiter windows — see
// internal/fault), with and without the mitigation stack (per-session
// circuit breaker shedding prefetch + admission control). The paper never
// faults its disk; SCOUT deployed as a serving system must keep its tail
// latency when the disk misbehaves, and this table is where that claim is
// pinned.

// robSessions is the serving population: twice the default admission
// ceiling, so the mitigated configuration actually exercises admission.
const robSessions = 16

// faultSeed keys the fault schedules: -faultseed when given, else the
// workload seed (fault decisions hash through independent domains, so
// sharing the seed does not correlate faults with the workload).
func (o Options) faultSeed() int64 {
	if o.FaultSeed != 0 {
		return o.FaultSeed
	}
	return o.Seed
}

// Rob1 sweeps the fault profiles over one 16-session serving run, committing
// the SAME session plans (muPlan — planning never sees faults) twice per
// profile: unmitigated, and with the breaker + admission stack. Reported
// per configuration: response-time percentiles (p50/p95/p99 of counted
// responses, stalls included), goodput (SLO-meeting queries per simulated
// second), the SLO violation rate, and the robustness ledger (retries,
// timeouts, breaker trips, shed prefetch windows, admission outcomes).
func Rob1(env *Env) Result {
	s := env.Neuro()
	opt := env.Options()
	policy := engine.FairShare
	_, plans := muPlan(env, s, robSessions)
	// The objective: the fault-free unmitigated run's own p95 — scale-free
	// (residual latencies grow with dataset scale, a fixed objective would
	// saturate at 0% or 100% violations) and deterministic (virtual clock),
	// so the golden stays byte-stable.
	slo := engine.Percentile(plans.Serve(muConfig(policy, false)).Responses(), 95)
	opt.progress("rob1: derived SLO %s from fault-free p95", slo)
	res := Result{
		ID:     "rob1",
		Figure: "robustness",
		Title: fmt.Sprintf("Tail latency and goodput under injected faults (%d sessions, policy=%s, SLO=%s)",
			robSessions, policy, slo),
		Header: []string{"Faults", "Mitigation", "p50", "p95", "p99", "Goodput", "SLO viol", "Retries/TO", "Trips/Shed", "Rej/Deg"},
	}
	for _, prof := range fault.Profiles() {
		plan, err := fault.ParseProfile(prof, opt.faultSeed())
		if err != nil {
			panic(fmt.Sprintf("experiments: %v", err))
		}
		var inj *fault.Injector
		if plan.Enabled() {
			inj = fault.New(plan)
		}
		for _, mode := range []struct {
			name      string
			mitigated bool
		}{{"none", false}, {"breaker+adm", true}} {
			cfg := muConfig(policy, false)
			cfg.Faults = inj
			cfg.SLO = slo
			if mode.mitigated {
				cfg.Breaker = engine.DefaultBreakerConfig()
				cfg.Admission = engine.DefaultAdmissionConfig()
			}
			sr := plans.Serve(cfg)
			lat := summarize(sr.Responses())
			res.AddRow(prof, mode.name,
				ms(lat.P50),
				ms(lat.P95),
				ms(lat.P99),
				fmt.Sprintf("%.1f q/s", sr.Goodput()),
				pct(sr.SLORate()),
				fmt.Sprintf("%d/%d", sr.Disk.FaultRetries, sr.Disk.TimedOutReads),
				fmt.Sprintf("%d/%d", sr.BreakerTrips, sr.ShedPrefetches),
				fmt.Sprintf("%d/%d", sr.RejectedSessions, sr.DegradedSessions))
			opt.progress("rob1: %s/%s done", prof, mode.name)
		}
	}
	res.Notes = append(res.Notes,
		"SLO defaults to the fault-free unmitigated run's p95, so the off/none row violates ~5% by construction",
		"same session plans committed under every configuration: planning never sees faults, only serving does",
		"mitigation = per-session circuit breaker shedding prefetch (demand reads never shed) + admission ceiling of 8 in-flight sessions",
		"goodput counts SLO-meeting queries per simulated second: rejecting a session forfeits its queries but can still win by saving everyone else's tail")
	return res
}
