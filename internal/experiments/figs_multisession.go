package experiments

import (
	"fmt"
	"time"

	"scout/internal/core"
	"scout/internal/engine"
	"scout/internal/workload"
)

// The mu* experiment family measures what the paper never did: many
// concurrent navigating sessions competing for one prefetch cache and one
// disk. Each session is an independent guided walk (own prefetcher clone,
// own virtual clock) served by engine.SessionPlans.Serve: a shared sharded
// cache, a shared disk with per-session head tracking and a global
// seek-interference penalty, and a prefetch-budget arbiter.

// muInterference is the extra seek latency charged per contending session
// (10% of the default 5 ms seek): queueing on the shared disk.
const muInterference = 500 * time.Microsecond

// muParams is the serving workload: the ad-hoc statistical-analysis
// microbenchmark (Figure 10's first row), one sequence per session.
func muParams() workload.Params {
	return workload.Params{Queries: 25, Volume: 80_000, Shape: workload.Cube, WindowRatio: 0.8}
}

// muSessionCounts is the session-count sweep of mu1-mu3.
var muSessionCounts = []int{1, 2, 4, 8, 16, 32, 64}

// muWorkloads builds n single-sequence sessions, each with its own SCOUT
// clone over the shared immutable setup.
func muWorkloads(s *Setup, n int, seed int64) []engine.SessionWorkload {
	seqs := s.genSequences(muParams(), n, seed)
	out := make([]engine.SessionWorkload, n)
	for i := 0; i < n; i++ {
		out[i] = engine.SessionWorkload{
			Sequences:  []workload.Sequence{seqs[i]},
			Prefetcher: s.scout(core.DefaultConfig()),
		}
	}
	return out
}

// muPlanned is one memoized plan-phase result.
type muPlanned struct {
	w     []engine.SessionWorkload
	plans *engine.SessionPlans
}

// muPlan runs the (expensive, policy-independent) plan phase once for a
// session count: SCOUT's full trajectory per session. The result is
// memoized on the Env — it is deterministic in (setup, n, seed) — and the
// returned plans are committed under every policy/cache-mode of the
// ablation and by all three mu experiments; plans never depend on commit
// configuration (see engine.SessionPlans).
func muPlan(env *Env, s *Setup, n int) ([]engine.SessionWorkload, *engine.SessionPlans) {
	key := fmt.Sprintf("%s-%d", s.DS.Name, n)
	env.mu.Lock()
	defer env.mu.Unlock()
	if p, ok := env.muPlans[key]; ok {
		return p.w, p.plans
	}
	w := muWorkloads(s, n, env.opt.Seed)
	p := muPlanned{w: w, plans: engine.PlanSessions(s.Store, s.Tree, w, engine.DefaultConfig().Cost, env.opt.Workers)}
	env.muPlans[key] = p
	return p.w, p.plans
}

// muConfig is the commit-phase configuration of one measurement: the
// engine defaults, the given arbiter policy and cache mode, and
// muInterference.
func muConfig(policy engine.Policy, private bool) engine.ServeConfig {
	return engine.ServeConfig{
		Engine:           engine.DefaultConfig(),
		Policy:           policy,
		PrivateCaches:    private,
		InterferenceSeek: muInterference,
	}
}

// ms formats a duration in milliseconds with two decimals.
func ms(d time.Duration) string { return fmt.Sprintf("%.2fms", d.Seconds()*1e3) }

// Mu1 measures aggregate throughput as session count grows: queries served
// per simulated second, scaling efficiency versus a single session, the
// pooled hit rate, total interference charged, and the share of queries
// whose graph was advanced incrementally (from SCOUT's session-scoped
// ledgers).
func Mu1(env *Env) Result {
	s := env.Neuro()
	opt := env.Options()
	policy := engine.FairShare
	res := Result{
		ID:     "mu1",
		Figure: "multi-session",
		Title:  fmt.Sprintf("Aggregate throughput vs session count (shared cache, policy=%s)", policy),
		Header: []string{"Sessions", "Throughput", "Scaling", "Hit rate", "Interference", "Delta builds"},
	}
	var base float64
	for _, n := range muSessionCounts {
		w, plans := muPlan(env, s, n)
		sr := plans.Serve(muConfig(policy, false))
		tp := sr.Throughput()
		// Scaling is against the sweep's first row, one session.
		if n == 1 {
			base = tp
		}
		var sess core.SessionStats
		for _, sw := range w {
			if sc, ok := sw.Prefetcher.(*core.Scout); ok {
				st := sc.Session()
				sess.Queries += st.Queries
				sess.DeltaBuilds += st.DeltaBuilds
				sess.FullBuilds += st.FullBuilds
			}
		}
		res.AddRow(fmt.Sprintf("%d", n),
			fmt.Sprintf("%.1f q/s", tp),
			pct(tp/(base*float64(n))),
			pct(sr.HitRate()),
			ms(sr.Interference),
			pct(sess.DeltaShare()))
		opt.progress("mu1: %d sessions done", n)
	}
	res.Notes = append(res.Notes,
		"virtual-clock throughput: queries served per simulated second across all sessions",
		"scaling = throughput / (sessions × single-session throughput); interference and cache contention pull it below 100%")
	return res
}

// Mu2 measures per-session response-time percentiles (p50/p95 of residual
// I/O over all counted queries) as session count grows, ablating the
// arbiter policy.
func Mu2(env *Env) Result {
	s := env.Neuro()
	opt := env.Options()
	policies := engine.Policies()
	header := []string{"Sessions"}
	for _, p := range policies {
		header = append(header, fmt.Sprintf("%s p50/p95", p))
	}
	res := Result{
		ID:     "mu2",
		Figure: "multi-session",
		Title:  "Per-session response time vs session count (shared cache, policy ablation)",
		Header: header,
	}
	for _, n := range muSessionCounts {
		row := []string{fmt.Sprintf("%d", n)}
		_, plans := muPlan(env, s, n)
		for _, policy := range policies {
			sr := plans.Serve(muConfig(policy, false))
			lat := summarize(sr.Responses())
			row = append(row, fmt.Sprintf("%s/%s", ms(lat.P50), ms(lat.P95)))
			opt.progress("mu2: %d sessions, %s done", n, policy)
		}
		res.AddRow(row...)
	}
	res.Notes = append(res.Notes,
		"response time = residual disk I/O per counted query; prefetch hits hide the rest",
		"fair/demand/starved throttle prefetch under contention; none lets aggressive windows evict other sessions' working sets")
	return res
}

// Mu3 measures what sharing the cache is worth: pooled hit rate and
// evictions for one shared sharded cache versus private per-session
// caches, as session count grows.
func Mu3(env *Env) Result {
	s := env.Neuro()
	opt := env.Options()
	policy := engine.FairShare
	res := Result{
		ID:     "mu3",
		Figure: "multi-session",
		Title:  fmt.Sprintf("Cache hit rate vs session count: shared vs private caches (policy=%s)", policy),
		Header: []string{"Sessions", "Shared hit", "Private hit", "Shared evictions", "Private evictions"},
	}
	for _, n := range muSessionCounts {
		_, plans := muPlan(env, s, n)
		shared := plans.Serve(muConfig(policy, false))
		private := plans.Serve(muConfig(policy, true))
		res.AddRow(fmt.Sprintf("%d", n),
			pct(shared.HitRate()),
			pct(private.HitRate()),
			fmt.Sprintf("%d", shared.Cache.Evictions),
			fmt.Sprintf("%d", private.Cache.Evictions))
		opt.progress("mu3: %d sessions done", n)
	}
	res.Notes = append(res.Notes,
		"shared: one cache of the paper's capacity serves all sessions (contention but reuse across sessions)",
		"private: every session gets the full capacity to itself — the N-independent-replicas upper bound on memory")
	return res
}
