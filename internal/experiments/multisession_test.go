package experiments

import (
	"fmt"
	"reflect"
	"slices"
	"testing"
	"time"

	"scout/internal/core"
	"scout/internal/engine"
	"scout/internal/workload"
)

// scoutSessions builds n single-sequence SCOUT sessions over the setup.
func scoutSessions(s *Setup, n int, seed int64) []engine.SessionWorkload {
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

// TestServeIsolatedMatchesSingleSessionScout is the multi-session
// determinism property on the real workload: with the interference penalty
// disabled, private caches and the unarbitrated policy, an N-session
// concurrent serve of SCOUT sessions is byte-identical to N sequential
// single-session engine runs — across several seeds and session counts.
func TestServeIsolatedMatchesSingleSessionScout(t *testing.T) {
	s, _ := parallelEnv(t)
	for _, seed := range []int64{7, 11, 23} {
		for _, n := range []int{2, 4, 8} {
			workloads := scoutSessions(s, n, seed)
			res := engine.Serve(s.Store, s.Tree, workloads, engine.ServeConfig{
				Engine:        engine.DefaultConfig(),
				Policy:        engine.Unarbitrated,
				PrivateCaches: true,
			})
			seqs := s.genSequences(muParams(), n, seed)
			for i := 0; i < n; i++ {
				e := engine.New(s.Store, s.Tree, engine.DefaultConfig())
				want := e.RunSequence(seqs[i], s.scout(core.DefaultConfig()))
				want.ResultHash = 0 // the commit loop does not hash the plan phase's result sets
				if len(res.Sessions[i].Sequences) != 1 {
					t.Fatalf("session %d: %d sequences", i, len(res.Sessions[i].Sequences))
				}
				if !reflect.DeepEqual(res.Sessions[i].Sequences[0], want) {
					t.Errorf("seed %d n %d session %d: serve differs from single-session run", seed, n, i)
				}
			}
		}
	}
}

// TestServeSharedDeterministicAcrossWorkers pins that the full shared
// configuration (sharded cache, arbiter, interference) with SCOUT sessions
// is byte-identical for any plan-phase worker count.
func TestServeSharedDeterministicAcrossWorkers(t *testing.T) {
	s, _ := parallelEnv(t)
	run := func(workers int) engine.ServeResult {
		cfg := engine.ServeConfig{
			Engine:           engine.DefaultConfig(),
			Policy:           engine.FairShare,
			InterferenceSeek: 500 * time.Microsecond,
		}
		return engine.PlanSessions(s.Store, s.Tree, scoutSessions(s, 6, 7), cfg.Engine.Cost, workers).Serve(cfg)
	}
	a, b, c := run(1), run(4), run(16)
	if !reflect.DeepEqual(a, b) || !reflect.DeepEqual(b, c) {
		t.Error("shared-cache serve output varies with worker count")
	}
}

// TestMuOptionOverrides: mu2 prints one row per muSessionCounts entry and
// one column per arbiter policy, and the starved cell of its 4-session row
// is the plans committed under muConfig(engine.StarvedFirst, false).
func TestMuOptionOverrides(t *testing.T) {
	env := NewEnv(goldenOptions())
	res := Mu2(env)
	if len(res.Rows) != len(muSessionCounts) {
		t.Fatalf("mu2 rows = %d, want one per session count %v", len(res.Rows), muSessionCounts)
	}
	if len(res.Header) != 1+len(engine.Policies()) {
		t.Errorf("mu2 columns = %d, want one per policy plus Sessions", len(res.Header))
	}
	for i, n := range muSessionCounts {
		if got := res.Rows[i][0]; got != fmt.Sprint(n) {
			t.Errorf("mu2 row %d session count = %q, want %d", i, got, n)
		}
	}
	row := slices.Index(muSessionCounts, 4)
	_, plans := muPlan(env, env.Neuro(), 4)
	lat := summarize(plans.Serve(muConfig(engine.StarvedFirst, false)).Responses())
	want := fmt.Sprintf("%s/%s", ms(lat.P50), ms(lat.P95))
	col := slices.Index(res.Header, "starved p50/p95")
	if col < 0 || res.Rows[row][col] != want {
		t.Errorf("mu2 starved cell (column %d of %v) is not %s", col, res.Header, want)
	}
}
