package engine

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"scout/internal/prefetch"
	"scout/internal/workload"
)

var benchServeQueries int64

// BenchmarkServeCommit times the commit phase alone — SessionPlans.Serve
// over plans built once outside the timer, the way the mu*/rob1/load1
// experiments re-commit one plan set under many configs — on the per-page
// and the batched flush at 16, 64 and 256 sessions of a shared cache under
// the fair policy with seek interference. ns/op is one whole commit;
// ns/query divides by the queries it served.
func BenchmarkServeCommit(b *testing.B) {
	store, tree := cloudWorld(b, 20000, 9)
	for _, sessions := range []int{16, 64, 256} {
		rng := rand.New(rand.NewSource(int64(sessions)))
		workloads := make([]SessionWorkload, sessions)
		for i := range workloads {
			workloads[i] = SessionWorkload{
				Sequences:  []workload.Sequence{randomWalk(rng, 12, 30)},
				Prefetcher: prefetch.NewStraightLine(1000),
			}
		}
		plans := PlanSessions(store, tree, workloads, DefaultConfig().Cost, 0)
		for _, batched := range []bool{false, true} {
			cfg := ServeConfig{
				Engine:           DefaultConfig(),
				Policy:           FairShare,
				InterferenceSeek: 500 * time.Microsecond,
			}
			cfg.Engine.BatchedIO = batched
			path := "per-page"
			if batched {
				path = "batched"
			}
			b.Run(fmt.Sprintf("%s/sessions=%d", path, sessions), func(b *testing.B) {
				b.ReportAllocs()
				var queries int64
				for i := 0; i < b.N; i++ {
					queries += plans.Serve(cfg).Queries
				}
				benchServeQueries = queries
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(queries), "ns/query")
			})
		}
	}
}
