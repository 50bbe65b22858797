package experiments

import (
	"time"

	"scout/internal/engine"
)

// latencySummary is the nearest-rank latency profile the serving
// experiments report (mu*, rob*, dur*, load*, shard*): median, tail, and
// far-tail response times.
type latencySummary struct {
	P50  time.Duration
	P95  time.Duration
	P99  time.Duration
	P999 time.Duration
}

// summarize reads the profile off engine.Percentile. Empty input yields the
// zero summary.
func summarize(samples []time.Duration) latencySummary {
	return latencySummary{
		P50:  engine.Percentile(samples, 50),
		P95:  engine.Percentile(samples, 95),
		P99:  engine.Percentile(samples, 99),
		P999: engine.Percentile(samples, 99.9),
	}
}
