// Open-loop traffic generation for the serving path (DESIGN.md §11): the
// closed-loop Serve of PR 3 starts every session at virtual time zero and
// runs it to completion, so session count IS offered load. An open-loop run
// instead draws each session's arrival time from a seeded stochastic
// process, so offered load (sessions per simulated second) sweeps
// independently of the population and the system can be driven past its
// saturation knee — the capacity-planning story closed-loop scaling curves
// cannot tell. Generation is a pure, sequential function of the config, so
// open-loop serves stay byte-identical for any plan-phase worker count.
package engine

import (
	"math"
	"math/rand"
	"time"
)

// ArrivalProcess selects the open-loop generator's arrival process.
type ArrivalProcess int

const (
	// Poisson draws i.i.d. exponential interarrival gaps at the configured
	// rate — the memoryless baseline of every queueing model.
	Poisson ArrivalProcess = iota
	// Bursty groups arrivals into simultaneous bursts (think a lab starting
	// a demo, or a lecture hall opening the same model): bursts of
	// burstSize sessions arrive together, with exponential gaps between
	// bursts scaled so the long-run offered rate matches Rate.
	Bursty
)

// burstSize is the sessions per burst under Bursty.
const burstSize = 4

// ArrivalConfig parameterizes Serve's open-loop session generator. The zero
// value (Enabled false) keeps the closed-loop seed behavior byte-exactly:
// every session present at time zero, no churn, no lost-query accounting.
type ArrivalConfig struct {
	// Enabled turns the open-loop generator on.
	Enabled bool
	// Process selects the arrival process (default Poisson).
	Process ArrivalProcess
	// Rate is the offered load in session arrivals per simulated second;
	// a non-positive rate lands every session at time zero.
	Rate float64
	// Seed keys the arrival draws. Like the fault seed, arrivals hash
	// through their own generator, so sharing the workload seed does not
	// correlate arrival times with trajectories.
	Seed int64
}

// ArrivalTimes generates the deterministic arrival time of each of n
// sessions, in session-ID order (which is also nondecreasing time order).
// The draw sequence depends only on the config and n — never on workers,
// policy or the commit loop — so the schedule is byte-identical across runs.
func (c ArrivalConfig) ArrivalTimes(n int) []time.Duration {
	out := make([]time.Duration, n)
	rng := rand.New(rand.NewSource(c.Seed))
	var t float64
	switch c.Process {
	case Bursty:
		// Gaps between bursts are exponential at Rate/burstSize, so the
		// long-run session rate is still Rate; everyone in a burst lands on
		// the same instant.
		for i := 0; i < n; {
			t += expGap(rng, c.Rate/burstSize)
			for k := 0; k < burstSize && i < n; k++ {
				out[i] = secondsToDuration(t)
				i++
			}
		}
	default:
		for i := 0; i < n; i++ {
			t += expGap(rng, c.Rate)
			out[i] = secondsToDuration(t)
		}
	}
	return out
}

// expGap draws one exponential interarrival gap (seconds) at the given rate
// by inverse CDF.
func expGap(rng *rand.Rand, rate float64) float64 {
	if rate <= 0 {
		return 0
	}
	// 1-u is in (0, 1]; Log of it is finite, so the gap always is too.
	return -math.Log(1-rng.Float64()) / rate
}

func secondsToDuration(s float64) time.Duration {
	return time.Duration(s * float64(time.Second))
}

// ClassSpec defines one workload class of a mixed-traffic serve: its
// prefetch-budget priority in the arbiter and its abandonment patience.
// Every class shares ServeConfig.SLO. Sessions bind to a class via
// SessionWorkload.Class (an index into ServeConfig.Classes); an
// out-of-range index, or a nil Classes slice, means the neutral default
// (weight 1, no patience).
type ClassSpec struct {
	// Name labels the class for its caller; serving does not read it.
	Name string
	// Weight is the class's prefetch-budget priority (≤0 means 1): the
	// arbiter scales budget shares by weight, so a weight-2 class gets
	// twice a weight-1 contender's share of every contended window.
	// Demand reads are never prioritized — only prefetch is elastic.
	Weight float64
	// Patience is the per-query abandonment threshold under open-loop
	// arrivals: a session whose response exceeds it abandons, forfeiting
	// the rest of its trajectory (counted as lost queries). 0 = infinite
	// patience. Ignored when the open-loop generator is disabled.
	Patience time.Duration
}

// weight returns the spec's normalized priority.
func (c ClassSpec) weight() float64 {
	if c.Weight <= 0 {
		return 1
	}
	return c.Weight
}
