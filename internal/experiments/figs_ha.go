package experiments

import (
	"fmt"
	"time"

	"scout/internal/core"
	"scout/internal/engine"
	"scout/internal/fault"
	"scout/internal/workload"
)

// The ha1 experiment (DESIGN.md §13) measures shard-level fault tolerance:
// chained range replication, health-ledger failover routing and hedged
// prefetch reads on the sharded engine, swept over the shard fault profiles
// (outages, brownouts, flaky mixes). The acceptance physics the property
// tests pin:
//
//   - under any outage profile, replication keeps every result set
//     byte-identical to the fault-free run (the Hash column), while the
//     unreplicated mode loses the pages of outaged ranges;
//   - replication (with or without hedging) strictly lowers the far tail
//     and the SLO-violation rate versus no replication under outages — a
//     failed-over read costs a fast-fail probe plus a replica sweep, an
//     unreplicated read against a dead range burns the client's deadline.

// haPoint is one measured cell: one fault profile × one replication mode ×
// one shard count, on the hilbert layout. Structured so the property tests
// assert physics, not table strings.
type haPoint struct {
	Profile string
	Mode    string
	Shards  int
	P50     time.Duration
	P95     time.Duration
	P999    time.Duration
	// SLORate is the fraction of counted queries that violated: residual
	// above the objective, or any result page lost — an incomplete answer
	// is a failed answer whatever its latency.
	SLORate    float64
	Violations int
	Counted    int
	// Lost / FailedOver total the demand pages dropped (whole chain down)
	// and served by a replica; ReplicaPages is the fleet disk ledger's
	// replica-served page count (demand and prefetch).
	Lost         int64
	FailedOver   int64
	ReplicaPages int64
	// HedgedWindows/HedgeWins count prefetch sub-batches issued to both
	// chain members and the subset the replica won; Trips counts shard
	// health-ledger trips.
	HedgedWindows int64
	HedgeWins     int64
	Trips         int64
	// Hash fingerprints all served result sets (fold of per-sequence
	// engine.SequenceResult.ResultHash); HashMatch compares it against the
	// fault-free unreplicated reference at the same shard count.
	Hash      uint64
	HashMatch bool
}

// haSample is one counted query's outcome, kept so the sweep can apply the
// derived SLO after all cells ran.
type haSample struct {
	res  time.Duration
	lost bool
}

// haMode is one replication configuration of the sweep.
type haMode struct {
	name     string
	replicas int
	hedge    float64
}

// haModes is the replication-mode sweep: unreplicated, 2-way chained
// replication, and replication plus hedged prefetch at 1.5 times the
// median estimate.
var haModes = []haMode{
	{name: "none", replicas: 1},
	{name: "repl", replicas: 2},
	{name: "repl+hedge", replicas: 2, hedge: 1.5},
}

// haProfiles is the fault-profile sweep: fault-free plus every shard
// profile.
func haProfiles() []string {
	return append([]string{"off"}, fault.ShardProfiles()...)
}

// haShardCounts is the shard sweep: the replicated counts only. A single
// shard has no replica target — its chain is itself — so S=1 cannot show
// failover.
var haShardCounts = []int{2, 4, 8, 16}

// runHACell measures one cell on a fresh sharded engine (all sequences, one
// SCOUT prefetcher, the engine's virtual serving clock carrying fault
// episodes across sequences) and returns the structured point plus the
// counted per-query samples for SLO accounting.
func runHACell(s *Setup, seqs []workload.Sequence, profile string, mode haMode, shards int, faultSeed int64) (haPoint, []haSample) {
	cfg := engine.DefaultConfig()
	cfg.Replicas = mode.replicas
	cfg.Hedge = mode.hedge
	if profile != "off" {
		plan, err := fault.ParseProfile(profile, faultSeed)
		if err != nil {
			panic(fmt.Sprintf("experiments: %v", err))
		}
		if plan.Enabled() {
			cfg.Faults = fault.New(plan)
		}
	}
	e := engine.NewShardedEngine(s.Store, s.Tree, cfg, shards)
	defer e.Close()
	sc := s.scout(core.DefaultConfig())

	pt := haPoint{Profile: profile, Mode: mode.name, Shards: shards}
	var samples []haSample
	const fnvOffset, fnvPrime = uint64(14695981039346656037), uint64(1099511628211)
	pt.Hash = fnvOffset
	for _, seq := range seqs {
		r := e.RunSequence(seq, sc)
		pt.Hash = (pt.Hash ^ r.ResultHash) * fnvPrime
		pt.Lost += r.LostPages
		for _, tr := range r.Queries {
			pt.FailedOver += int64(tr.FailedOverPages)
			if !engine.Counted(tr.Seq) {
				continue
			}
			samples = append(samples, haSample{res: tr.Residual, lost: tr.LostPages > 0})
		}
	}
	ha := e.HAStats()
	pt.HedgedWindows = ha.HedgedWindows
	pt.HedgeWins = ha.HedgeWins
	pt.Trips = ha.FailoverTrips
	pt.ReplicaPages = e.Stats().ReplicaPages
	pt.Counted = len(samples)
	return pt, samples
}

// ha1Sweep runs the grid on the hilbert layout (replication chains are
// Hilbert-range chains) and finishes every point with the per-shard-count
// SLO: twice the fault-free unreplicated run's own p95 at the same shard
// count — scale-free and deterministic, same rationale as rob1. Sequential
// and single-coordinator throughout, so the output is byte-identical for
// any -workers.
func ha1Sweep(env *Env) []haPoint {
	opt := env.Options()
	s := env.Neuro()
	restore := s.Store.LayoutName()
	relayout(s.Store, "hilbert")
	seqs := s.genSequences(layoutParams(), opt.sequences(6), opt.Seed)

	refMode := haMode{name: "none", replicas: 1}
	refHash := make(map[int]uint64)
	refSLO := make(map[int]time.Duration)
	refPoints := make(map[int]haPoint)
	refSamples := make(map[int][]haSample)
	for _, n := range haShardCounts {
		pt, samples := runHACell(s, seqs, "off", refMode, n, opt.faultSeed())
		refHash[n] = pt.Hash
		var res []time.Duration
		for _, sm := range samples {
			res = append(res, sm.res)
		}
		refSLO[n] = summarize(res).P95
		refPoints[n] = pt
		refSamples[n] = samples
		opt.progress("ha1: fault-free reference S=%d done", n)
	}
	// The objective carries 2x headroom over the healthy tail: an SLO set at
	// the observed p95 knife-edge would flag every failed-over read (replica
	// sweep plus ReplicaRead surcharge sits a hair above the home's cost),
	// crediting replication with nothing. With headroom, one fast-fail probe
	// plus a replica sweep (Seek + ~p50) fits under 2x p95, while a lost
	// sub-batch violates unconditionally — the protection is visible.
	finish := func(pt haPoint, samples []haSample) haPoint {
		var res []time.Duration
		objective := 2 * refSLO[pt.Shards]
		for _, sm := range samples {
			res = append(res, sm.res)
			if sm.res > objective || sm.lost {
				pt.Violations++
			}
		}
		lat := summarize(res)
		pt.P50, pt.P95, pt.P999 = lat.P50, lat.P95, lat.P999
		if pt.Counted > 0 {
			pt.SLORate = float64(pt.Violations) / float64(pt.Counted)
		}
		pt.HashMatch = pt.Hash == refHash[pt.Shards]
		return pt
	}

	var points []haPoint
	for _, prof := range haProfiles() {
		for _, mode := range haModes {
			for _, n := range haShardCounts {
				var pt haPoint
				var samples []haSample
				if prof == "off" && mode.name == refMode.name && mode.replicas == 1 && mode.hedge == 0 {
					pt, samples = refPoints[n], refSamples[n]
				} else {
					pt, samples = runHACell(s, seqs, prof, mode, n, opt.faultSeed())
				}
				points = append(points, finish(pt, samples))
				opt.progress("ha1: %s/%s S=%d done", prof, mode.name, n)
			}
		}
	}
	relayout(s.Store, restore)
	return points
}

// Ha1 renders the fault-tolerance sweep: response-time profile, SLO
// violations (lost pages count as violations), lost and failed-over pages,
// hedging outcomes, health-ledger trips, and the result-set hash check
// against the fault-free reference, per profile × mode × shard count.
func Ha1(env *Env) Result {
	points := ha1Sweep(env)
	res := Result{
		ID:     "ha1",
		Figure: "fault tolerance",
		Title:  "Shard fault tolerance: replication, failover and hedged reads under shard outages and brownouts",
		Header: []string{"Faults", "Mode", "Shards", "p50", "p95", "p999", "SLO viol", "Lost", "FailedOver", "Hedged/Won", "Trips", "Results"},
	}
	// Rows follow sweep order, so the table ends on the headline p999: the
	// most protected mode under the heaviest swept profile at the largest
	// shard count — the mitigated tail.
	for _, p := range points {
		hash := "match"
		if !p.HashMatch {
			hash = "LOST"
		}
		if p.Profile == "off" && p.Mode == "none" {
			hash = "ref"
		}
		res.AddRow(p.Profile, p.Mode,
			fmt.Sprintf("%d", p.Shards),
			ms(p.P50), ms(p.P95), ms(p.P999),
			pct(p.SLORate),
			fmt.Sprintf("%d", p.Lost),
			fmt.Sprintf("%d", p.FailedOver),
			fmt.Sprintf("%d/%d", p.HedgedWindows, p.HedgeWins),
			fmt.Sprintf("%d", p.Trips),
			hash)
	}
	// The first note's "(override with -slo)" names a flag scoutbench no
	// longer has; the ha1 golden pins the text, so it goes with the next
	// change that moves that golden.
	res.Notes = append(res.Notes,
		"SLO = twice the fault-free unreplicated p95 at the same shard count (override with -slo) — headroom a clean failover fits under but a burned read deadline never does; a query missing result pages violates regardless of latency",
		"replication chains each Hilbert range onto the next R-1 shards; a sick home's misses are served from its chain at CostModel.ReplicaRead per page, after Seek-priced fast-fail probes — an unreplicated outage burns the client's read deadline and loses the pages",
		"per-shard health ledgers (EWMA breakers) trip on outage probes and brownout service, route around the shard for a cooldown, then re-probe; Results compares served result-set hashes against the fault-free reference",
		"hedged prefetch re-issues the slowest estimated shard sub-batch to its replica when it exceeds the threshold times the median estimate, and the cheaper outcome wins (both disks bill the duplicate work)",
		"S=1 is excluded: a single shard's replica chain is itself, so there is nothing to fail over to")
	return res
}
