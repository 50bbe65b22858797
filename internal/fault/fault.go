// Package fault is the deterministic fault-injection layer for the serving
// path (DESIGN.md §9). A Plan describes the fault universe — transient
// page-read errors, slow-page latency spikes, stalled-shard episodes and
// arbiter-budget starvation windows — and an Injector evaluates it as a
// pure function of (seed, pageID, virtual time): no state, no real
// randomness, no wall clock. The same plan over the same workload produces
// the same faults on every run, for any worker count and under -race,
// which is what makes the rob1 experiment golden-able.
//
// The injector only decides; the charging and the recovery live where the
// resources live: pagestore.Disk and the engine's shared disk charge retry
// and timeout costs to the virtual clock, the engine's circuit breaker
// sheds prefetch, and Serve's admission control rejects or degrades
// sessions. With a zero Plan (or a nil injector) every one of those paths
// is byte-identical to the fault-free seed.
package fault

import (
	"fmt"
	"time"

	"scout/internal/pagestore"
)

// Plan is one deterministic fault configuration. All rates are
// probabilities in [0,1], evaluated by hashing (Seed, domain, inputs) —
// see Injector. The zero Plan injects nothing.
type Plan struct {
	// Seed keys every fault decision. Two plans that differ only in Seed
	// fault different pages at different times at the same rates.
	Seed int64

	// ReadErrorRate is the per-attempt probability that a page read fails
	// transiently and must be retried (pagestore.FaultCost bounds the
	// recovery). Retry attempts re-roll: a read fails permanently only when
	// every bounded attempt loses the roll.
	ReadErrorRate float64

	// SlowPageRate is the per-read probability of a latency spike of
	// SlowPagePenalty — a remapped sector, a deep queue, a firmware hiccup.
	SlowPageRate    float64
	SlowPagePenalty time.Duration

	// StallPeriod slices virtual time into episode windows; within a
	// window, each cache shard is stalled with probability StallRate, and
	// every access to a stalled shard charges StallPenalty (lock convoy,
	// memory pressure, a compacting neighbor). Zero period disables stalls.
	StallPeriod  time.Duration
	StallRate    float64
	StallPenalty time.Duration

	// StarvePeriod slices virtual time into arbiter windows; within a
	// window, with probability StarveRate, the arbiter's prefetch budget is
	// starved to zero for every session (a background job owns the disk).
	// Zero period disables starvation.
	StarvePeriod time.Duration
	StarveRate   float64

	// Shard-fault domain (DESIGN.md §13): whole-shard episodes the sharded
	// engine's failover router reacts to, evaluated — like stalls — as pure
	// functions of (Seed, window, shard).
	//
	// OutagePeriod slices virtual time into episode windows; within a
	// window each SHARD is down with probability OutageRate: every storage
	// read against it fails for the whole window (node crash, network
	// partition). Zero period disables outages.
	OutagePeriod time.Duration
	OutageRate   float64
	// BrownoutPeriod/BrownoutRate select browned-out shards the same way;
	// a browned shard serves reads at BrownoutFactor times their normal
	// cost for the window (a compacting neighbor, a throttled device, a
	// saturated NIC). Factor <= 1 disables brownouts.
	BrownoutPeriod time.Duration
	BrownoutRate   float64
	BrownoutFactor float64
}

// Enabled reports whether the plan can inject anything at all.
func (p Plan) Enabled() bool {
	return p.ReadErrorRate > 0 ||
		(p.SlowPageRate > 0 && p.SlowPagePenalty > 0) ||
		(p.StallPeriod > 0 && p.StallRate > 0 && p.StallPenalty > 0) ||
		(p.StarvePeriod > 0 && p.StarveRate > 0) ||
		p.ShardFaultsEnabled()
}

// ShardFaultsEnabled reports whether the plan can inject whole-shard
// outages or brownouts — the episodes the failover router routes around.
func (p Plan) ShardFaultsEnabled() bool {
	return (p.OutagePeriod > 0 && p.OutageRate > 0) ||
		(p.BrownoutPeriod > 0 && p.BrownoutRate > 0 && p.BrownoutFactor > 1)
}

// Injector evaluates a Plan. It is stateless and safe for concurrent use;
// every decision is a pure function of the plan and the call's inputs.
// Injector implements pagestore.FaultInjector.
type Injector struct {
	plan Plan
}

// New creates an injector for the plan. A nil *Injector is valid
// everywhere one is accepted and injects nothing.
func New(plan Plan) *Injector { return &Injector{plan: plan} }

// Plan returns the injector's plan.
func (in *Injector) Plan() Plan { return in.plan }

// Hash domains keep the decision streams independent: the same (page,
// time) must be able to fail its read without also being slow.
const (
	domainError uint64 = 0x9E37_79B9_7F4A_7C15
	domainSlow  uint64 = 0xC2B2_AE3D_27D4_EB4F
	domainStall uint64 = 0x1656_67B1_9E37_79F9
	domainStarv uint64 = 0x2545_F491_4F6C_DD1D
	domainOut   uint64 = 0xD6E8_FEB8_6659_FD93
	domainBrown uint64 = 0xA076_1D64_78BD_642F
)

// mix is splitmix64's finalizer over the running hash — cheap, stateless,
// and well distributed even for sequential inputs (page IDs, window
// indexes).
func mix(h uint64) uint64 {
	h ^= h >> 30
	h *= 0xBF58476D1CE4E5B9
	h ^= h >> 27
	h *= 0x94D049BB133111EB
	h ^= h >> 31
	return h
}

// roll reports whether the hash of the inputs lands under rate. The hash's
// top 53 bits map uniformly onto [0,1), so rate 1 always hits and rate 0
// never does.
func roll(seed int64, domain uint64, a, b, c uint64, rate float64) bool {
	if rate <= 0 {
		return false
	}
	if rate >= 1 {
		return true
	}
	h := mix(mix(mix(mix(uint64(seed)^domain)^a)^b) ^ c)
	return float64(h>>11)/(1<<53) < rate
}

// ReadFailure reports whether the attempt-th try (0 = the first) at
// reading page p at virtual time now fails transiently. Distinct attempts
// re-roll independently, so bounded retries recover from transient errors
// at rate^(attempts) residual probability.
func (in *Injector) ReadFailure(p pagestore.PageID, now time.Duration, attempt int) bool {
	if in == nil {
		return false
	}
	return roll(in.plan.Seed, domainError, uint64(p), uint64(now), uint64(attempt), in.plan.ReadErrorRate)
}

// SlowPage returns the latency spike injected on reading page p at virtual
// time now, or zero.
func (in *Injector) SlowPage(p pagestore.PageID, now time.Duration) time.Duration {
	if in == nil || in.plan.SlowPagePenalty <= 0 {
		return 0
	}
	if roll(in.plan.Seed, domainSlow, uint64(p), uint64(now), 0, in.plan.SlowPageRate) {
		return in.plan.SlowPagePenalty
	}
	return 0
}

// ShardStall returns the extra latency charged on accessing cache shard
// `shard` at virtual time now, or zero. Stall episodes are per
// (StallPeriod window, shard): a stalled shard stays stalled for the whole
// window, then re-rolls.
func (in *Injector) ShardStall(shard int, now time.Duration) time.Duration {
	if in == nil || in.plan.StallPeriod <= 0 || in.plan.StallPenalty <= 0 {
		return 0
	}
	window := uint64(now / in.plan.StallPeriod)
	if roll(in.plan.Seed, domainStall, window, uint64(shard), 0, in.plan.StallRate) {
		return in.plan.StallPenalty
	}
	return 0
}

// ShardOutage reports whether shard `shard` (of a fleet of `shards`) is
// down at virtual time now: every storage read against it fails for the
// whole OutagePeriod window, then the episode re-rolls. An outage episode
// is fleet-wide with a SINGLE victim — the window first rolls whether an
// outage happens at all (OutageRate), then hashes a victim shard uniformly
// — so at most one shard is ever down per window. That single-victim
// discipline is what turns R >= 2 chained replication into a hard
// availability guarantee (some chain member is always live) instead of a
// probabilistic one; the ha1 acceptance physics — replicated result sets
// byte-identical to fault-free under every outage profile — depends on it.
// Like ShardStall, the decision is a pure function of (seed, window,
// shard, shards), so the failover router's discoveries are deterministic
// for any worker count.
func (in *Injector) ShardOutage(shard, shards int, now time.Duration) bool {
	if in == nil || in.plan.OutagePeriod <= 0 || shards <= 0 {
		return false
	}
	window := uint64(now / in.plan.OutagePeriod)
	if !roll(in.plan.Seed, domainOut, window, 0, 0, in.plan.OutageRate) {
		return false
	}
	victim := mix(mix(uint64(in.plan.Seed)^domainOut)^window) % uint64(shards)
	return victim == uint64(shard)
}

// ShardBrownout returns the service-cost multiplier for shard `shard` at
// virtual time now: BrownoutFactor while the shard is browned out for the
// current BrownoutPeriod window, 1 otherwise.
func (in *Injector) ShardBrownout(shard int, now time.Duration) float64 {
	if in == nil || in.plan.BrownoutPeriod <= 0 || in.plan.BrownoutFactor <= 1 {
		return 1
	}
	window := uint64(now / in.plan.BrownoutPeriod)
	if roll(in.plan.Seed, domainBrown, window, uint64(shard), 0, in.plan.BrownoutRate) {
		return in.plan.BrownoutFactor
	}
	return 1
}

// BudgetStarved reports whether the arbiter's prefetch budget is starved
// to zero at virtual time now. Starvation is per StarvePeriod window and
// hits every session alike — the contended resource is the disk, not a
// session.
func (in *Injector) BudgetStarved(now time.Duration) bool {
	if in == nil || in.plan.StarvePeriod <= 0 {
		return false
	}
	window := uint64(now / in.plan.StarvePeriod)
	return roll(in.plan.Seed, domainStarv, window, 0, 0, in.plan.StarveRate)
}

// Profiles returns the canned page-level plan names, in the order the rob1
// experiment sweeps them.
func Profiles() []string { return []string{"off", "light", "moderate", "heavy"} }

// ShardProfiles returns the canned shard-fault plan names (DESIGN.md §13),
// in ha1 sweep order. They model whole-shard episodes — brownouts, outages,
// and a flaky mix that adds page-level read errors on top — and only the
// sharded failover paths react to them.
func ShardProfiles() []string {
	return []string{"shard:brownout", "shard:outage", "shard:flaky"}
}

// ParseProfile resolves a canned profile name (one of Profiles or
// ShardProfiles) into a Plan keyed by seed. Unknown names — including the
// empty string; callers that want a default must choose one explicitly —
// are errors, never silent fallbacks.
func ParseProfile(name string, seed int64) (Plan, error) {
	switch name {
	case "shard:brownout":
		return Plan{
			Seed:           seed,
			BrownoutPeriod: 20 * time.Millisecond, BrownoutRate: 0.35, BrownoutFactor: 4,
		}, nil
	case "shard:outage":
		return Plan{
			Seed:         seed,
			OutagePeriod: 25 * time.Millisecond, OutageRate: 0.25,
		}, nil
	case "shard:flaky":
		return Plan{
			Seed:          seed,
			ReadErrorRate: 0.05,
			OutagePeriod:  30 * time.Millisecond, OutageRate: 0.15,
			BrownoutPeriod: 20 * time.Millisecond, BrownoutRate: 0.25, BrownoutFactor: 3,
		}, nil
	case "off":
		return Plan{}, nil
	case "light":
		return Plan{
			Seed:          seed,
			ReadErrorRate: 0.02,
			SlowPageRate:  0.02, SlowPagePenalty: 2 * time.Millisecond,
			StallPeriod: 50 * time.Millisecond, StallRate: 0.05, StallPenalty: 500 * time.Microsecond,
			StarvePeriod: 100 * time.Millisecond, StarveRate: 0.05,
		}, nil
	case "moderate":
		return Plan{
			Seed:          seed,
			ReadErrorRate: 0.08,
			SlowPageRate:  0.05, SlowPagePenalty: 4 * time.Millisecond,
			StallPeriod: 40 * time.Millisecond, StallRate: 0.15, StallPenalty: 1 * time.Millisecond,
			StarvePeriod: 80 * time.Millisecond, StarveRate: 0.10,
		}, nil
	case "heavy":
		return Plan{
			Seed:          seed,
			ReadErrorRate: 0.20,
			SlowPageRate:  0.10, SlowPagePenalty: 8 * time.Millisecond,
			StallPeriod: 30 * time.Millisecond, StallRate: 0.30, StallPenalty: 2 * time.Millisecond,
			StarvePeriod: 60 * time.Millisecond, StarveRate: 0.20,
		}, nil
	}
	return Plan{}, fmt.Errorf("fault: unknown fault profile %q (want off, light, moderate, heavy, shard:brownout, shard:outage or shard:flaky)", name)
}
