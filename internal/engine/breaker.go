package engine

import "time"

// BreakerConfig parameterizes the per-session prefetch circuit breaker
// (DESIGN.md §9). The breaker watches a session's recent fault evidence —
// injected read retries, timed-out reads, stalled-shard hits — as an EWMA
// and, when it trips, sheds the session's PREFETCH windows: demand reads
// always proceed (the user is waiting on them), but a session served by a
// faulty backend stops burning shared disk time warming a cache it cannot
// keep warm. Shed budget returns to the arbiter pool for healthy sessions.
type BreakerConfig struct {
	// Enabled turns the breaker on. Off (the zero value) keeps the seed's
	// behavior exactly.
	Enabled bool
	// Alpha is the EWMA weight of the newest query's fault score
	// (DefaultBreakerConfig: 0.3, matching the arbiter's ledgers).
	Alpha float64
	// TripScore is the EWMA level that opens the breaker
	// (DefaultBreakerConfig: 2 — a sustained two fault events per query).
	TripScore float64
	// Cooldown is the virtual time an open breaker sheds before admitting
	// one half-open probe window (DefaultBreakerConfig: 250 ms). A clean
	// probe closes the breaker; a faulty one restarts the cooldown.
	Cooldown time.Duration
}

// DefaultBreakerConfig returns the enabled breaker at its documented
// defaults.
func DefaultBreakerConfig() BreakerConfig {
	return BreakerConfig{Enabled: true, Alpha: 0.3, TripScore: 2, Cooldown: 250 * time.Millisecond}
}

// faultScore weights one query's fault evidence: a retried read counts 1,
// a timed-out read 3 (it charged the full per-read timeout), a
// stalled-shard access 1.
func faultScore(retries, timeouts, stalls int64) float64 {
	return float64(retries) + 3*float64(timeouts) + float64(stalls)
}

// corruptionScore weights one query's storage-corruption evidence from the
// durable backend (DESIGN.md §10): an unrepairable corrupt read counts 3 —
// as alarming as a timed-out read, the data is gone until a scrub or
// operator heals it — while a read repaired in place from the replica
// counts 1 (recovered, but the medium is rotting). Added to faultScore as
// breaker evidence, so corruption trips the same shedding machinery
// injected faults do.
func corruptionScore(corrupt, repaired int64) float64 {
	unrepaired := corrupt - repaired
	if unrepaired < 0 {
		unrepaired = 0
	}
	return 3*float64(unrepaired) + float64(repaired)
}

// breaker is one session's circuit-breaker state, driven entirely by the
// deterministic commit loop on the virtual clock.
type breaker struct {
	cfg      BreakerConfig
	score    float64 // fault-evidence EWMA
	open     bool
	probing  bool // a half-open probe window is in flight
	openedAt time.Duration
	trips    int64
}

// allowPrefetch reports whether the session may spend its prefetch window
// at virtual time now. An open breaker sheds until its cooldown elapses,
// then admits one half-open probe.
func (b *breaker) allowPrefetch(now time.Duration) bool {
	if !b.cfg.Enabled || !b.open {
		return true
	}
	if now >= b.openedAt+b.cfg.Cooldown {
		b.probing = true
		return true
	}
	return false
}

// observe folds one completed query's fault score into the EWMA and moves
// the breaker: a clean half-open probe closes it, a faulty one restarts
// the cooldown, and a closed breaker trips when the EWMA reaches
// TripScore.
func (b *breaker) observe(now time.Duration, score float64) {
	if !b.cfg.Enabled {
		return
	}
	b.score = b.cfg.Alpha*score + (1-b.cfg.Alpha)*b.score
	if b.probing {
		b.probing = false
		if score == 0 {
			b.open = false
			b.score = 0 // a clean probe resets the evidence
		} else {
			b.openedAt = now
		}
		return
	}
	if !b.open && b.score >= b.cfg.TripScore {
		b.open = true
		b.openedAt = now
		b.trips++
	}
}
