package engine

import (
	"testing"
	"time"
)

func TestBreakerLifecycle(t *testing.T) {
	b := breaker{cfg: DefaultBreakerConfig()}

	// Closed and clean: prefetch allowed.
	if !b.allowPrefetch(0) {
		t.Fatal("fresh breaker sheds")
	}
	// Sustained fault evidence trips it (EWMA alpha 0.3 toward score 5
	// reaches TripScore 2 within a few observations).
	now := time.Duration(0)
	for i := 0; i < 10 && !b.open; i++ {
		now += 10 * time.Millisecond
		b.observe(now, faultScore(2, 1, 0))
	}
	if !b.open || b.trips != 1 {
		t.Fatalf("breaker did not trip: %+v", b)
	}
	// Open: sheds until the cooldown elapses...
	if b.allowPrefetch(now + time.Millisecond) {
		t.Error("open breaker allowed prefetch inside cooldown")
	}
	// ...then admits exactly one half-open probe.
	probeAt := b.openedAt + b.cfg.Cooldown
	if !b.allowPrefetch(probeAt) || !b.probing {
		t.Fatal("cooldown elapsed but no probe admitted")
	}
	// A faulty probe restarts the cooldown.
	b.observe(probeAt, faultScore(3, 0, 1))
	if !b.open || b.openedAt != probeAt {
		t.Fatalf("faulty probe did not restart cooldown: %+v", b)
	}
	if b.allowPrefetch(probeAt + time.Millisecond) {
		t.Error("restarted cooldown did not shed")
	}
	// A clean probe closes the breaker and resets the evidence.
	probeAt = b.openedAt + b.cfg.Cooldown
	if !b.allowPrefetch(probeAt) {
		t.Fatal("second probe not admitted")
	}
	b.observe(probeAt, 0)
	if b.open || b.score != 0 {
		t.Fatalf("clean probe did not close and reset: %+v", b)
	}
	if !b.allowPrefetch(probeAt + time.Millisecond) {
		t.Error("closed breaker sheds")
	}
	if b.trips != 1 {
		t.Errorf("trips = %d, want 1 (reopen from probe is not a new trip)", b.trips)
	}
}

func TestBreakerDisabledNeverSheds(t *testing.T) {
	var b breaker // zero config: disabled
	for i := 0; i < 50; i++ {
		b.observe(time.Duration(i)*time.Millisecond, 100)
		if !b.allowPrefetch(time.Duration(i) * time.Millisecond) {
			t.Fatal("disabled breaker shed prefetch")
		}
	}
	if b.open || b.trips != 0 {
		t.Errorf("disabled breaker accumulated state: %+v", b)
	}
}

func TestBreakerConfigDefaults(t *testing.T) {
	d := DefaultBreakerConfig()
	if !d.Enabled || d.Alpha <= 0 || d.TripScore <= 0 || d.Cooldown <= 0 {
		t.Fatalf("default config has zero fields: %+v", d)
	}
}

func TestFaultScoreWeights(t *testing.T) {
	if got := faultScore(0, 0, 0); got != 0 {
		t.Errorf("clean score = %v", got)
	}
	// A timeout weighs three retries; stalls weigh like retries.
	if faultScore(3, 0, 0) != faultScore(0, 1, 0) {
		t.Error("timeout != 3 retries")
	}
	if faultScore(1, 0, 0) != faultScore(0, 0, 1) {
		t.Error("stall != retry")
	}
}
