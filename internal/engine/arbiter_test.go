package engine

import (
	"sync"
	"testing"
	"time"
)

func TestFairShareSplitsWindow(t *testing.T) {
	a := newArbiter(FairShare, 4)
	w := 100 * time.Millisecond
	if got := a.Grant(0, nil, w); got != w {
		t.Errorf("uncontended fair share = %v, want full window", got)
	}
	if got := a.Grant(0, []int{1, 2, 3}, w); got != w/4 {
		t.Errorf("4-way fair share = %v, want %v", got, w/4)
	}
	if got := a.Grant(0, nil, 0); got != 0 {
		t.Errorf("zero window granted %v", got)
	}
}

func TestUnarbitratedGrantsFullWindow(t *testing.T) {
	a := newArbiter(Unarbitrated, 2)
	w := 42 * time.Millisecond
	if got := a.Grant(1, []int{0}, w); got != w {
		t.Errorf("unarbitrated grant = %v, want %v", got, w)
	}
}

func TestDemandWeightedFavorsColdSessions(t *testing.T) {
	a := newArbiter(DemandWeighted, 2)
	// Session 0 misses everything, session 1 hits everything.
	for i := 0; i < 10; i++ {
		a.Record(0, 100, 0)   // demand 100 pages/query
		a.Record(1, 100, 100) // demand 0 (floored to 0.1)
	}
	w := 100 * time.Millisecond
	hungry := a.Grant(0, []int{1}, w)
	warm := a.Grant(1, []int{0}, w)
	if hungry <= warm {
		t.Errorf("demand weighting inverted: hungry %v ≤ warm %v", hungry, warm)
	}
	if hungry > w {
		t.Errorf("grant %v exceeds window %v", hungry, w)
	}
	fair := w / 2
	if hungry <= fair {
		t.Errorf("hungry session got %v, want more than fair share %v", hungry, fair)
	}
}

func TestStarvedFirstPrioritizesLowHitRate(t *testing.T) {
	a := newArbiter(StarvedFirst, 3)
	for i := 0; i < 10; i++ {
		a.Record(0, 100, 10) // starved
		a.Record(1, 100, 90)
		a.Record(2, 100, 95)
	}
	w := 100 * time.Millisecond
	if got := a.Grant(0, []int{1, 2}, w); got != w {
		t.Errorf("starved session granted %v, want full window", got)
	}
	throttled := a.Grant(1, []int{0, 2}, w)
	if throttled != w/6 {
		t.Errorf("non-starved session granted %v, want %v", throttled, w/6)
	}
}

func TestLedgerAccumulates(t *testing.T) {
	a := newArbiter(FairShare, 2)
	a.Grant(0, []int{1}, 100*time.Millisecond)
	a.Record(0, 10, 5)
	a.Record(99, 10, 5) // out of range: ignored
	if l := a.ledgers[0]; l.queries != 1 || l.hitRate != 0.5 || l.demand != 5 {
		t.Errorf("ledger = %+v", l)
	}
}

// TestArbiterRaceHammer drives the locked Arbiter's Grant and Record from
// 16 goroutines so `go test -race` exercises its locking alongside the
// sharded cache's (cache/cache_race_test.go).
func TestArbiterRaceHammer(t *testing.T) {
	const goroutines = 16
	for _, policy := range Policies() {
		a := NewArbiter(policy, goroutines)
		var wg sync.WaitGroup
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				contenders := []int{(g + 1) % goroutines, (g + 2) % goroutines}
				for i := 0; i < 2_000; i++ {
					grant := a.Grant(g, contenders, time.Duration(i+1)*time.Microsecond)
					if grant < 0 || grant > time.Duration(i+1)*time.Microsecond {
						t.Errorf("grant %v out of range", grant)
						return
					}
					a.Record(g, 10+i%7, i%11, grant/2)
				}
			}(g)
		}
		wg.Wait()
		for g := 0; g < goroutines; g++ {
			if l := a.core.ledgers[g]; l.queries != 2_000 {
				t.Errorf("%v: session %d recorded %d queries, want 2000", policy, g, l.queries)
			}
		}
	}
}

// TestGrantZeroBudgetWindow: every policy must grant nothing for a zero or
// negative window — a starved arbiter window is priced as exactly zero
// prefetch, not a negative grant.
func TestGrantZeroBudgetWindow(t *testing.T) {
	for _, policy := range Policies() {
		a := newArbiter(policy, 4)
		for _, w := range []time.Duration{0, -time.Millisecond} {
			if got := a.Grant(0, []int{1, 2, 3}, w); got != 0 {
				t.Errorf("%v: grant %v for window %v", policy, got, w)
			}
		}
	}
}

// TestStarvedFirstAllStarved: when every contender is equally starved (the
// all-fresh start, hit rate 0 across the board), the tie rule must give the
// asking session its FULL window — throttling everyone on a tie would
// deadlock warm-up.
func TestStarvedFirstAllStarved(t *testing.T) {
	a := newArbiter(StarvedFirst, 4)
	window := 40 * time.Millisecond
	for s := 0; s < 4; s++ {
		contenders := make([]int, 0, 3)
		for c := 0; c < 4; c++ {
			if c != s {
				contenders = append(contenders, c)
			}
		}
		if got := a.Grant(s, contenders, window); got != window {
			t.Errorf("all-starved session %d granted %v, want full %v", s, got, window)
		}
	}
}

// TestSheddingReturnsBudgetToPool: a shedding session gets nothing, and its
// share of every other session's fair split returns to the pool.
func TestSheddingReturnsBudgetToPool(t *testing.T) {
	a := newArbiter(FairShare, 3)
	window := 30 * time.Millisecond
	if got := a.Grant(0, []int{1, 2}, window); got != window/3 {
		t.Fatalf("three-way split = %v, want %v", got, window/3)
	}
	a.SetShedding(1, true)
	if got := a.Grant(1, []int{0, 2}, window); got != 0 {
		t.Errorf("shedding session granted %v", got)
	}
	if got := a.Grant(0, []int{1, 2}, window); got != window/2 {
		t.Errorf("split with one shedding contender = %v, want %v", got, window/2)
	}
	if !a.ledgers[1].shedding {
		t.Error("ledger does not record shedding")
	}
	a.SetShedding(1, false)
	if got := a.Grant(0, []int{1, 2}, window); got != window/3 {
		t.Errorf("split after unshedding = %v, want %v", got, window/3)
	}
	// Out-of-range sessions are ignored, not panics.
	a.SetShedding(-1, true)
	a.SetShedding(99, true)
}

// TestArbiterPriorityWeightsShares: class priorities scale the fair share —
// a weight-3 session takes 3/4 of a two-way window, its weight-1 contender
// the remaining 1/4 — and the StarvedFirst throttle splits by priority too.
func TestArbiterPriorityWeightsShares(t *testing.T) {
	a := newArbiter(FairShare, 2)
	a.SetPriority(0, 3)
	w := 100 * time.Millisecond
	if got := a.Grant(0, []int{1}, w); got != 75*time.Millisecond {
		t.Errorf("weight-3 share = %v, want 75ms", got)
	}
	if got := a.Grant(1, []int{0}, w); got != 25*time.Millisecond {
		t.Errorf("weight-1 share = %v, want 25ms", got)
	}
	// Uncontended, even a weighted session gets the full window.
	if got := a.Grant(1, nil, w); got != w {
		t.Errorf("uncontended weighted grant = %v, want full window", got)
	}

	s := newArbiter(StarvedFirst, 2)
	s.SetPriority(0, 3)
	for i := 0; i < 10; i++ {
		s.Record(0, 100, 90) // warm: throttled
		s.Record(1, 100, 10) // starved: full window
	}
	if got := s.Grant(1, []int{0}, w); got != w {
		t.Errorf("starved session granted %v, want full window", got)
	}
	// Throttled share = priorityShare/2 = (100ms × 3/4)/2.
	if got := s.Grant(0, []int{1}, w); got != 37500*time.Microsecond {
		t.Errorf("throttled weight-3 share = %v, want 37.5ms", got)
	}
}

// TestArbiterNeutralPriorityBitExact: setting every priority to 1 (or an
// out-of-range / non-positive weight) must leave the integer-division grant
// arithmetic untouched — the weighted float paths only engage when some
// priority differs from 1.
func TestArbiterNeutralPriorityBitExact(t *testing.T) {
	plain := newArbiter(FairShare, 3)
	tuned := newArbiter(FairShare, 3)
	tuned.SetPriority(0, 1)
	tuned.SetPriority(1, -5) // normalized to 1
	tuned.SetPriority(99, 7) // out of range: ignored
	w := 100 * time.Millisecond
	for s := 0; s < 3; s++ {
		want := plain.Grant(s, []int{(s + 1) % 3, (s + 2) % 3}, w)
		got := tuned.Grant(s, []int{(s + 1) % 3, (s + 2) % 3}, w)
		if want != got {
			t.Errorf("session %d: neutral priorities drifted the grant: %v vs %v", s, got, want)
		}
		if want != w/3 {
			t.Errorf("session %d: fair share = %v, want %v", s, want, w/3)
		}
	}
}

// TestArbiterPriorityDemandWeighted: under DemandWeighted the priority
// multiplies the demand EWMA, so equal-demand sessions split by class weight.
func TestArbiterPriorityDemandWeighted(t *testing.T) {
	a := newArbiter(DemandWeighted, 2)
	a.SetPriority(0, 4)
	for i := 0; i < 10; i++ {
		a.Record(0, 100, 0)
		a.Record(1, 100, 0)
	}
	w := 100 * time.Millisecond
	heavy := a.Grant(0, []int{1}, w)
	light := a.Grant(1, []int{0}, w)
	if heavy != 80*time.Millisecond || light != 20*time.Millisecond {
		t.Errorf("weighted demand split = %v/%v, want 80ms/20ms", heavy, light)
	}
}
