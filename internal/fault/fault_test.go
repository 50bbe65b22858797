package fault

import (
	"testing"
	"time"

	"scout/internal/pagestore"
)

func TestZeroPlanInjectsNothing(t *testing.T) {
	in := New(Plan{})
	if in.Plan().Enabled() {
		t.Fatal("zero plan reports Enabled")
	}
	for p := pagestore.PageID(0); p < 1000; p++ {
		now := time.Duration(p) * time.Millisecond
		if in.ReadFailure(p, now, 0) || in.SlowPage(p, now) != 0 ||
			in.ShardStall(int(p%16), now) != 0 || in.BudgetStarved(now) {
			t.Fatalf("zero plan injected a fault at page %d", p)
		}
	}
}

func TestNilInjectorInjectsNothing(t *testing.T) {
	var in *Injector
	if in.ReadFailure(3, time.Second, 0) || in.SlowPage(3, time.Second) != 0 ||
		in.ShardStall(1, time.Second) != 0 || in.BudgetStarved(time.Second) {
		t.Fatal("nil injector injected a fault")
	}
}

// TestDeterministicAcrossInjectors: two injectors over the same plan must
// agree on every decision — fault schedules are pure functions of
// (seed, pageID, virtual time).
func TestDeterministicAcrossInjectors(t *testing.T) {
	plan, err := ParseProfile("moderate", 42)
	if err != nil {
		t.Fatal(err)
	}
	a, b := New(plan), New(plan)
	for p := pagestore.PageID(0); p < 2000; p++ {
		now := time.Duration(p) * 317 * time.Microsecond
		for attempt := 0; attempt < 3; attempt++ {
			if a.ReadFailure(p, now, attempt) != b.ReadFailure(p, now, attempt) {
				t.Fatalf("ReadFailure(%d, %v, %d) disagrees", p, now, attempt)
			}
		}
		if a.SlowPage(p, now) != b.SlowPage(p, now) {
			t.Fatalf("SlowPage(%d, %v) disagrees", p, now)
		}
		if a.ShardStall(int(p%8), now) != b.ShardStall(int(p%8), now) {
			t.Fatalf("ShardStall(%d, %v) disagrees", p%8, now)
		}
		if a.BudgetStarved(now) != b.BudgetStarved(now) {
			t.Fatalf("BudgetStarved(%v) disagrees", now)
		}
	}
}

// TestSeedChangesSchedule: different seeds must produce different fault
// schedules at the same rates.
func TestSeedChangesSchedule(t *testing.T) {
	p1, _ := ParseProfile("heavy", 1)
	p2, _ := ParseProfile("heavy", 2)
	a, b := New(p1), New(p2)
	diff := 0
	for p := pagestore.PageID(0); p < 4000; p++ {
		if a.ReadFailure(p, 0, 0) != b.ReadFailure(p, 0, 0) {
			diff++
		}
	}
	if diff == 0 {
		t.Fatal("seeds 1 and 2 produced identical read-failure schedules")
	}
}

// TestRatesApproximatelyHonored: the hashed decision stream must hit close
// to the configured rate over many draws (wide tolerance — this guards
// against inverted or saturated comparisons, not distribution quality).
func TestRatesApproximatelyHonored(t *testing.T) {
	const rate = 0.25
	in := New(Plan{Seed: 7, ReadErrorRate: rate})
	const n = 20000
	hits := 0
	for p := pagestore.PageID(0); p < n; p++ {
		if in.ReadFailure(p, 0, 0) {
			hits++
		}
	}
	got := float64(hits) / n
	if got < rate/2 || got > rate*2 {
		t.Fatalf("rate %.2f produced hit fraction %.3f", rate, got)
	}
}

// TestStallEpisodesSpanWindows: a stalled (window, shard) pair must stall
// every access inside its window and re-roll in the next one.
func TestStallEpisodesSpanWindows(t *testing.T) {
	plan := Plan{Seed: 7, StallPeriod: 10 * time.Millisecond, StallRate: 0.5, StallPenalty: time.Millisecond}
	in := New(plan)
	changed := false
	for w := 0; w < 64; w++ {
		base := time.Duration(w) * plan.StallPeriod
		first := in.ShardStall(3, base)
		for off := time.Duration(0); off < plan.StallPeriod; off += plan.StallPeriod / 4 {
			if got := in.ShardStall(3, base+off); got != first {
				t.Fatalf("window %d: stall flipped mid-window at offset %v", w, off)
			}
		}
		if w > 0 && first != in.ShardStall(3, base-plan.StallPeriod) {
			changed = true
		}
	}
	if !changed {
		t.Fatal("stall decision never changed across 64 windows at rate 0.5")
	}
}

func TestParseProfile(t *testing.T) {
	for _, name := range Profiles() {
		plan, err := ParseProfile(name, 7)
		if err != nil {
			t.Fatalf("ParseProfile(%q): %v", name, err)
		}
		if name == "off" && plan.Enabled() {
			t.Error("off profile is enabled")
		}
		if name != "off" && !plan.Enabled() {
			t.Errorf("%s profile is not enabled", name)
		}
		if name != "off" && plan.Seed != 7 {
			t.Errorf("%s profile dropped the seed", name)
		}
	}
	// Rejection cases: a typo and the empty string must both be loud usage
	// errors — never a silent fall-back to the default profile. Callers that
	// want a default pick one before parsing.
	for _, bad := range []string{"", "bogus", "OFF", "Light", "catastrophic"} {
		if plan, err := ParseProfile(bad, 7); err == nil {
			t.Errorf("ParseProfile(%q) accepted: %+v", bad, plan)
		}
	}
}

// TestProfilesEscalate: each named profile must inject strictly more read
// errors than the previous one, so the rob1 sweep is a real escalation.
func TestProfilesEscalate(t *testing.T) {
	var prev float64 = -1
	for _, name := range Profiles() {
		plan, _ := ParseProfile(name, 7)
		if plan.ReadErrorRate <= prev {
			t.Fatalf("%s read-error rate %.3f does not exceed previous %.3f", name, plan.ReadErrorRate, prev)
		}
		prev = plan.ReadErrorRate
	}
}
