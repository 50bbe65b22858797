package engine

import (
	"reflect"
	"testing"
)

// TestArrivalTimesDeterministic: the schedule is a pure function of the
// config and n — identical across calls, distinct across seeds.
func TestArrivalTimesDeterministic(t *testing.T) {
	cfg := ArrivalConfig{Enabled: true, Rate: 50, Seed: 7}
	a := cfg.ArrivalTimes(64)
	b := cfg.ArrivalTimes(64)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same config produced different schedules")
	}
	cfg.Seed = 8
	c := cfg.ArrivalTimes(64)
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical schedules")
	}
}

// TestArrivalTimesPoisson: gaps are strictly positive (so times strictly
// increase) and the empirical mean interarrival is near 1/Rate.
func TestArrivalTimesPoisson(t *testing.T) {
	cfg := ArrivalConfig{Enabled: true, Process: Poisson, Rate: 100, Seed: 7}
	times := cfg.ArrivalTimes(2000)
	for i := 1; i < len(times); i++ {
		if times[i] <= times[i-1] {
			t.Fatalf("arrival %d (%v) not after %d (%v)", i, times[i], i-1, times[i-1])
		}
	}
	mean := times[len(times)-1].Seconds() / float64(len(times))
	if mean < 0.005 || mean > 0.02 { // 1/rate = 10ms
		t.Errorf("mean interarrival %vs, want ~0.01s", mean)
	}
}

// TestArrivalTimesBursty: arrivals land in bursts of burstSize identical
// instants, with the long-run rate preserved.
func TestArrivalTimesBursty(t *testing.T) {
	cfg := ArrivalConfig{Enabled: true, Process: Bursty, Rate: 100, Seed: 7}
	times := cfg.ArrivalTimes(400)
	for i := 0; i < len(times); i += burstSize {
		for k := 1; k < burstSize; k++ {
			if times[i+k] != times[i] {
				t.Fatalf("burst at %d not simultaneous: %v vs %v", i, times[i+k], times[i])
			}
		}
		if i > 0 && times[i] <= times[i-1] {
			t.Fatalf("burst %d did not advance time", i/burstSize)
		}
	}
	mean := times[len(times)-1].Seconds() / float64(len(times))
	if mean < 0.005 || mean > 0.02 {
		t.Errorf("bursty mean interarrival %vs, want ~0.01s", mean)
	}
}

// TestClassSpecWeight: non-positive weights normalize to the neutral 1.
func TestClassSpecWeight(t *testing.T) {
	if w := (ClassSpec{}).weight(); w != 1 {
		t.Errorf("zero-value weight = %v, want 1", w)
	}
	if w := (ClassSpec{Weight: -2}).weight(); w != 1 {
		t.Errorf("negative weight = %v, want 1", w)
	}
	if w := (ClassSpec{Weight: 2.5}).weight(); w != 2.5 {
		t.Errorf("weight = %v, want 2.5", w)
	}
}
