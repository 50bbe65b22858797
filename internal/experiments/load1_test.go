package experiments

import "testing"

// TestLoad1MitigationImprovesSaturatedTail pins load1's acceptance property:
// at every offered load at or above the saturation knee (multiplier >= 1),
// the mitigated configuration (admission + class priorities) must have a
// STRICTLY lower p999 and a strictly lower SLO-violation rate than the
// unmitigated one. Runs at golden scale so the check is deterministic and
// cheap.
func TestLoad1MitigationImprovesSaturatedTail(t *testing.T) {
	env := NewEnv(goldenOptions())
	points, slo, patience, capacity := load1Sweep(env)
	if slo <= 0 || patience <= 0 || capacity <= 0 {
		t.Fatalf("derived parameters must be positive: slo=%v patience=%v capacity=%v", slo, patience, capacity)
	}
	if len(points) != 2*len(load1Multipliers) {
		t.Fatalf("expected %d points, got %d", 2*len(load1Multipliers), len(points))
	}
	for i := 0; i < len(points); i += 2 {
		un, mit := points[i], points[i+1]
		if un.Mitigated || !mit.Mitigated {
			t.Fatalf("point order broken at %d: %+v / %+v", i, un, mit)
		}
		if un.Mult != mit.Mult {
			t.Fatalf("multiplier mismatch at %d: %v vs %v", i, un.Mult, mit.Mult)
		}
		if un.Mult < 1 {
			continue // below the knee: mitigation need not help
		}
		if mit.P999 >= un.P999 {
			t.Errorf("%.1fx: mitigated p999 %v not strictly below unmitigated %v", un.Mult, mit.P999, un.P999)
		}
		if mit.SLORate >= un.SLORate {
			t.Errorf("%.1fx: mitigated SLO rate %.4f not strictly below unmitigated %.4f", un.Mult, mit.SLORate, un.SLORate)
		}
	}
	// The unmitigated sweep must actually show a knee: the saturated tail
	// strictly above the lowest-load tail.
	if points[0].P999 >= points[len(points)-2].P999 {
		t.Errorf("no saturation knee: %.1fx p999 %v >= %.1fx p999 %v",
			points[0].Mult, points[0].P999, points[len(points)-2].Mult, points[len(points)-2].P999)
	}
}
