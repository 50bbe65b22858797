package core

import (
	"testing"

	"scout/internal/geom"
)

// walkOverlapping drives s along chain 0 with heavily overlapping queries
// (step ≪ side), the workload shape the incremental lifecycle exists for.
func walkOverlapping(w *chainWorld, s *Scout, queries int, step, side float64) {
	for i := 0; i < queries; i++ {
		w.observe(s, i, queryAt(30+float64(i)*step, 0, side))
	}
}

func TestScoutAdvancesOnOverlap(t *testing.T) {
	w := newChainWorld(t, 3, 400, 20)
	s := New(w.store, nil, DefaultConfig())
	deltas := 0
	for i := 0; i < 8; i++ {
		w.observe(s, i, queryAt(30+float64(i)*3, 0, 12)) // 75% linear overlap
		st := s.LastStats()
		if i == 0 {
			if st.GraphDelta {
				t.Fatal("first query cannot be a delta build")
			}
			continue
		}
		if st.GraphDelta {
			deltas++
		}
	}
	if deltas < 6 {
		t.Errorf("only %d/7 overlapping queries advanced the graph", deltas)
	}
	// The prediction still follows the chain: with heavily overlapping
	// queries the next query's interior is already cached, so the plan must
	// cover its leading face (the only new ground).
	front := geom.V(30+8*3+6, 0, 0)
	if !planCovers(s.Plan(), front) {
		t.Errorf("incremental plan does not cover next query's leading face %v", front)
	}
}

func TestScoutAdvanceFallsBackOnJump(t *testing.T) {
	w := newChainWorld(t, 3, 400, 50)
	s := New(w.store, nil, DefaultConfig())
	for i := 0; i < 4; i++ {
		w.observe(s, i, queryAt(30+float64(i)*3, 0, 12))
	}
	if !s.LastStats().GraphDelta {
		t.Fatal("overlapping walk did not advance")
	}
	// Jump to chain 2: overlap collapses, the graph must rebuild fresh.
	w.observe(s, 4, queryAt(30, 100, 12))
	if s.LastStats().GraphDelta {
		t.Error("jump to a distant region still advanced the graph")
	}
}

func TestScoutAdvanceFallsBackOnVolumeChange(t *testing.T) {
	w := newChainWorld(t, 1, 400, 10)
	s := New(w.store, nil, DefaultConfig())
	w.observe(s, 0, queryAt(30, 0, 12))
	// Same location, different volume: the implied cell size changes, so the
	// lattice cannot be carried over even though the overlap is total.
	w.observe(s, 1, queryAt(31, 0, 18))
	if s.LastStats().GraphDelta {
		t.Error("volume change still advanced the graph")
	}
}

func TestScoutDisableIncremental(t *testing.T) {
	w := newChainWorld(t, 1, 400, 10)
	cfg := DefaultConfig()
	cfg.DisableIncremental = true
	s := New(w.store, nil, cfg)
	walkOverlapping(w, s, 5, 3, 12)
	if s.LastStats().GraphDelta {
		t.Error("DisableIncremental still produced delta builds")
	}
}

// TestDeltaBuildChargesDeltaCost pins the accounting fix: a steady-state
// delta build must report a fraction of the full build's modeled cost, and
// disabling the incremental lifecycle must restore the
// V·costPerObject+E·costPerEdge calibration (§8.1) exactly.
func TestDeltaBuildChargesDeltaCost(t *testing.T) {
	w := newChainWorld(t, 3, 400, 20)

	full := New(w.store, nil, func() Config {
		c := DefaultConfig()
		c.DisableIncremental = true
		return c
	}())
	inc := New(w.store, nil, DefaultConfig())
	var fullCost, incCost int64
	for i := 0; i < 8; i++ {
		q := queryAt(30+float64(i)*3, 0, 12)
		w.observe(full, i, q)
		w.observe(inc, i, q)
		if i == 0 {
			continue // identical first builds
		}
		fullCost += int64(full.LastStats().GraphBuild)
		incCost += int64(inc.LastStats().GraphBuild)

		fs := full.LastStats()
		wantFull := int64(fs.Vertices)*int64(costPerObject) +
			int64(fs.Edges)*int64(costPerEdge)
		if int64(fs.GraphBuild) != wantFull {
			t.Fatalf("q%d: full build charged %d, want V·costPerObject+E·costPerEdge = %d",
				i, fs.GraphBuild, wantFull)
		}
	}
	if incCost*2 >= fullCost {
		t.Errorf("delta builds charged %d vs full %d — expected less than half on a 75%%-overlap walk",
			incCost, fullCost)
	}
}

func TestScoutOptIncrementalPaths(t *testing.T) {
	// SCOUT-OPT's sparse path rebuilds (the paper's own incremental
	// mechanism); its full-build fallback path shares Scout's Advance. Drive
	// a jumpy walk so the fallback engages, and check stats stay coherent.
	w := newChainWorld(t, 3, 400, 50)
	s := NewOpt(w.flat, nil, DefaultConfig())
	for i := 0; i < 6; i++ {
		w.observe(s, i, queryAt(30+float64(i)*3, 0, 12))
		st := s.LastStats()
		if st.GraphDelta && st.SparsePages > 0 {
			t.Error("sparse build marked as delta advance")
		}
	}
	front := geom.V(30+6*3+6, 0, 0)
	if !planCovers(s.Plan(), front) {
		t.Errorf("plan does not cover next query's leading face %v", front)
	}
}
