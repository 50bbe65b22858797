package core

import (
	"testing"
	"time"
)

func TestSessionStatsRecord(t *testing.T) {
	var ss SessionStats
	ss.record(QueryStats{GraphDelta: false, GraphBuild: time.Millisecond, Prediction: time.Microsecond, GapPages: 3})
	ss.record(QueryStats{GraphDelta: true, GraphBuild: time.Millisecond})
	ss.record(QueryStats{GraphDelta: true})
	if ss.Queries != 3 || ss.FullBuilds != 1 || ss.DeltaBuilds != 2 {
		t.Errorf("ledger = %+v", ss)
	}
	if got := ss.DeltaShare(); got != 2.0/3.0 {
		t.Errorf("DeltaShare = %v", got)
	}
	if got := (SessionStats{}).DeltaShare(); got != 0 {
		t.Errorf("empty DeltaShare = %v", got)
	}
}

// TestSessionStatsSurviveReset pins the session-vs-sequence boundary: Reset
// (the between-sequence boundary) must keep the session ledger, while
// ClearSession zeroes it.
func TestSessionStatsSurviveReset(t *testing.T) {
	w := newChainWorld(t, 3, 200, 20)
	s := New(w.store, nil, DefaultConfig())
	obs := []int{0, 1, 2, 3, 4, 5}
	for _, i := range obs {
		w.observe(s, i, queryAt(10+float64(i)*8, 0, 10))
	}
	n := s.Session().Queries
	if n != int64(len(obs)) {
		t.Fatalf("session queries = %d, want %d", n, len(obs))
	}
	s.Reset()
	if got := s.Session().Queries; got != n {
		t.Errorf("Reset cleared the session ledger: %d -> %d", n, got)
	}
	for _, i := range obs {
		w.observe(s, i, queryAt(10+float64(i)*8, 0, 10))
	}
	if got := s.Session().Queries; got != 2*n {
		t.Errorf("second sequence did not accumulate: %d, want %d", got, 2*n)
	}
	s.ClearSession()
	if got := s.Session(); got != (SessionStats{}) {
		t.Errorf("ClearSession left %+v", got)
	}
	// A clone starts a fresh ledger.
	w.observe(s, 0, queryAt(10, 0, 10))
	clone := s.Clone().(*Scout)
	if got := clone.Session(); got != (SessionStats{}) {
		t.Errorf("clone inherited session ledger %+v", got)
	}
}
