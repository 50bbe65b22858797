package pagestore

import (
	"testing"
	"time"
)

// scriptedInjector fails the first `failures[p]` attempts at reading page p
// and injects `slow[p]` of latency, for exercising the retry math without
// importing the real hashing injector (internal/fault depends on this
// package, not the other way around).
type scriptedInjector struct {
	failures map[PageID]int
	slow     map[PageID]time.Duration
}

func (s *scriptedInjector) ReadFailure(p PageID, _ time.Duration, attempt int) bool {
	return attempt < s.failures[p]
}

func (s *scriptedInjector) SlowPage(p PageID, _ time.Duration) time.Duration {
	return s.slow[p]
}

func TestFaultCostRetryMath(t *testing.T) {
	m := DefaultCostModel()

	// Clean read: zero outcome.
	inj := &scriptedInjector{failures: map[PageID]int{}, slow: map[PageID]time.Duration{}}
	if out := m.FaultCost(inj, 1, 0); out != (FaultOutcome{}) {
		t.Errorf("clean read outcome = %+v", out)
	}
	if out := m.FaultCost(nil, 1, 0); out != (FaultOutcome{}) {
		t.Errorf("nil injector outcome = %+v", out)
	}

	// Two transient failures: two retries, each charging a wasted Transfer
	// plus exponentially growing backoff.
	inj.failures[2] = 2
	out := m.FaultCost(inj, 2, 0)
	want := 2*m.Transfer + retryBackoff + 2*retryBackoff
	if out.Retries != 2 || out.TimedOut || out.Extra != want {
		t.Errorf("two-failure outcome = %+v, want retries 2, extra %v", out, want)
	}

	// Failures beyond maxRetries: the read times out and charges exactly
	// the per-read timeout.
	inj.failures[3] = 10
	out = m.FaultCost(inj, 3, 0)
	if !out.TimedOut || out.Extra != ReadTimeout || out.Retries != maxRetries {
		t.Errorf("exhausted outcome = %+v, want timed out at %v after %d retries", out, ReadTimeout, maxRetries)
	}

	// A slow-page spike alone charges the spike.
	inj.slow[4] = 7 * time.Millisecond
	out = m.FaultCost(inj, 4, 0)
	if out.Extra != 7*time.Millisecond || out.Retries != 0 || out.TimedOut {
		t.Errorf("slow-page outcome = %+v", out)
	}

	// Recovery exceeding the timeout is capped at it and counts timed out.
	inj.slow[5] = ReadTimeout + 5*time.Millisecond
	out = m.FaultCost(inj, 5, 0)
	if !out.TimedOut || out.Extra != ReadTimeout {
		t.Errorf("capped outcome = %+v, want timeout charge %v", out, ReadTimeout)
	}
}

// TestDiskFaultCharging: an armed disk must charge recoveries to the
// virtual clock and the stats ledger on both the per-page and the batched
// elevator path; a disarmed disk must be byte-identical to the seed.
func TestDiskFaultCharging(t *testing.T) {
	store := NewStore(makeObjects(870))
	if err := store.Paginate(identityOrder(870), 87); err != nil {
		t.Fatal(err)
	}
	pages := make([]PageID, store.NumPages())
	for i := range pages {
		pages[i] = PageID(i)
	}

	clean := NewDisk(store, DefaultCostModel())
	cleanCost := clean.ReadPages(pages)

	inj := &scriptedInjector{
		failures: map[PageID]int{1: 2, 3: 99},
		slow:     map[PageID]time.Duration{5: 4 * time.Millisecond},
	}
	var delay time.Duration // every page is read once, on either path
	for _, p := range pages {
		delay += DefaultCostModel().FaultCost(inj, p, 0).Extra
	}

	armed := NewDisk(store, DefaultCostModel())
	armed.SetFaults(inj)
	armedCost := armed.ReadPages(pages)
	st := armed.Stats()
	if st.FaultRetries != 2+maxRetries || st.TimedOutReads != 1 {
		t.Errorf("per-page stats = %+v, want %d retries, 1 timeout", st, 2+maxRetries)
	}
	if delay <= 0 || armedCost != cleanCost+delay {
		t.Errorf("per-page cost %v != clean %v + fault delay %v", armedCost, cleanCost, delay)
	}

	batched := NewDisk(store, DefaultCostModel())
	batched.SetFaults(inj)
	batchClean := NewDisk(store, DefaultCostModel())
	cleanBatch := batchClean.ReadBatch(pages)
	armedBatch := batched.ReadBatch(pages)
	bst := batched.Stats()
	if bst.FaultRetries != 2+maxRetries || bst.TimedOutReads != 1 {
		t.Errorf("batched stats = %+v, want %d retries, 1 timeout", bst, 2+maxRetries)
	}
	if armedBatch != cleanBatch+delay {
		t.Errorf("batched cost %v != clean %v + fault delay %v", armedBatch, cleanBatch, delay)
	}

	// Disarm: back to the seed's exact charges.
	armed.SetFaults(nil)
	armed.ResetStats()
	armed.ResetHead()
	if got := armed.ReadPages(pages); got != cleanCost {
		t.Errorf("disarmed cost %v != clean %v", got, cleanCost)
	}
	if st := armed.Stats(); st.FaultRetries != 0 || st.TimedOutReads != 0 {
		t.Errorf("disarmed stats carry fault counters: %+v", st)
	}
}
