package experiments

import (
	"testing"
	"time"
)

// haIndex keys the sweep's points for direct lookup.
type haKey struct {
	profile string
	mode    string
	shards  int
}

func haIndex(points []haPoint) map[haKey]haPoint {
	byCell := make(map[haKey]haPoint, len(points))
	for _, p := range points {
		byCell[haKey{p.Profile, p.Mode, p.Shards}] = p
	}
	return byCell
}

// assertHAPhysics asserts the ha1 acceptance physics on one sweep's points,
// whatever scale it ran at:
//
//   - fault-free replication is inert: with faults off, repl and repl+hedge
//     serve the identical result sets at the identical latency profile as
//     the unreplicated reference — replication must cost nothing when the
//     chain is healthy;
//   - replication is a hard availability guarantee: under every profile
//     that injects outages, the unreplicated mode loses pages somewhere in
//     the sweep while every replicated cell loses none and hashes equal to
//     the fault-free reference;
//   - protection beats exposure: under every outage profile and at every
//     shard count, replication+hedging has strictly lower p999 and strictly
//     lower SLO-violation rate than no replication;
//   - the machinery actually runs: failover serves pages, hedges fire and
//     sometimes win, health ledgers trip.
func assertHAPhysics(t *testing.T, points []haPoint) {
	t.Helper()
	byCell := haIndex(points)
	if len(byCell) != 4*3*len(haShardCounts) {
		t.Fatalf("sweep produced %d distinct cells, want %d", len(byCell), 4*3*len(haShardCounts))
	}

	for _, n := range haShardCounts {
		ref := byCell[haKey{"off", "none", n}]
		for _, mode := range []string{"repl", "repl+hedge"} {
			p := byCell[haKey{"off", mode, n}]
			if !p.HashMatch || p.Hash != ref.Hash {
				t.Errorf("off/%s S=%d: hash %x != fault-free reference %x", mode, n, p.Hash, ref.Hash)
			}
			if p.P50 != ref.P50 || p.P95 != ref.P95 || p.P999 != ref.P999 {
				t.Errorf("off/%s S=%d: latency (%v %v %v) != reference (%v %v %v) — healthy replication is not free",
					mode, n, p.P50, p.P95, p.P999, ref.P50, ref.P95, ref.P999)
			}
			if p.Lost != 0 || p.FailedOver != 0 || p.Trips != 0 {
				t.Errorf("off/%s S=%d: lost %d, failed over %d, trips %d on a fault-free run",
					mode, n, p.Lost, p.FailedOver, p.Trips)
			}
		}
	}

	for _, prof := range []string{"shard:outage", "shard:flaky"} {
		var noneLost int64
		for _, n := range haShardCounts {
			none := byCell[haKey{prof, "none", n}]
			noneLost += none.Lost
			for _, mode := range []string{"repl", "repl+hedge"} {
				p := byCell[haKey{prof, mode, n}]
				if p.Lost != 0 {
					t.Errorf("%s/%s S=%d: lost %d pages with a replica chain", prof, mode, n, p.Lost)
				}
				if !p.HashMatch {
					t.Errorf("%s/%s S=%d: result sets differ from the fault-free run", prof, mode, n)
				}
				if p.FailedOver == 0 {
					t.Errorf("%s/%s S=%d: no pages failed over; the protection path did not run", prof, mode, n)
				}
			}
			hedged := byCell[haKey{prof, "repl+hedge", n}]
			if hedged.P999 >= none.P999 {
				t.Errorf("%s S=%d: repl+hedge p999 %v not strictly below none's %v", prof, n, hedged.P999, none.P999)
			}
			if hedged.SLORate >= none.SLORate {
				t.Errorf("%s S=%d: repl+hedge SLO rate %.3f not strictly below none's %.3f", prof, n, hedged.SLORate, none.SLORate)
			}
		}
		if noneLost == 0 {
			t.Errorf("%s: unreplicated mode lost nothing anywhere — the profile injects no page loss to protect against", prof)
		}
	}

	for _, n := range haShardCounts {
		for _, mode := range []string{"repl", "repl+hedge"} {
			p := byCell[haKey{"shard:brownout", mode, n}]
			if p.Lost != 0 || !p.HashMatch {
				t.Errorf("shard:brownout/%s S=%d: lost %d, match %v — brownouts must never lose data", mode, n, p.Lost, p.HashMatch)
			}
		}
	}

	var hedgedWindows, hedgeWins, trips int64
	for _, p := range points {
		if p.Mode == "repl+hedge" && p.Profile != "off" {
			hedgedWindows += p.HedgedWindows
			hedgeWins += p.HedgeWins
		}
		if p.Profile != "off" {
			trips += p.Trips
		}
	}
	if hedgedWindows == 0 || hedgeWins == 0 {
		t.Errorf("hedging never fired (windows %d, wins %d) across the fault profiles", hedgedWindows, hedgeWins)
	}
	if trips == 0 {
		t.Error("no health-ledger trips across the fault profiles")
	}
}

// TestHa1Properties asserts the acceptance physics at the golden pin.
func TestHa1Properties(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep skipped in -short mode")
	}
	assertHAPhysics(t, ha1Sweep(NewEnv(goldenOptions())))
}

// TestHa1PropertiesCIScale re-asserts the same physics at a configuration
// the goldens never saw (different scale, seed, sequence count): the
// guarantees are properties of the design, not artifacts of one pin.
func TestHa1PropertiesCIScale(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep skipped in -short mode")
	}
	opt := Options{Scale: 0.004, Sequences: 3, Seed: 11, FaultSeed: 3}
	assertHAPhysics(t, ha1Sweep(NewEnv(opt)))
}

// TestHa1PinnedMode: one cell run directly through runHACell — 2-way
// replication hedged at twice the median, under shard:outage at S=4 —
// loses no page and serves the fault-free reference's result sets.
func TestHa1PinnedMode(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep skipped in -short mode")
	}
	opt := goldenOptions()
	s := NewEnv(opt).Neuro()
	relayout(s.Store, "hilbert")
	seqs := s.genSequences(layoutParams(), opt.sequences(6), opt.Seed)
	ref, _ := runHACell(s, seqs, "off", haMode{name: "none", replicas: 1}, 4, opt.faultSeed())
	p, _ := runHACell(s, seqs, "shard:outage", haMode{name: "repl+hedge", replicas: 2, hedge: 2}, 4, opt.faultSeed())
	if p.Lost != 0 || p.Hash != ref.Hash {
		t.Errorf("replicated cell lost %d pages, hash %x against the reference's %x", p.Lost, p.Hash, ref.Hash)
	}
	if p.FailedOver == 0 {
		t.Error("no pages failed over; the outage never reached the chain")
	}
}

// TestHa1SLOHeadroom: the derived objective is twice the fault-free p95, so
// a clean failover (probe + replica sweep) fits under it while a burned
// read deadline (pagestore.ReadTimeout, 25ms) never does at golden scale.
func TestHa1SLOHeadroom(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep skipped in -short mode")
	}
	for _, p := range ha1Sweep(NewEnv(goldenOptions())) {
		if p.Profile != "off" || p.Mode != "none" {
			continue
		}
		if p.Violations != 0 {
			t.Errorf("S=%d: %d fault-free violations against the 2x-p95 objective", p.Shards, p.Violations)
		}
		if 2*p.P95 >= 25*time.Millisecond {
			t.Errorf("S=%d: objective %v not below the 25ms read deadline — loss would stop violating", p.Shards, 2*p.P95)
		}
	}
}
