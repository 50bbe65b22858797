package pagestore

import (
	"errors"
	"math/rand"
	"sync"
	"testing"
	"time"
)

// TestDiskStreamsKeepIndependentHeads: each stream of a shared disk tracks
// its own head — a sequential run on stream 0 keeps its no-seek discount
// across an interleaved read on stream 1, and ResetHead forgets only the
// current stream's position.
func TestDiskStreamsKeepIndependentHeads(t *testing.T) {
	s := paginatedStore(t, 2000, 8)
	m := CostModel{Seek: 10 * time.Millisecond, Transfer: time.Millisecond}
	d := NewSharedDisk(s, m, 2, 0)

	d.At(0, 0, 0)
	if got, want := d.ReadPage(10), m.Seek+m.Transfer; got != want {
		t.Fatalf("stream 0 first read = %v, want %v", got, want)
	}
	d.At(1, 0, 0)
	if got, want := d.ReadPage(100), m.Seek+m.Transfer; got != want {
		t.Fatalf("stream 1 first read = %v, want %v", got, want)
	}
	d.At(0, 0, 0)
	if got := d.ReadPage(11); got != m.Transfer {
		t.Errorf("stream 0 lost its run to stream 1's read: page 11 cost %v, want %v", got, m.Transfer)
	}
	d.At(1, 0, 0)
	if got := d.ReadSorted([]PageID{101, 102}); got != 2*m.Transfer {
		t.Errorf("stream 1 lost its run to stream 0's read: sweep cost %v, want %v", got, 2*m.Transfer)
	}

	// ResetHead on stream 1 leaves stream 0's head where it was.
	d.ResetHead()
	if got, want := d.ReadPage(103), m.Seek+m.Transfer; got != want {
		t.Errorf("stream 1 after ResetHead: page 103 cost %v, want %v", got, want)
	}
	d.At(0, 0, 0)
	if got := d.ReadPage(12); got != m.Transfer {
		t.Errorf("ResetHead on stream 1 moved stream 0's head: page 12 cost %v, want %v", got, m.Transfer)
	}
	if total := d.Interference(); total != 0 {
		t.Errorf("interference charged with no contenders and no penalty: %v", total)
	}
}

// TestDiskInterference: every seek pays contenders × penalty on top of the
// model's Seek, on the per-page and the sweep path alike; zero contenders pay
// nothing; the penalty lands in Interference() and in SimulatedIO.
func TestDiskInterference(t *testing.T) {
	s := paginatedStore(t, 4000, 8)
	m := DefaultCostModel()
	const penalty = 300 * time.Microsecond
	d := NewSharedDisk(s, m, 4, penalty)

	// No contenders: exactly the plain charge.
	d.At(2, 0, 0)
	if got, want := d.ReadPage(7), m.Seek+m.Transfer; got != want {
		t.Fatalf("uncontended read = %v, want %v", got, want)
	}
	if total := d.Interference(); total != 0 {
		t.Fatalf("uncontended read charged interference: %v", total)
	}

	// Per-page path: one seek, three contenders; the sequential follow-up
	// seeks nothing and pays nothing.
	d.At(2, 3, 0)
	if got, want := d.ReadPage(50), m.Seek+m.Transfer+3*penalty; got != want {
		t.Errorf("contended ReadPage = %v, want %v", got, want)
	}
	if got := d.ReadPage(51); got != m.Transfer {
		t.Errorf("contended sequential ReadPage = %v, want %v", got, m.Transfer)
	}

	// Sweep path: pages 200,201 | 400 | 600 are three runs (the gaps exceed
	// MaxBridge), so three seeks × two contenders.
	d.At(1, 2, 0)
	sweep := []PageID{200, 201, 400, 600}
	if got, want := d.ReadSorted(sweep), 3*m.Seek+4*m.Transfer+3*2*penalty; got != want {
		t.Errorf("contended ReadSorted = %v, want %v", got, want)
	}

	total := d.Interference()
	if want := 3*penalty + 6*penalty; total != want {
		t.Errorf("Interference() = %v, want %v", total, want)
	}
	st := d.Stats()
	if want := 5*m.Seek + 7*m.Transfer + total; st.SimulatedIO != want || st.Seeks != 5 {
		t.Errorf("stats = %d seeks, %v simulated; want 5, %v", st.Seeks, st.SimulatedIO, want)
	}
}

// clockInjector injects nothing and records the virtual time of every roll.
type clockInjector struct{ nows []time.Duration }

func (c *clockInjector) ReadFailure(PageID, time.Duration, int) bool { return false }

func (c *clockInjector) SlowPage(_ PageID, now time.Duration) time.Duration {
	c.nows = append(c.nows, now)
	return 0
}

// TestDiskFaultClock: a disk that is never At-ed rolls faults at its own
// accumulated SimulatedIO, advancing page by page; after At the caller's
// virtual time replaces it, constant across the reads of that context.
func TestDiskFaultClock(t *testing.T) {
	s := paginatedStore(t, 2000, 8)
	m := DefaultCostModel()

	solo := &clockInjector{}
	d := NewDisk(s, m)
	d.SetFaults(solo)
	d.ReadPages([]PageID{5, 6, 900})
	want := []time.Duration{0, m.Seek + m.Transfer, m.Seek + 2*m.Transfer}
	if len(solo.nows) != len(want) {
		t.Fatalf("un-At-ed disk rolled %d times, want %d", len(solo.nows), len(want))
	}
	for i := range want {
		if solo.nows[i] != want[i] {
			t.Errorf("un-At-ed roll %d at %v, want the disk's SimulatedIO %v", i, solo.nows[i], want[i])
		}
	}

	served := &clockInjector{}
	d = NewSharedDisk(s, m, 2, 0)
	d.SetFaults(served)
	const now = 42 * time.Millisecond
	d.At(1, 0, now)
	d.ReadPages([]PageID{5, 6, 900})
	d.ReadBatch([]PageID{30, 31})
	if len(served.nows) != 5 {
		t.Fatalf("At-ed disk rolled %d times, want 5", len(served.nows))
	}
	for i, got := range served.nows {
		if got != now {
			t.Errorf("At-ed roll %d at %v, want the caller's %v", i, got, now)
		}
	}
}

// TestDiskSharedSingleStreamMatchesNewDisk: a one-stream shared disk with no
// interference, driven through At with no contenders and no injector, prices
// random page sets exactly like NewDisk on every read path, under the
// insertion and the hilbert layout.
func TestDiskSharedSingleStreamMatchesNewDisk(t *testing.T) {
	s := paginatedStore(t, 4000, 8)
	defer func() {
		if err := s.Relayout(InsertionLayout()); err != nil {
			t.Fatal(err)
		}
	}()
	m := DefaultCostModel()
	rng := rand.New(rand.NewSource(19))
	for _, l := range []Layout{InsertionLayout(), HilbertLayout()} {
		if err := s.Relayout(l); err != nil {
			t.Fatal(err)
		}
		a, b := NewDisk(s, m), NewSharedDisk(s, m, 1, 0)
		for trial := 0; trial < 60; trial++ {
			pages := make([]PageID, 1+rng.Intn(40))
			for i := range pages {
				pages[i] = PageID(rng.Intn(s.NumPages()))
			}
			b.At(0, 0, time.Duration(trial)*time.Millisecond)
			if trial%4 == 0 {
				a.ResetHead()
				b.ResetHead()
			}
			var ca, cb time.Duration
			switch trial % 3 {
			case 0:
				ca, cb = a.ReadPages(pages), b.ReadPages(pages)
			case 1:
				ca, cb = a.ReadBatch(pages), b.ReadBatch(pages)
			default:
				ca, cb = a.ReadPage(pages[0]), b.ReadPage(pages[0])
			}
			if ca != cb {
				t.Fatalf("layout %s trial %d: NewDisk %v != NewSharedDisk %v", l.Name(), trial, ca, cb)
			}
		}
		if a.Stats() != b.Stats() {
			t.Fatalf("layout %s: stats diverged:\n %+v\n %+v", l.Name(), a.Stats(), b.Stats())
		}
		if total := b.Interference(); total != 0 {
			t.Fatalf("layout %s: single stream charged interference: %v", l.Name(), total)
		}
	}
}

// TestReadSortedBackedMatchesPerPageReads: a backed sweep reads run by run,
// and everything it leaves behind — the sweep's cost, the corruption
// counters and their price, the order of the error ledger, the file's own counters
// — is what one ReadBacked per page leaves on a twin file: three damaged
// pages at the start, middle and end of a ten-page run plus one in a run of
// its own, unrepairable under verify and repaired exactly once under repair.
func TestReadSortedBackedMatchesPerPageReads(t *testing.T) {
	sweep := []PageID{10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 40, 41, 90}
	dmg := &testDamage{flip: map[PageID]int{10: 5, 14: 999, 19: 30000}, tear: map[PageID]bool{90: true}}
	for _, c := range []struct {
		cfg               FileStoreConfig
		repaired, ledger  int
		perCorruptVirtual func(CostModel) time.Duration
	}{
		{FileStoreConfig{Mode: ChecksumVerify}, 0, 4, func(m CostModel) time.Duration { return m.CorruptionCost(false) }},
		{FileStoreConfig{Mode: ChecksumRepair, Replica: true}, 4, 0, func(m CostModel) time.Duration { return m.CorruptionCost(true) }},
	} {
		t.Run(c.cfg.Mode.String(), func(t *testing.T) {
			s := paginatedStore(t, 800, 8)
			m := DefaultCostModel()
			disks := [2]*Disk{NewDisk(s, m), NewDisk(s, m)}
			files := [2]*FileStore{newFileStore(t, s, c.cfg), newFileStore(t, s, c.cfg)}
			for i, fs := range files {
				if _, _, err := fs.ApplyCorruption(dmg); err != nil {
					t.Fatal(err)
				}
				disks[i].SetBacking(fs)
			}
			// The same sweep twice: the second meets what the first left.
			var gotSum, pricedSum time.Duration
			for pass := 0; pass < 2; pass++ {
				got := disks[0].ReadSorted(sweep)
				// The reference: the sweep priced unbacked, plus one ReadBacked
				// per page in sweep order.
				ref := disks[1]
				ref.backing = nil
				want := ref.ReadSorted(sweep)
				gotSum, pricedSum = gotSum+got, pricedSum+want
				ref.backing = files[1]
				for _, p := range sweep {
					extra := ReadBacked(files[1], m, p, &ref.stats, ref.backBuf, &ref.errs)
					ref.stats.SimulatedIO += extra
					want += extra
				}
				if got != want {
					t.Fatalf("pass %d: sweep cost %v by runs, %v page by page", pass, got, want)
				}
			}
			a, b := disks[0].Stats(), disks[1].Stats()
			if a.WallRead <= 0 {
				t.Error("run reads recorded no wall time")
			}
			a.WallRead, b.WallRead = 0, 0
			if a != b {
				t.Fatalf("disk stats diverged:\n by run  %+v\n by page %+v", a, b)
			}
			if files[0].Stats() != files[1].Stats() {
				t.Fatalf("file stats diverged:\n by run  %+v\n by page %+v", files[0].Stats(), files[1].Stats())
			}
			// Pinned: under verify the four pages fail on both passes; under
			// repair they are healed on the first and clean on the second.
			events := int64(4)
			if c.ledger > 0 {
				events = 8
			}
			if a.CorruptPages != events || a.RepairedPages != int64(c.repaired) || a.PagesRead != 26 {
				t.Errorf("stats = %+v, want %d corrupt, %d repaired, 26 pages", a, events, c.repaired)
			}
			if delay, want := gotSum-pricedSum, time.Duration(events)*c.perCorruptVirtual(m); delay != want {
				t.Errorf("corruption charged %v over the unbacked sweeps, want %v", delay, want)
			}
			if st := files[0].Stats(); st.CorruptDetected != events || st.Repaired != int64(c.repaired) {
				t.Errorf("file stats = %+v, want %d detected, %d repaired", st, events, c.repaired)
			}
			errs := disks[0].Errs()
			if len(errs) != 2*c.ledger {
				t.Fatalf("error ledger holds %d entries, want %d", len(errs), 2*c.ledger)
			}
			for i, err := range errs {
				var cpe *CorruptPageError
				if want := []PageID{10, 14, 19, 90}[i%4]; !errors.As(err, &cpe) || cpe.Page != want {
					t.Errorf("ledger entry %d = %v, want *CorruptPageError for page %d", i, err, want)
				}
			}
		})
	}
}

// TestDiskBackedRaceHammer (run it under -race): four disks over ONE
// FileStore — the sharded engines' arrangement — sweep and scrub a damaged
// file concurrently. Repairs serialize inside the store, so whichever disk
// meets a rotten page first heals it and nobody heals it twice: the file
// ends intact with exactly one repair per damaged page, fleet-wide.
func TestDiskBackedRaceHammer(t *testing.T) {
	s := paginatedStore(t, 4000, 8)
	if err := s.Relayout(HilbertLayout()); err != nil {
		t.Fatal(err)
	}
	n := s.NumPages()
	fs := newFileStore(t, s, FileStoreConfig{Mode: ChecksumRepair, Replica: true})
	dmg := &testDamage{flip: map[PageID]int{}, tear: map[PageID]bool{}}
	for p := 0; p < n; p += 3 {
		dmg.flip[PageID(p)] = 11 * p
	}
	for p := 1; p < n; p += 10 {
		dmg.tear[PageID(p)] = true
	}
	flipped, torn, err := fs.ApplyCorruption(dmg)
	if err != nil {
		t.Fatal(err)
	}
	damaged := int64(flipped + torn)

	const workers = 4
	steps := (n+scrubStretch-1)/scrubStretch/workers + 1 // together: more than one scrub cycle
	disks := make([]*Disk, workers)
	var wg sync.WaitGroup
	for w := range disks {
		disks[w] = NewDisk(s, DefaultCostModel())
		disks[w].SetBacking(fs)
		wg.Add(1)
		go func(d *Disk, seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < steps; i++ {
				d.ReadBatch(elevatorList(rng, s, 120))
				d.ScrubStep(scrubStretch)
			}
		}(disks[w], int64(w))
	}
	wg.Wait()

	if err := fs.VerifyAgainst(s); err != nil {
		t.Fatal(err)
	}
	if st := fs.Stats(); st.Repaired != damaged || st.CorruptDetected != damaged {
		t.Errorf("file stats = %+v, want %d detected and repaired", st, damaged)
	}
	var fleet DiskStats
	for _, d := range disks {
		if len(d.Errs()) != 0 {
			t.Errorf("a disk surfaced read errors: %v", d.Errs())
		}
		fleet.Add(d.Stats())
	}
	if fleet.RepairedPages != damaged {
		t.Errorf("the fleet repaired %d pages, want %d (one repair per damaged page)", fleet.RepairedPages, damaged)
	}
}
