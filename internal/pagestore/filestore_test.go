package pagestore

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// testDamage is a scripted StorageFaultInjector: flip maps damaged pages to
// the bit index to flip, tear lists torn pages. (internal/fault depends on
// this package, so the real hashing injector cannot be imported here.)
type testDamage struct {
	flip map[PageID]int
	tear map[PageID]bool
}

func (d *testDamage) PageCorrupt(p PageID) bool { _, ok := d.flip[p]; return ok }
func (d *testDamage) CorruptBit(p PageID) int   { return d.flip[p] }
func (d *testDamage) TornWrite(p PageID) bool   { return d.tear[p] }

// crashAt kills a relayout at exactly one enumerated crash point.
type crashAt int

func (c crashAt) CrashAt(step int) bool { return int(c) == step }

// newFileStore creates a FileStore for a fresh paginated store in a test
// temp dir.
func newFileStore(t *testing.T, s *Store, cfg FileStoreConfig) *FileStore {
	t.Helper()
	fs, err := CreateFileStore(filepath.Join(t.TempDir(), "test.pages"), s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fs.Close() })
	return fs
}

// TestFileStoreRoundTrip: create → every page decodes to exactly the store's
// objects → reopen from the bytes alone → still verifies.
func TestFileStoreRoundTrip(t *testing.T) {
	s := paginatedStore(t, 500, 8)
	fs := newFileStore(t, s, FileStoreConfig{Mode: ChecksumVerify})
	if sb, err := readSuperAt(fs.f); err != nil || fs.gen != 1 || fs.n != s.NumPages() || sb.layout != "insertion" {
		t.Fatalf("fresh store gen=%d n=%d layout=%q (%v)", fs.gen, fs.n, sb.layout, err)
	}
	if err := fs.VerifyAgainst(s); err != nil {
		t.Fatal(err)
	}
	for p := 0; p < s.NumPages(); p++ {
		objs, err := fs.DecodePage(PageID(p))
		if err != nil {
			t.Fatal(err)
		}
		want := s.PageObjects(PageID(p))
		if len(objs) != len(want) {
			t.Fatalf("page %d decoded %d objects, store has %d", p, len(objs), len(want))
		}
		for i, id := range want {
			if objs[i] != s.Object(id) {
				t.Fatalf("page %d object %d = %+v, want %+v", p, i, objs[i], s.Object(id))
			}
		}
	}
	path := fs.path
	fs.Close()
	re, err := OpenFileStore(path, FileStoreConfig{Mode: ChecksumVerify})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.gen != 1 || re.n != s.NumPages() {
		t.Fatalf("reopened gen=%d n=%d", re.gen, re.n)
	}
	if err := re.VerifyAgainst(s); err != nil {
		t.Fatal(err)
	}
}

func TestCreateFileStoreRequiresPaginated(t *testing.T) {
	s := NewStore(makeObjects(10))
	if _, err := CreateFileStore(filepath.Join(t.TempDir(), "x.pages"), s, FileStoreConfig{}); err == nil {
		t.Fatal("unpaginated store accepted")
	}
}

// TestCreateFileStoreRefusesOversizedPages: more 64-byte records per page
// than a 4 KB frame holds is an error, not an out-of-range panic while
// encoding.
func TestCreateFileStoreRefusesOversizedPages(t *testing.T) {
	s := paginatedStore(t, 200, frameBytes/objBytes+1)
	if _, err := CreateFileStore(filepath.Join(t.TempDir(), "x.pages"), s, FileStoreConfig{}); err == nil {
		t.Fatal("65 objects per page accepted")
	}
}

func TestOpenFileStoreMissing(t *testing.T) {
	if _, err := OpenFileStore(filepath.Join(t.TempDir(), "nope.pages"), FileStoreConfig{}); err == nil {
		t.Fatal("missing file opened")
	}
}

// TestChecksumDetection: a flipped bit and a torn write both surface as a
// typed *CorruptPageError under ChecksumVerify, with the counters attributing
// every event.
func TestChecksumDetection(t *testing.T) {
	s := paginatedStore(t, 400, 8)
	fs := newFileStore(t, s, FileStoreConfig{Mode: ChecksumVerify})
	dmg := &testDamage{flip: map[PageID]int{3: 12345}, tear: map[PageID]bool{7: true}}
	flipped, torn, err := fs.ApplyCorruption(dmg)
	if err != nil || flipped != 1 || torn != 1 {
		t.Fatalf("ApplyCorruption = (%d, %d, %v), want (1, 1, nil)", flipped, torn, err)
	}
	for _, p := range []PageID{3, 7} {
		if !fs.known[p] {
			t.Errorf("page %d missing from the ground-truth ledger", p)
		}
		_, repaired, err := fs.ReadPage(p, nil)
		var cpe *CorruptPageError
		if !errors.As(err, &cpe) || repaired {
			t.Fatalf("page %d read = (repaired=%v, %v), want *CorruptPageError", p, repaired, err)
		}
		if cpe.Page != p {
			t.Errorf("error names page %d, want %d", cpe.Page, p)
		}
	}
	// A clean page still reads fine.
	if _, _, err := fs.ReadPage(0, nil); err != nil {
		t.Fatal(err)
	}
	st := fs.Stats()
	if st.CorruptDetected != 2 || st.Repaired != 0 {
		t.Errorf("stats = %+v, want 2 detected, 0 repaired", st)
	}
	if err := fs.VerifyAgainst(s); err == nil {
		t.Error("VerifyAgainst passed a damaged file")
	}
}

// TestReplicaRepair: under ChecksumRepair with a replica, a rotten page is
// healed in place on first read — the second read is clean, and the whole
// file verifies afterwards.
func TestReplicaRepair(t *testing.T) {
	s := paginatedStore(t, 400, 8)
	fs := newFileStore(t, s, FileStoreConfig{Mode: ChecksumRepair, Replica: true})
	dmg := &testDamage{flip: map[PageID]int{5: 99}, tear: map[PageID]bool{11: true}}
	if _, _, err := fs.ApplyCorruption(dmg); err != nil {
		t.Fatal(err)
	}
	for _, p := range []PageID{5, 11} {
		payload, repaired, err := fs.ReadPage(p, nil)
		if err != nil || !repaired {
			t.Fatalf("page %d first read = (repaired=%v, %v), want in-place repair", p, repaired, err)
		}
		if len(payload) != len(s.PageObjects(p))*objBytes {
			t.Fatalf("page %d repaired payload %d bytes", p, len(payload))
		}
		if _, again, err := fs.ReadPage(p, nil); err != nil || again {
			t.Fatalf("page %d second read = (repaired=%v, %v), want clean", p, again, err)
		}
	}
	st := fs.Stats()
	if st.CorruptDetected != 2 || st.Repaired != 2 {
		t.Errorf("stats = %+v, want 2 detected, 2 repaired", st)
	}
	if err := fs.VerifyAgainst(s); err != nil {
		t.Fatal(err)
	}
}

// TestRepairWithoutReplica: ChecksumRepair with no replica detects but
// cannot heal — the typed error surfaces and nothing counts as repaired.
func TestRepairWithoutReplica(t *testing.T) {
	s := paginatedStore(t, 200, 8)
	fs := newFileStore(t, s, FileStoreConfig{Mode: ChecksumRepair})
	if _, _, err := fs.ApplyCorruption(&testDamage{flip: map[PageID]int{2: 7}}); err != nil {
		t.Fatal(err)
	}
	_, _, err := fs.ReadPage(2, nil)
	var cpe *CorruptPageError
	if !errors.As(err, &cpe) {
		t.Fatalf("read = %v, want *CorruptPageError", err)
	}
	if st := fs.Stats(); st.CorruptDetected != 1 || st.Repaired != 0 {
		t.Errorf("stats = %+v, want 1 detected, 0 repaired", st)
	}
}

// TestSilentWithoutChecksums: with checksums off a damaged page is served
// without error — only the ground-truth ledger knows.
func TestSilentWithoutChecksums(t *testing.T) {
	s := paginatedStore(t, 200, 8)
	fs := newFileStore(t, s, FileStoreConfig{Mode: ChecksumOff})
	if _, _, err := fs.ApplyCorruption(&testDamage{flip: map[PageID]int{4: 20000}}); err != nil {
		t.Fatal(err)
	}
	if _, repaired, err := fs.ReadPage(4, nil); err != nil || repaired {
		t.Fatalf("checksum-off read = (repaired=%v, %v), want silent success", repaired, err)
	}
	st := fs.Stats()
	if st.SilentCorruptReads != 1 || st.CorruptDetected != 0 {
		t.Errorf("stats = %+v, want 1 silent read, 0 detected", st)
	}
	// Scrub has nothing to verify without checksums.
	if rep := fs.Scrub(100); rep != (ScrubReport{}) {
		t.Errorf("checksum-off scrub = %+v, want zero work", rep)
	}
}

// TestLayoutRoundTripOnDisk: the on-disk relayout property test — for every
// layout, FileStore.Relayout rewrites the file into the new physical order
// and the file still decodes to exactly the store's pages (identical result
// sets), both live and after a reopen.
func TestLayoutRoundTripOnDisk(t *testing.T) {
	for _, l := range []Layout{HilbertLayout(), STRLayout(), InsertionLayout()} {
		t.Run(l.Name(), func(t *testing.T) {
			s := paginatedStore(t, 600, 8)
			fs := newFileStore(t, s, FileStoreConfig{Mode: ChecksumRepair, Replica: true})
			if err := fs.Relayout(s, l, nil); err != nil {
				t.Fatal(err)
			}
			if sb, err := readSuperAt(fs.f); err != nil || fs.gen != 2 || sb.layout != l.Name() || s.LayoutName() != l.Name() {
				t.Fatalf("after relayout gen=%d file layout=%q store layout=%q (%v)",
					fs.gen, sb.layout, s.LayoutName(), err)
			}
			if err := fs.VerifyAgainst(s); err != nil {
				t.Fatal(err)
			}
			// Round-trip back to insertion order: generation 3, still verifies.
			if err := fs.Relayout(s, InsertionLayout(), nil); err != nil {
				t.Fatal(err)
			}
			if err := fs.VerifyAgainst(s); err != nil {
				t.Fatal(err)
			}
			path := fs.path
			fs.Close()
			re, err := OpenFileStore(path, FileStoreConfig{Mode: ChecksumRepair, Replica: true})
			if err != nil {
				t.Fatal(err)
			}
			defer re.Close()
			if re.gen != 3 {
				t.Fatalf("reopened generation %d, want 3", re.gen)
			}
			if err := re.VerifyAgainst(s); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestRelayoutCrashMatrix kills a relayout at EVERY enumerated crash point
// and proves reopening the path always recovers a fully valid store — old or
// new generation, identical result sets — with and without a replica.
func TestRelayoutCrashMatrix(t *testing.T) {
	for _, replica := range []bool{true, false} {
		name := "replica"
		if !replica {
			name = "no-replica"
		}
		t.Run(name, func(t *testing.T) {
			for _, pt := range RelayoutCrashPoints() {
				t.Run(pt.String(), func(t *testing.T) {
					// CrashAfterReplicaWrite only exists on the replica path.
					if pt == CrashAfterReplicaWrite && !replica {
						t.Skip("no replica step without a replica")
					}
					s := paginatedStore(t, 600, 8)
					cfg := FileStoreConfig{Mode: ChecksumRepair, Replica: replica}
					path := filepath.Join(t.TempDir(), "crash.pages")
					fs, err := CreateFileStore(path, s, cfg)
					if err != nil {
						t.Fatal(err)
					}
					err = fs.Relayout(s, HilbertLayout(), crashAt(pt))
					if !errors.Is(err, ErrInjectedCrash) {
						t.Fatalf("relayout at %s = %v, want ErrInjectedCrash", pt, err)
					}
					// The crashed process is dead: drop its handles and recover
					// from the bytes alone.
					fs.Close()
					re, err := OpenFileStore(path, cfg)
					if err != nil {
						t.Fatalf("recovery open: %v", err)
					}
					defer re.Close()
					if g := re.gen; g != 1 && g != 2 {
						t.Fatalf("recovered generation %d, want 1 (rolled back) or 2 (rolled forward)", g)
					}
					if err := re.VerifyAgainst(s); err != nil {
						t.Fatalf("recovered store does not verify: %v", err)
					}
					if _, err := os.Stat(path + shadowSuffix); !os.IsNotExist(err) {
						t.Errorf("shadow file survived recovery (stat err %v)", err)
					}
					// Forward progress: the recovered store relayouts cleanly.
					if err := re.Relayout(s, STRLayout(), nil); err != nil {
						t.Fatal(err)
					}
					if err := re.VerifyAgainst(s); err != nil {
						t.Fatal(err)
					}
				})
			}
		})
	}
}

// TestOpenRepairsLostHeaderEntries: zeroing header-table entries on disk is
// recovered from a same-generation replica at open; without one the pages
// read as corrupt instead of wrong.
func TestOpenRepairsLostHeaderEntries(t *testing.T) {
	s := paginatedStore(t, 300, 8)
	fs := newFileStore(t, s, FileStoreConfig{Mode: ChecksumRepair, Replica: true})
	path := fs.path
	fs.Close()

	// Smash two header-table entries in place.
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	zero := make([]byte, entryBytes)
	for _, slot := range []PageID{0, 9} {
		if _, err := f.WriteAt(zero, entryOff(slot)); err != nil {
			t.Fatal(err)
		}
	}
	f.Close()

	re, err := OpenFileStore(path, FileStoreConfig{Mode: ChecksumRepair, Replica: true})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if st := re.Stats(); st.Repaired != 2 {
		t.Errorf("open repaired %d entries, want 2", st.Repaired)
	}
	if err := re.VerifyAgainst(s); err != nil {
		t.Fatal(err)
	}
}

// TestScrubRepairsEverything: scrubbing in bounded steps walks the whole
// file (cursor wrapping), finds every rotten page and heals it before any
// demand read meets it.
func TestScrubRepairsEverything(t *testing.T) {
	s := paginatedStore(t, 400, 8)
	fs := newFileStore(t, s, FileStoreConfig{Mode: ChecksumRepair, Replica: true})
	dmg := &testDamage{flip: map[PageID]int{1: 5, 17: 800, 40: 31000}, tear: map[PageID]bool{25: true}}
	if _, _, err := fs.ApplyCorruption(dmg); err != nil {
		t.Fatal(err)
	}
	const step = 7
	var scanned, corrupt, repaired int64
	for i := 0; i < (fs.n+step-1)/step; i++ {
		rep := fs.Scrub(step)
		if rep.Scanned > step {
			t.Fatalf("step %d scanned %d pages, rate limit is %d", i, rep.Scanned, step)
		}
		scanned += rep.Scanned
		corrupt += rep.Corrupt
		repaired += rep.Repaired
	}
	// The cursor wraps, so a whole number of steps covers every slot at
	// least once (re-scanned slots are clean by then).
	if scanned < int64(fs.n) {
		t.Errorf("scrubbed %d pages over a full cycle, want at least %d", scanned, fs.n)
	}
	if corrupt != 4 || repaired != 4 {
		t.Errorf("scrub found %d corrupt, repaired %d, want 4 and 4", corrupt, repaired)
	}
	if err := fs.VerifyAgainst(s); err != nil {
		t.Fatal(err)
	}
	// Demand reads after the scrub never see the damage.
	for p := range dmg.flip {
		if _, repaired, err := fs.ReadPage(p, nil); err != nil || repaired {
			t.Errorf("page %d post-scrub read = (repaired=%v, %v), want clean", p, repaired, err)
		}
	}
}

// TestDiskBackingAccounting: a Disk armed with a backing file verifies every
// read, attributes corruption to the dedicated counters (NEVER to
// TimedOutReads, even with a fault injector timing out other reads), prices
// repair on the virtual clock, and keeps the typed error in the ledger.
func TestDiskBackingAccounting(t *testing.T) {
	s := paginatedStore(t, 400, 8)
	fs := newFileStore(t, s, FileStoreConfig{Mode: ChecksumVerify})
	if _, _, err := fs.ApplyCorruption(&testDamage{flip: map[PageID]int{6: 123}}); err != nil {
		t.Fatal(err)
	}

	d := NewDisk(s, DefaultCostModel())
	d.SetBacking(fs)
	// Page 9 always times out; page 6 is corrupt. The two failure classes
	// must stay separately attributable.
	d.SetFaults(&scriptedInjector{failures: map[PageID]int{9: 99}, slow: map[PageID]time.Duration{}},
		RetryPolicy{MaxRetries: 2, Backoff: 100 * time.Microsecond, Timeout: 10 * time.Millisecond})

	clean := NewDisk(s, DefaultCostModel())
	cleanCost := clean.ReadPage(0)
	if got := d.ReadPage(0); got != cleanCost {
		t.Errorf("clean backed read cost %v, want sim cost %v", got, cleanCost)
	}

	got6 := d.ReadPage(6) // corrupt, unrepairable
	d.ReadPage(9)         // times out
	st := d.Stats()
	if st.CorruptPages != 1 || st.RepairedPages != 0 {
		t.Errorf("stats = %+v, want exactly 1 corrupt page", st)
	}
	if st.TimedOutReads != 1 {
		t.Errorf("stats = %+v, want exactly 1 timed-out read (corruption must not count)", st)
	}
	if want := clean.ReadPage(6) + d.Model().CorruptionCost(false); got6 != want {
		t.Errorf("corrupt read cost %v, want sim cost + CorruptionCost = %v", got6, want)
	}
	if st.WallRead <= 0 {
		t.Error("backed reads recorded no wall time")
	}
	var cpe *CorruptPageError
	if len(d.Errs()) != 1 || !errors.As(d.Errs()[0], &cpe) || cpe.Page != 6 {
		t.Errorf("error ledger = %v, want one *CorruptPageError for page 6", d.Errs())
	}
}

// TestDiskScrubStep: ScrubStep prices the scrub walk on the virtual clock
// (seek + transfers + repair costs), resets the head, and no-ops without a
// backing store.
func TestDiskScrubStep(t *testing.T) {
	s := paginatedStore(t, 300, 8)
	fs := newFileStore(t, s, FileStoreConfig{Mode: ChecksumRepair, Replica: true})
	if _, _, err := fs.ApplyCorruption(&testDamage{flip: map[PageID]int{8: 42}}); err != nil {
		t.Fatal(err)
	}
	d := NewDisk(s, DefaultCostModel())
	if got := d.ScrubStep(10); got != 0 {
		t.Fatalf("unbacked ScrubStep charged %v", got)
	}
	d.SetBacking(fs)
	m := d.Model()
	cost := d.ScrubStep(10)
	want := m.Seek + 10*m.Transfer + (m.Seek + 2*m.Transfer) // slot 8 repaired in the first 10
	if cost != want {
		t.Errorf("scrub cost %v, want %v", cost, want)
	}
	st := d.Stats()
	if st.ScrubbedPages != 10 || st.RepairedPages != 1 || st.ScrubIO != cost {
		t.Errorf("stats = %+v, want 10 scrubbed, 1 repaired", st)
	}
}

// TestSatAddSaturates: the monotone DiskStats counters clamp at MaxInt64
// instead of wrapping negative.
func TestSatAddSaturates(t *testing.T) {
	a := int64(math.MaxInt64 - 2)
	satAdd(&a, 1)
	if a != math.MaxInt64-1 {
		t.Fatalf("normal add = %d", a)
	}
	satAdd(&a, 5)
	if a != math.MaxInt64 {
		t.Fatalf("overflowing add = %d, want MaxInt64", a)
	}
	satAdd(&a, 1)
	if a != math.MaxInt64 {
		t.Fatalf("saturated add = %d, want MaxInt64", a)
	}
}

// elevatorList draws k random pages (duplicates allowed) and returns them in
// ascending physical order: the shape of a sweep handed to ReadSorted.
func elevatorList(rng *rand.Rand, s *Store, k int) []PageID {
	pages := make([]PageID, k)
	for i := range pages {
		pages[i] = PageID(rng.Intn(s.NumPages()))
	}
	s.ElevatorSort(pages)
	return pages
}

// readByRuns reads pages the way Disk.ReadSorted does — ReadRun, and ReadPage
// for the page a run stops at — and returns a copy of every payload (nil for
// a page that surfaced an error).
func readByRuns(t *testing.T, fs *FileStore, pages []PageID, buf []byte) [][]byte {
	t.Helper()
	var out [][]byte
	for len(pages) > 0 {
		n := fs.ReadRun(pages, buf)
		for i := 0; i < n; i++ {
			length := fs.headers[fs.slotOf[pages[i]]].length
			out = append(out, bytes.Clone(buf[i*frameBytes:][:length]))
		}
		if n == 0 {
			payload, _, err := fs.ReadPage(pages[0], buf)
			var cpe *CorruptPageError
			if err != nil && !errors.As(err, &cpe) {
				t.Fatalf("page %d: %v", pages[0], err)
			}
			out = append(out, bytes.Clone(payload))
			n = 1
		}
		pages = pages[n:]
	}
	return out
}

// TestReadRunEqualsReadPageLoop: over random ascending page lists, on the
// insertion and the hilbert layout and in all three modes, reading by runs
// returns the same payload bytes and moves Stats() exactly as the per-page
// ReadPage loop does on a twin file with the same damage.
func TestReadRunEqualsReadPageLoop(t *testing.T) {
	dmg := &testDamage{
		flip: map[PageID]int{0: 3, 41: 900, 42: 17, 130: 4000, 257: 31999, 499: 8},
		tear: map[PageID]bool{77: true, 300: true},
	}
	for _, l := range []Layout{InsertionLayout(), HilbertLayout()} {
		for _, cfg := range []FileStoreConfig{
			{Mode: ChecksumOff}, {Mode: ChecksumVerify}, {Mode: ChecksumRepair, Replica: true},
		} {
			t.Run(l.Name()+"/"+cfg.Mode.String(), func(t *testing.T) {
				s := paginatedStore(t, 4000, 8)
				if err := s.Relayout(l); err != nil {
					t.Fatal(err)
				}
				byRun, byPage := newFileStore(t, s, cfg), newFileStore(t, s, cfg)
				for _, fs := range []*FileStore{byRun, byPage} {
					if _, _, err := fs.ApplyCorruption(dmg); err != nil {
						t.Fatal(err)
					}
				}
				rng := rand.New(rand.NewSource(23))
				buf := make([]byte, 16*frameBytes)
				runs := 0
				for trial := 0; trial < 40; trial++ {
					pages := elevatorList(rng, s, 1+rng.Intn(200))
					got := readByRuns(t, byRun, pages, buf)
					for i, p := range pages {
						want, _, err := byPage.ReadPage(p, nil)
						if (err != nil) != (got[i] == nil) || !bytes.Equal(got[i], want) {
							t.Fatalf("trial %d page %d: run path read %d bytes, per-page loop %d (%v)", trial, p, len(got[i]), len(want), err)
						}
						if i > 0 && s.PhysicalPage(p) == s.PhysicalPage(pages[i-1])+1 {
							runs++
						}
					}
					if byRun.Stats() != byPage.Stats() {
						t.Fatalf("trial %d: stats diverged:\n by run  %+v\n by page %+v", trial, byRun.Stats(), byPage.Stats())
					}
				}
				if runs == 0 {
					t.Fatal("no two pages of any list were adjacent: the run path was never exercised")
				}
				if cfg.Mode != ChecksumOff && byRun.Stats().CorruptDetected == 0 {
					t.Fatal("no list met a damaged page")
				}
			})
		}
	}
}

// TestReadRunStopsBeforeTrouble pins ReadRun's contract on one ten-page run:
// the clean prefix before a flipped bit at run index 0, in the middle and at
// the end; the bound a short buffer sets; a page whose header entry is lost;
// and the ends of a run (a slot gap, a duplicate, a page out of range).
func TestReadRunStopsBeforeTrouble(t *testing.T) {
	s := paginatedStore(t, 800, 8)
	run := []PageID{10, 11, 12, 13, 14, 15, 16, 17, 18, 19}
	buf := make([]byte, 16*frameBytes)

	fs := newFileStore(t, s, FileStoreConfig{Mode: ChecksumRepair, Replica: true})
	if _, _, err := fs.ApplyCorruption(&testDamage{flip: map[PageID]int{10: 1, 14: 2000, 19: 32767}}); err != nil {
		t.Fatal(err)
	}
	for _, step := range []struct {
		from, clean int
	}{{0, 0}, {1, 3}, {4, 0}, {5, 4}, {9, 0}} {
		if got := fs.ReadRun(run[step.from:], buf); got != step.clean {
			t.Fatalf("ReadRun from run index %d = %d clean pages, want %d", step.from, got, step.clean)
		}
		if step.clean > 0 {
			continue
		}
		// The page the run stopped at is repaired by ReadPage, exactly once.
		p := run[step.from]
		if _, repaired, err := fs.ReadPage(p, buf); err != nil || !repaired {
			t.Fatalf("page %d after a stopped run = (repaired=%v, %v), want an in-place repair", p, repaired, err)
		}
		if got := fs.ReadRun(run[step.from:step.from+1], buf); got != 1 {
			t.Fatalf("page %d still stops a run after its repair", p)
		}
	}
	if st, want := fs.Stats(), (FileStoreStats{CorruptDetected: 3, Repaired: 3}); st != want {
		t.Errorf("stats = %+v, want %+v", st, want)
	}
	if got := fs.ReadRun(run, buf); got != len(run) {
		t.Fatalf("healed run read %d clean pages, want %d", got, len(run))
	}

	// A page in the bad ledger that still has a slot (Open never leaves one
	// today; the ledger allows it) stops a run like a failed checksum does.
	fs.badPages[16] = "injected"
	if got := fs.ReadRun(run, buf); got != 6 {
		t.Fatalf("run across a bad-ledger page read %d pages, want the 6 before it", got)
	}
	if _, repaired, err := fs.ReadPage(16, buf); err != nil || !repaired {
		t.Fatalf("bad-ledger page read = (repaired=%v, %v), want a repair from the replica", repaired, err)
	}
	if got := fs.ReadRun(run, buf); got != len(run) {
		t.Fatalf("run read %d pages after the ledger cleared, want %d", got, len(run))
	}

	// A run longer than the buffer comes back in buffer-sized pieces, and a
	// buffer shorter than one frame reads nothing.
	small := make([]byte, 4*frameBytes+100)
	for from, want := range map[int]int{0: 4, 4: 4, 8: 2} {
		if got := fs.ReadRun(run[from:], small); got != want {
			t.Errorf("4-frame buffer from index %d: %d pages, want %d", from, got, want)
		}
	}
	if got := fs.ReadRun(run, make([]byte, frameBytes-1)); got != 0 {
		t.Errorf("sub-frame buffer read %d pages", got)
	}
	if got := fs.ReadRun(nil, buf); got != 0 {
		t.Errorf("empty page list read %d pages", got)
	}

	// Run ends: a slot gap, a duplicate, a page past the end of the file.
	n := PageID(s.NumPages())
	for _, c := range []struct {
		pages []PageID
		want  int
	}{
		{[]PageID{30, 31, 33, 34}, 2},
		{[]PageID{30, 30, 31}, 1},
		{[]PageID{31, 30}, 1},
		{[]PageID{n - 2, n - 1, n}, 2},
		{[]PageID{n, 0}, 0},
	} {
		if got := fs.ReadRun(c.pages, buf); got != c.want {
			t.Errorf("ReadRun(%v) = %d, want %d", c.pages, got, c.want)
		}
	}

	// A lost header entry with no replica to restore it: the page is in the
	// bad ledger, a run stops before it and resumes after it.
	lost := newFileStore(t, s, FileStoreConfig{Mode: ChecksumVerify})
	path := lost.path
	lost.Close()
	patchFile(t, path, entryOff(13), make([]byte, entryBytes))
	re, err := OpenFileStore(path, FileStoreConfig{Mode: ChecksumVerify})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if got := re.ReadRun(run, buf); got != 3 {
		t.Fatalf("run across a lost entry read %d pages, want the 3 before it", got)
	}
	if got := re.ReadRun(run[3:], buf); got != 0 {
		t.Fatalf("run starting at the lost page read %d pages", got)
	}
	var cpe *CorruptPageError
	if _, _, err := re.ReadPage(13, buf); !errors.As(err, &cpe) {
		t.Fatalf("lost page read = %v, want *CorruptPageError", err)
	}
	if got := re.ReadRun(run[4:], buf); got != 6 {
		t.Fatalf("run after the lost page read %d pages, want 6", got)
	}
	if st, want := re.Stats(), (FileStoreStats{CorruptDetected: 1}); st != want {
		t.Errorf("stats = %+v, want %+v", st, want)
	}
}

// patchFile overwrites len(b) bytes of the file at off.
func patchFile(t *testing.T, path string, off int64, b []byte) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.WriteAt(b, off); err != nil {
		t.Fatal(err)
	}
}

// TestScrubVisitsEverySlotOncePerCycle: with every page damaged, steps
// smaller than a stretch, one stretch long, longer, and longer than the
// file — through wraps at the end of the file that fall inside a step, and
// with a lent buffer shorter than a stretch — find and heal each slot
// exactly once in the first n slots scanned, and find nothing after.
func TestScrubVisitsEverySlotOncePerCycle(t *testing.T) {
	s := paginatedStore(t, 1200, 8)
	n := s.NumPages() // 150: not a multiple of any step below
	all := &testDamage{flip: map[PageID]int{}}
	for p := 0; p < n; p++ {
		all.flip[PageID(p)] = 7 * p
	}
	for _, c := range []struct {
		name string
		step int
		buf  []byte
	}{
		{"step-7", 7, nil},
		{"step-64", scrubStretch, nil},
		{"step-100", 100, nil},
		{"step-over-n", n + 50, nil},
		{"step-100-lent-3-frames", 100, make([]byte, 3*frameBytes)},
		{"step-100-lent-stretch", 100, make([]byte, scrubStretch*frameBytes)},
	} {
		t.Run(c.name, func(t *testing.T) {
			fs := newFileStore(t, s, FileStoreConfig{Mode: ChecksumRepair, Replica: true})
			if flipped, _, err := fs.ApplyCorruption(all); err != nil || flipped != n {
				t.Fatalf("ApplyCorruption = (%d, %v), want %d flips", flipped, err, n)
			}
			var scanned, corrupt, repaired int64
			for scanned < int64(2*n) {
				rep := fs.scrub(c.step, c.buf)
				if want := int64(min(c.step, n)); rep.Scanned != want {
					t.Fatalf("step scanned %d slots, want %d", rep.Scanned, want)
				}
				// A slot is found damaged on its first visit only: after k
				// slots scanned, min(k, n) are healed.
				scanned += rep.Scanned
				corrupt += rep.Corrupt
				repaired += rep.Repaired
				if want := min(scanned, int64(n)); corrupt != want || repaired != want {
					t.Fatalf("after %d slots: %d found, %d healed, want %d", scanned, corrupt, repaired, want)
				}
				if fs.scrubCursor != int(scanned)%n {
					t.Fatalf("after %d slots the cursor is at %d, want %d", scanned, fs.scrubCursor, int(scanned)%n)
				}
			}
			if st := fs.Stats(); st.Repaired != int64(n) {
				t.Errorf("stats = %+v, want %d repaired", st, n)
			}
			if err := fs.VerifyAgainst(s); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestOpenRefusesForeignFormats: a version-1 superblock, geometry the file
// cannot hold, and a header entry with checksum bits a v2 writer never sets
// are errors — from Open or from the read — never panics or huge allocations.
func TestOpenRefusesForeignFormats(t *testing.T) {
	s := paginatedStore(t, 300, 8)
	n := s.NumPages()
	fresh := func(t *testing.T) (path string, super []byte) {
		fs := newFileStore(t, s, FileStoreConfig{})
		fs.Close()
		super = make([]byte, superBytes)
		f, err := os.Open(fs.path)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		if _, err := f.ReadAt(super, 0); err != nil {
			t.Fatal(err)
		}
		return fs.path, super
	}
	for _, c := range []struct {
		name  string
		patch func(super []byte)
		want  string
	}{
		{"version-1", func(b []byte) { binary.LittleEndian.PutUint32(b[4:8], 1) }, "unsupported file version 1"},
		{"one-page-too-many", func(b []byte) {
			binary.LittleEndian.PutUint64(b[16:24], uint64(n+1))
			binary.LittleEndian.PutUint64(b[28:36], uint64(dataOffFor(n+1)))
		}, "implausible superblock geometry"},
		{"2^40-pages", func(b []byte) {
			binary.LittleEndian.PutUint64(b[16:24], 1<<40)
			binary.LittleEndian.PutUint64(b[28:36], uint64(dataOffFor(1<<40)))
		}, "implausible superblock geometry"},
		{"2^62-pages", func(b []byte) {
			binary.LittleEndian.PutUint64(b[16:24], 1<<62)
			binary.LittleEndian.PutUint64(b[28:36], uint64(dataOffFor(1<<62)))
		}, "implausible superblock geometry"},
		{"zero-objects-per-page", func(b []byte) { binary.LittleEndian.PutUint32(b[24:28], 0) }, "implausible superblock geometry"},
		{"65-objects-per-page", func(b []byte) { binary.LittleEndian.PutUint32(b[24:28], 65) }, "implausible superblock geometry"},
	} {
		t.Run(c.name, func(t *testing.T) {
			path, super := fresh(t)
			c.patch(super)
			resum(super)
			patchFile(t, path, 0, super)
			fs, err := OpenFileStore(path, FileStoreConfig{Mode: ChecksumVerify})
			if err == nil {
				fs.Close()
				t.Fatal("opened")
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Fatalf("error %q, want it to say %q", err, c.want)
			}
		})
	}
	t.Run("truncated", func(t *testing.T) {
		path, _ := fresh(t)
		if err := os.Truncate(path, dataOffFor(n)+int64(n)*frameBytes-1); err != nil {
			t.Fatal(err)
		}
		if _, err := OpenFileStore(path, FileStoreConfig{}); err == nil || !strings.Contains(err.Error(), "implausible superblock geometry") {
			t.Fatalf("open of a file one byte short = %v", err)
		}
	})
	t.Run("entry-high-checksum-bits", func(t *testing.T) {
		path, _ := fresh(t)
		// A v1 (CRC64) entry for slot 4, otherwise well-formed: its own
		// checksum is recomputed so only the high bits are wrong.
		entry := make([]byte, entryBytes)
		encodeEntry(entry, pageHeader{page: 4, length: 8 * objBytes, checksum: 0xc96c5795_d7870f42}, 1)
		if _, err := decodeEntry(entry, 1, n); err == nil || !strings.Contains(err.Error(), "high bits") {
			t.Fatalf("decodeEntry = %v, want the high bits refused", err)
		}
		patchFile(t, path, entryOff(4), entry)
		fs, err := OpenFileStore(path, FileStoreConfig{Mode: ChecksumVerify})
		if err != nil {
			t.Fatal(err)
		}
		defer fs.Close()
		var cpe *CorruptPageError
		if _, _, err := fs.ReadPage(4, nil); !errors.As(err, &cpe) {
			t.Fatalf("page behind the refused entry read = %v, want *CorruptPageError", err)
		}
		if _, _, err := fs.ReadPage(5, nil); err != nil {
			t.Fatal(err)
		}
	})
	t.Run("entry-page-field-flip", func(t *testing.T) {
		// One flipped bit makes slot 4 claim page 5. The entry's own checksum
		// catches it: page 4 is lost, and page 5 still reads page 5's bytes.
		path, _ := fresh(t)
		entry := make([]byte, entryBytes)
		encodeEntry(entry, pageHeader{page: 4}, 1)
		patchFile(t, path, entryOff(4)+4, []byte{entry[4] ^ 1})
		fs, err := OpenFileStore(path, FileStoreConfig{Mode: ChecksumVerify})
		if err != nil {
			t.Fatal(err)
		}
		defer fs.Close()
		var cpe *CorruptPageError
		if _, _, err := fs.ReadPage(4, nil); !errors.As(err, &cpe) {
			t.Fatalf("page 4 read = %v, want *CorruptPageError", err)
		}
		objs, err := fs.DecodePage(5)
		if err != nil || len(objs) == 0 || objs[0] != s.PageSlice(5)[0] {
			t.Fatalf("page 5 decoded %v (%v), want the store's page 5", objs, err)
		}
	})
}
