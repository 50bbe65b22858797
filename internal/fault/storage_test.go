package fault

import (
	"testing"

	"scout/internal/pagestore"
)

// TestStorageInjectorDeterminism: two injectors with the same plan make
// byte-identical decisions for every page; a different seed diverges.
func TestStorageInjectorDeterminism(t *testing.T) {
	plan := StoragePlan{Seed: 7, CorruptRate: 0.2, TornRate: 0.05, CrashStep: NoCrash}
	a, b := NewStorage(plan), NewStorage(plan)
	other := NewStorage(StoragePlan{Seed: 8, CorruptRate: 0.2, TornRate: 0.05, CrashStep: NoCrash})
	diverged := false
	for p := pagestore.PageID(0); p < 5000; p++ {
		if a.PageCorrupt(p) != b.PageCorrupt(p) || a.CorruptBit(p) != b.CorruptBit(p) ||
			a.TornWrite(p) != b.TornWrite(p) {
			t.Fatalf("same plan diverged at page %d", p)
		}
		if a.PageCorrupt(p) != other.PageCorrupt(p) || a.TornWrite(p) != other.TornWrite(p) {
			diverged = true
		}
	}
	if !diverged {
		t.Error("different seeds made identical decisions over 5000 pages")
	}
}

// TestStorageInjectorRates: rate 0 never fires, rate 1 always fires, and a
// middling rate lands near its expectation over many pages.
func TestStorageInjectorRates(t *testing.T) {
	never := NewStorage(StoragePlan{Seed: 3, CrashStep: NoCrash})
	always := NewStorage(StoragePlan{Seed: 3, CorruptRate: 1, TornRate: 1, CrashStep: NoCrash})
	mid := NewStorage(StoragePlan{Seed: 3, CorruptRate: 0.25, CrashStep: NoCrash})
	hits := 0
	const n = 20000
	for p := pagestore.PageID(0); p < n; p++ {
		if never.PageCorrupt(p) || never.TornWrite(p) {
			t.Fatalf("zero-rate plan fired at page %d", p)
		}
		if !always.PageCorrupt(p) || !always.TornWrite(p) {
			t.Fatalf("rate-1 plan missed page %d", p)
		}
		if mid.PageCorrupt(p) {
			hits++
		}
	}
	if frac := float64(hits) / n; frac < 0.22 || frac > 0.28 {
		t.Errorf("rate 0.25 hit %.3f of pages", frac)
	}
}

// TestStorageCrashAt: CrashStep selects exactly one enumerated point;
// NoCrash selects none.
func TestStorageCrashAt(t *testing.T) {
	for _, pt := range pagestore.RelayoutCrashPoints() {
		inj := NewStorage(StoragePlan{Seed: 1, CrashStep: int(pt)})
		for _, other := range pagestore.RelayoutCrashPoints() {
			if got := inj.CrashAt(int(other)); got != (other == pt) {
				t.Errorf("CrashStep %s: CrashAt(%s) = %v", pt, other, got)
			}
		}
	}
	safe := NewStorage(StoragePlan{Seed: 1, CrashStep: NoCrash})
	for _, pt := range pagestore.RelayoutCrashPoints() {
		if safe.CrashAt(int(pt)) {
			t.Errorf("NoCrash plan crashed at %s", pt)
		}
	}
}

// TestStorageEnabled: the zero-with-NoCrash plan is inert; each knob alone
// damages something.
func TestStorageEnabled(t *testing.T) {
	damages := func(p StoragePlan) (corrupt, torn, crash bool) {
		in := NewStorage(p)
		for pg := range pagestore.PageID(1000) {
			corrupt = corrupt || in.PageCorrupt(pg)
			torn = torn || in.TornWrite(pg)
		}
		for _, pt := range pagestore.RelayoutCrashPoints() {
			crash = crash || in.CrashAt(int(pt))
		}
		return corrupt, torn, crash
	}
	if c, w, x := damages(StoragePlan{CrashStep: NoCrash}); c || w || x {
		t.Errorf("inert plan damages: corrupt %v, torn %v, crash %v", c, w, x)
	}
	if c, _, _ := damages(StoragePlan{CorruptRate: 0.1, CrashStep: NoCrash}); !c {
		t.Error("CorruptRate 0.1 corrupts no page")
	}
	if _, w, _ := damages(StoragePlan{TornRate: 0.1, CrashStep: NoCrash}); !w {
		t.Error("TornRate 0.1 tears no page")
	}
	if _, _, x := damages(StoragePlan{CrashStep: 0}); !x {
		t.Error("CrashStep 0 crashes at no point")
	}
}

// TestNilStorageInjector: a nil *StorageInjector is valid and injects
// nothing — the disarmed path must never panic.
func TestNilStorageInjector(t *testing.T) {
	var inj *StorageInjector
	if inj.PageCorrupt(3) || inj.TornWrite(3) || inj.CorruptBit(3) != 0 || inj.CrashAt(0) {
		t.Error("nil injector injected something")
	}
}
