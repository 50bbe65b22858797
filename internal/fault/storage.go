package fault

import (
	"scout/internal/pagestore"
)

// Storage fault domain: damage at rest rather than in flight. A StoragePlan
// describes which pages suffer bit flips or torn writes and where a relayout
// crashes; a StorageInjector evaluates it as a pure function of (seed,
// domain, pageID) — same determinism contract as Plan/Injector, so the dur1
// experiment and the crash-matrix test are byte-identical on every run,
// including under -race. The injector only decides; pagestore.FileStore
// applies the damage (ApplyCorruption) and dies at the chosen crash point
// (Relayout), and the checksum/replica/scrub machinery detects and recovers.

// StoragePlan is one deterministic at-rest damage configuration. Rates are
// probabilities in [0,1] evaluated per page. The zero StoragePlan (with
// CrashStep's zero value meaning "crash at step 0" — use NoCrash or
// NewStorage's default) damages nothing.
type StoragePlan struct {
	// Seed keys every damage decision, independently of any serving-path
	// fault Plan sharing the seed (the hash domains differ).
	Seed int64

	// CorruptRate is the per-page probability of one flipped bit in the
	// page's on-disk frame (bit rot, a misdirected write).
	CorruptRate float64

	// TornRate is the per-page probability that the page's last write tore:
	// the payload's tail is lost (zeroed), as when power dies between two
	// sector writes. A page hit by both corruption and tearing tears.
	TornRate float64

	// CrashStep selects the enumerated relayout crash point to die at
	// (pagestore.RelayoutCrashPoints), or NoCrash for none.
	CrashStep int
}

// NoCrash is the CrashStep value that never crashes.
const NoCrash = -1

// StorageInjector evaluates a StoragePlan. It is stateless and safe for
// concurrent use; every decision is a pure function of the plan and the
// call's inputs. StorageInjector implements pagestore.StorageFaultInjector
// and pagestore.Crasher.
type StorageInjector struct {
	plan StoragePlan
}

// NewStorage creates an injector for the plan. A nil *StorageInjector is
// valid everywhere one is accepted and injects nothing.
func NewStorage(plan StoragePlan) *StorageInjector { return &StorageInjector{plan: plan} }

// Independent hash domains for the at-rest decision streams (see the
// serving-path domains in fault.go).
const (
	domainCorrupt uint64 = 0x8EBC_6AF0_9C88_C6E3
	domainBit     uint64 = 0x589F_D1B6_91A7_9F6C
	domainTorn    uint64 = 0x6C62_272E_07BB_0142
)

// PageCorrupt reports whether page p suffers a flipped bit.
func (in *StorageInjector) PageCorrupt(p pagestore.PageID) bool {
	if in == nil {
		return false
	}
	return roll(in.plan.Seed, domainCorrupt, uint64(p), 0, 0, in.plan.CorruptRate)
}

// CorruptBit returns the deterministic bit index PageCorrupt's flip hits
// (the consumer reduces it modulo the frame's bit width).
func (in *StorageInjector) CorruptBit(p pagestore.PageID) int {
	if in == nil {
		return 0
	}
	return int(mix(mix(uint64(in.plan.Seed)^domainBit)^uint64(p)) & 0x7FFF_FFFF)
}

// TornWrite reports whether page p's last write tore.
func (in *StorageInjector) TornWrite(p pagestore.PageID) bool {
	if in == nil {
		return false
	}
	return roll(in.plan.Seed, domainTorn, uint64(p), 0, 0, in.plan.TornRate)
}

// CrashAt reports whether the relayout dies at enumerated crash point step.
func (in *StorageInjector) CrashAt(step int) bool {
	if in == nil {
		return false
	}
	return in.plan.CrashStep >= 0 && step == in.plan.CrashStep
}
