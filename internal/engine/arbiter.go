package engine

import (
	"fmt"
	"sync"
	"time"
)

// Policy selects how the prefetch budget arbiter splits disk time between
// concurrent sessions during overlapping prefetch windows. Without an
// arbiter one aggressive session (large windows, high miss rate) can hog
// the disk and evict every other session's working set; the policies below
// trade aggregate throughput against per-session fairness.
type Policy int

const (
	// FairShare grants every contending session an equal slice of its
	// window: grant = window / (1 + contenders).
	FairShare Policy = iota
	// DemandWeighted scales the fair share by the session's recent demand
	// (EWMA of miss pages per query) relative to its contenders: sessions
	// whose working set is colder get more disk time to warm it.
	DemandWeighted
	// StarvedFirst gives the contending session with the lowest recent hit
	// rate its full window and throttles everyone else to half a fair
	// share, so a starved session recovers quickly.
	StarvedFirst
	// Unarbitrated grants every session its full window — the paper's
	// single-session behavior applied blindly under concurrency. It is the
	// ablation baseline, and the mode in which a multi-session run with
	// private caches and no interference penalty is byte-identical to
	// isolated single-session runs.
	Unarbitrated
)

// String names the policy as the mu* experiment tables do.
func (p Policy) String() string {
	switch p {
	case FairShare:
		return "fair"
	case DemandWeighted:
		return "demand"
	case StarvedFirst:
		return "starved"
	case Unarbitrated:
		return "none"
	}
	return fmt.Sprintf("Policy(%d)", int(p))
}

// Policies returns every arbiter policy, in ablation-table order.
func Policies() []Policy {
	return []Policy{FairShare, DemandWeighted, StarvedFirst, Unarbitrated}
}

// demandAlpha is the EWMA weight of the most recent query in a session's
// demand and hit-rate ledgers.
const demandAlpha = 0.3

// ledger is the arbiter's per-session view of recent behavior.
type ledger struct {
	// demand is an EWMA of miss pages per query — how much disk the
	// session has recently needed.
	demand float64
	// hitRate is an EWMA of the session's per-query cache hit rate.
	hitRate float64
	// queries counts Record calls, so unobserved sessions can be excluded
	// from weighting.
	queries int64
	// shedding marks a session whose circuit breaker is open (or that was
	// admitted degraded): it takes no grants and does not count toward the
	// active split, so its share of every window returns to the pool.
	shedding bool
	// priority is the session's workload-class weight (0 = unset, treated
	// as the neutral 1.0). See Arbiter.SetPriority.
	priority float64
}

// Arbiter splits the per-window prefetch budget across sessions by a
// pluggable policy. It is safe for concurrent use: a mutex around the
// unlocked arbiter a single coordinator owns. The serving layer's commit
// loop, which runs on one goroutine, gives each fleet shard the unlocked
// one and calls it in virtual-time order, so its decisions are
// reproducible run to run.
type Arbiter struct {
	mu   sync.Mutex
	core arbiter
}

// NewArbiter creates an arbiter for a fixed session population.
func NewArbiter(policy Policy, sessions int) *Arbiter {
	return &Arbiter{core: *newArbiter(policy, sessions)}
}

// Grant is arbiter.Grant under the lock.
func (a *Arbiter) Grant(session int, contenders []int, window time.Duration) time.Duration {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.core.Grant(session, contenders, window)
}

// Record is arbiter.Record under the lock. used, the prefetch I/O time the
// session spent of its last grant, does not enter any ledger.
func (a *Arbiter) Record(session, resultPages, hitPages int, used time.Duration) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.core.Record(session, resultPages, hitPages)
}

// arbiter is the Arbiter without its lock, for one coordinator.
type arbiter struct {
	policy  Policy
	ledgers []ledger
	// weighted flips when any session's priority is set away from 1:
	// only then do the policies take the float-weighted share paths, so a
	// priority-free arbiter stays bit-exact with the integer-division seed
	// arithmetic.
	weighted bool
	// contBuf is Grant's reusable shed-filtered contender scratch.
	contBuf []int
}

func newArbiter(policy Policy, sessions int) *arbiter {
	if sessions < 1 {
		sessions = 1
	}
	return &arbiter{policy: policy, ledgers: make([]ledger, sessions)}
}

// Grant returns how much of the session's prefetch window it may spend on
// prefetch I/O, given the sessions currently contending for the disk
// (sessions whose I/O is still in flight at this virtual time). The grant
// never exceeds the window and is zero for a non-positive window. A
// session marked shedding (SetShedding) is granted nothing, and shedding
// contenders are excluded from the active split — their share of the
// window returns to the pool.
func (a *arbiter) Grant(session int, contenders []int, window time.Duration) time.Duration {
	if window <= 0 {
		return 0
	}
	if session < 0 || session >= len(a.ledgers) {
		return 0
	}
	if a.ledgers[session].shedding {
		return 0
	}
	a.contBuf = a.contBuf[:0]
	for _, c := range contenders {
		if c >= 0 && c < len(a.ledgers) && a.ledgers[c].shedding {
			continue
		}
		a.contBuf = append(a.contBuf, c)
	}
	contenders = a.contBuf
	active := 1 + len(contenders)
	var grant time.Duration
	switch a.policy {
	case Unarbitrated:
		grant = window
	case FairShare:
		if a.weighted {
			grant = a.priorityShare(session, contenders, window, active)
		} else {
			grant = window / time.Duration(active)
		}
	case DemandWeighted:
		grant = a.demandGrant(session, contenders, window, active)
	case StarvedFirst:
		grant = a.starvedGrant(session, contenders, window, active)
	default:
		grant = window / time.Duration(active)
	}
	if grant > window {
		grant = window
	}
	if grant < 0 {
		grant = 0
	}
	return grant
}

// demandGrant scales the fair share by the session's demand relative to the
// mean demand of the contending set. Sessions that have not recorded a
// query yet weigh as the neutral 1.0. With class priorities set, each
// session's demand weight is additionally scaled by its priority.
func (a *arbiter) demandGrant(session int, contenders []int, window time.Duration, active int) time.Duration {
	mine := a.weightOf(session)
	total := mine
	for _, c := range contenders {
		total += a.weightOf(c)
	}
	if total <= 0 {
		return window / time.Duration(active)
	}
	// share = window × (my weight / total weight); with equal weights this
	// degenerates to the fair share.
	return time.Duration(float64(window) * mine / total)
}

// priorityShare is the class-weighted fair share: window × (my priority /
// total active priority). Only reached when some priority differs from 1.
func (a *arbiter) priorityShare(session int, contenders []int, window time.Duration, active int) time.Duration {
	mine := a.priorityOf(session)
	total := mine
	for _, c := range contenders {
		total += a.priorityOf(c)
	}
	if total <= 0 {
		return window / time.Duration(active)
	}
	return time.Duration(float64(window) * mine / total)
}

// priorityOf returns a session's class priority (unset = 1.0).
func (a *arbiter) priorityOf(session int) float64 {
	if session < 0 || session >= len(a.ledgers) {
		return 0
	}
	if p := a.ledgers[session].priority; p > 0 {
		return p
	}
	return 1
}

// SetPriority installs a session's workload-class weight (≤0 is normalized
// to 1). Priorities scale budget shares under FairShare (weighted fair
// share), DemandWeighted (demand × priority) and StarvedFirst (the
// throttled share); Unarbitrated ignores them. With every priority at the
// neutral 1 the arbiter's arithmetic is bit-exact with the unweighted seed.
func (a *arbiter) SetPriority(session int, w float64) {
	if session < 0 || session >= len(a.ledgers) {
		return
	}
	if w <= 0 {
		w = 1
	}
	a.ledgers[session].priority = w
	if w != 1 {
		a.weighted = true
	}
}

// weightOf returns a session's demand weight: its miss-page EWMA, floored
// so a fully warm session still makes progress, or 1.0 before any Record —
// scaled by the session's class priority when one is set.
func (a *arbiter) weightOf(session int) float64 {
	if session < 0 || session >= len(a.ledgers) {
		return 0
	}
	l := a.ledgers[session]
	w := 1.0
	if l.queries != 0 {
		w = l.demand
		if w < 0.1 {
			w = 0.1
		}
	}
	if a.weighted {
		w *= a.priorityOf(session)
	}
	return w
}

// starvedGrant finds the lowest recent hit rate among the contending set;
// the starved session keeps its full window, everyone else gets half a
// fair share. Ties (including the all-fresh start) are starved too, so the
// first windows run unthrottled.
func (a *arbiter) starvedGrant(session int, contenders []int, window time.Duration, active int) time.Duration {
	min := a.hitOf(session)
	for _, c := range contenders {
		if h := a.hitOf(c); h < min {
			min = h
		}
	}
	const tieTol = 1e-9
	if a.hitOf(session) <= min+tieTol {
		return window
	}
	if a.weighted {
		// Throttled sessions split half the window by class priority.
		return a.priorityShare(session, contenders, window, active) / 2
	}
	return window / time.Duration(2*active)
}

// hitOf returns a session's hit-rate EWMA (0 before any Record, which marks
// fresh sessions as maximally starved).
func (a *arbiter) hitOf(session int) float64 {
	if session < 0 || session >= len(a.ledgers) {
		return 0
	}
	return a.ledgers[session].hitRate
}

// SetShedding marks (or unmarks) a session as shedding prefetch: an open
// circuit breaker or a degraded admission. While set, Grant gives the
// session nothing and excludes it from every other session's active
// split, returning its budget share to the pool.
func (a *arbiter) SetShedding(session int, shed bool) {
	if session < 0 || session >= len(a.ledgers) {
		return
	}
	a.ledgers[session].shedding = shed
}

// Record feeds one completed query back into the session's ledger: how
// many result pages it touched and how many hit the cache.
func (a *arbiter) Record(session, resultPages, hitPages int) {
	if session < 0 || session >= len(a.ledgers) {
		return
	}
	l := &a.ledgers[session]
	miss := float64(resultPages - hitPages)
	if miss < 0 {
		miss = 0
	}
	hit := 0.0
	if resultPages > 0 {
		hit = float64(hitPages) / float64(resultPages)
	}
	if l.queries == 0 {
		l.demand = miss
		l.hitRate = hit
	} else {
		l.demand = demandAlpha*miss + (1-demandAlpha)*l.demand
		l.hitRate = demandAlpha*hit + (1-demandAlpha)*l.hitRate
	}
	l.queries++
}
