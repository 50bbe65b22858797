package pagestore

import (
	"errors"
	"math"
	"time"
)

// CostModel is the deterministic I/O cost model that replaces the paper's
// physical 4-disk SAS array (see DESIGN.md §2). Costs are charged on a
// virtual clock: a read of n pages costs one Seek plus n Transfers when the
// run is physically contiguous, and a Seek per discontinuity otherwise.
type CostModel struct {
	// Seek is charged whenever the next page is not physically adjacent to
	// the previously read page.
	Seek time.Duration
	// Transfer is charged once per page read from disk.
	Transfer time.Duration
	// Route is the per-page fan-out charge the sharded engine pays to ship a
	// page from a non-home shard back to the requesting session (an
	// in-process handoff today, a network hop in a scale-out deployment).
	// Only the sharded router consults it; single-disk paths never pay it,
	// and a query landing entirely on its home shard pays none.
	Route time.Duration
	// ReplicaRead is the per-page surcharge for serving a page from a
	// replica slice instead of its home shard's primary range: the replica
	// copy lives in a different physical region of the serving disk, so the
	// arm's excursion amortizes to a small per-page penalty. Only the
	// sharded failover router consults it (DESIGN.md §13); with replication
	// off (Replicas <= 1) no read ever pays it.
	ReplicaRead time.Duration
}

// DefaultCostModel approximates a 2012-era striped SAS array: ~5 ms average
// seek and ~40 µs to transfer one 4 KB page (≈100 MB/s effective per
// stream). A cache hit is free: copying a page out of RAM is orders of
// magnitude below Transfer.
func DefaultCostModel() CostModel {
	return CostModel{
		Seek:        5 * time.Millisecond,
		Transfer:    40 * time.Microsecond,
		Route:       5 * time.Microsecond,
		ReplicaRead: 10 * time.Microsecond,
	}
}

// DiskStats aggregates the I/O activity observed by a Disk.
type DiskStats struct {
	PagesRead   int64 // pages fetched from (simulated) disk
	Seeks       int64 // discontinuities paid for
	SimulatedIO time.Duration
	// BridgedPages counts pages the batched elevator read through and
	// discarded to avoid a seek (ReadBatch only; the per-page path never
	// bridges). Their transfer time is in SimulatedIO but they are not
	// delivered, so they do not count as PagesRead.
	BridgedPages int64
	// FaultRetries counts read attempts retried after an injected transient
	// failure; TimedOutReads counts reads that hit the per-read timeout
	// (retries exhausted or recovery exceeding ReadTimeout) and were served
	// degraded. Both zero unless a FaultInjector is armed (DESIGN.md §9).
	FaultRetries  int64
	TimedOutReads int64
	// ReplicaPages counts pages this disk served from a replica slice on
	// behalf of a sick home shard (each surcharged CostModel.ReplicaRead);
	// zero unless the sharded failover router is active (DESIGN.md §13).
	ReplicaPages int64
	// Durable-backend counters (DESIGN.md §10), all zero unless a FileStore
	// is armed. CorruptPages counts reads whose checksum verification
	// failed; RepairedPages counts the subset healed in place from the
	// replica — a corrupt read that could NOT be repaired surfaces a typed
	// *CorruptPageError in Errs, and is never folded into TimedOutReads.
	// ScrubbedPages/ScrubIO account the background scrub's verification
	// walk. WallRead is real elapsed time in backend reads — the only
	// wall-clock number in DiskStats; everything else stays on the virtual
	// clock. The monotonically growing counters saturate at math.MaxInt64
	// instead of wrapping, so week-long scrub loops can't flip them
	// negative.
	CorruptPages  int64
	RepairedPages int64
	ScrubbedPages int64
	ScrubIO       time.Duration
	WallRead      time.Duration
}

// Add folds another stats block into this one, saturating the monotone
// counters. The sharded engine aggregates its per-shard DiskStats through
// here so fleet-wide totals stay overflow-safe.
func (s *DiskStats) Add(o DiskStats) {
	satAdd(&s.PagesRead, o.PagesRead)
	satAdd(&s.Seeks, o.Seeks)
	s.SimulatedIO += o.SimulatedIO
	satAdd(&s.BridgedPages, o.BridgedPages)
	satAdd(&s.FaultRetries, o.FaultRetries)
	satAdd(&s.TimedOutReads, o.TimedOutReads)
	satAdd(&s.ReplicaPages, o.ReplicaPages)
	satAdd(&s.CorruptPages, o.CorruptPages)
	satAdd(&s.RepairedPages, o.RepairedPages)
	satAdd(&s.ScrubbedPages, o.ScrubbedPages)
	s.ScrubIO += o.ScrubIO
	s.WallRead += o.WallRead
}

// satAdd adds d (≥ 0) to *a, saturating at math.MaxInt64 instead of
// wrapping: overflow-safe accounting for counters that grow forever under
// long scrub runs.
func satAdd(a *int64, d int64) {
	if *a > math.MaxInt64-d {
		*a = math.MaxInt64
		return
	}
	*a += d
}

// FaultInjector is the pluggable fault hook a Disk consults per read when
// armed via SetFaults. Implementations must be pure functions of their
// inputs (see internal/fault) so charged costs stay deterministic.
type FaultInjector interface {
	// ReadFailure reports whether the attempt-th try (0 = first) at reading
	// page p at virtual time now fails transiently.
	ReadFailure(p PageID, now time.Duration, attempt int) bool
	// SlowPage returns the injected latency spike for reading page p at
	// virtual time now, or zero.
	SlowPage(p PageID, now time.Duration) time.Duration
}

// Recovery from injected transient read faults mirrors a conservative
// storage stack: a failed read attempt is retried up to maxRetries times,
// waiting retryBackoff before the first retry and doubling it per attempt,
// and one read's recovery is capped at ReadTimeout, after which the read is
// abandoned and served degraded. Recovery is charged to the virtual clock,
// never hidden.
const (
	maxRetries   = 3
	retryBackoff = 200 * time.Microsecond
	// ReadTimeout caps one read's total fault-recovery charge (five seeks):
	// a read whose retries exhaust, or whose accumulated recovery exceeds
	// the cap, charges exactly ReadTimeout of fault delay and counts as
	// timed out.
	ReadTimeout = 25 * time.Millisecond
)

// FaultOutcome is the priced recovery of one page read under injected
// faults: the extra virtual time charged, the retries spent, and whether
// the read timed out (served degraded at exactly ReadTimeout).
type FaultOutcome struct {
	Extra    time.Duration
	Retries  int64
	TimedOut bool
}

// FaultCost prices one page read's fault recovery: an injected slow-page
// spike, then bounded retry-with-backoff over injected transient failures
// (each failed attempt charges one Transfer — the wasted rotation — plus
// the exponential backoff), the whole recovery capped by ReadTimeout. A nil
// injector prices to the zero outcome.
func (m CostModel) FaultCost(inj FaultInjector, p PageID, now time.Duration) FaultOutcome {
	if inj == nil {
		return FaultOutcome{}
	}
	var out FaultOutcome
	out.Extra = inj.SlowPage(p, now)
	backoff := retryBackoff
	for attempt := 0; inj.ReadFailure(p, now, attempt); attempt++ {
		if attempt >= maxRetries {
			out.TimedOut = true
			break
		}
		out.Retries++
		out.Extra += m.Transfer + backoff
		backoff *= 2
	}
	if out.TimedOut || out.Extra > ReadTimeout {
		out.Extra = ReadTimeout
		out.TimedOut = true
	}
	return out
}

// Disk mediates page reads against a Store, charging the cost model and
// tracking physical head position for sequential-run detection. One disk
// serves one or more read STREAMS — a single engine, or the serving layer's
// concurrent sessions — each with its own head; At selects the stream a read
// is charged to. Disk is not safe for concurrent use; the engine serializes
// access, as the paper's single I/O subsystem does.
type Disk struct {
	store *Store
	model CostModel
	stats DiskStats
	// heads holds one PHYSICAL head address per stream: the address that
	// stream most recently read, or InvalidPage after ResetHead. Reading
	// physical address head+1 is sequential and skips the seek. With the
	// identity layout physical == logical. cur is the stream reads are
	// charged to (At).
	heads []PageID
	cur   int
	// Cross-stream interference (NewSharedDisk): every seek pays
	// contenders × interference on top of the model's Seek — queueing and
	// head-stealing while other streams' I/O is in flight. contenders is set
	// per read context by At; interferenceTime is the Interference ledger.
	interference     time.Duration
	contenders       int
	interferenceTime time.Duration
	// batchBuf is ReadPages/ReadBatch's reusable schedule scratch; coldBuf
	// is ColdCost's reusable physical-translation scratch.
	batchBuf []PageID
	coldBuf  []PageID
	// faults, when non-nil, injects per-read faults recovered under retry
	// (SetFaults). The fault rolls' virtual time coordinate is the disk's
	// accumulated SimulatedIO — deterministic, monotone, and shared with the
	// costs the injector perturbs — until the first At: a caller that keeps
	// its own virtual clock (the serving commit loop) passes it there, and
	// now replaces SimulatedIO from then on.
	faults FaultInjector
	timed  bool
	now    time.Duration
	// backing, when non-nil, is the durable file store every simulated read
	// also physically performs (SetBacking): checksums verify, wall time
	// lands in WallRead, corruption is priced on the virtual clock. backBuf
	// is the reusable read buffer, scrubStretch frames long: one run of a
	// sweep or one scrub stretch per pread. errs is the capped corruption
	// ledger.
	backing *FileStore
	backBuf []byte
	errs    []error
}

// NewDisk creates a single-stream Disk over the given paginated store.
func NewDisk(store *Store, model CostModel) *Disk {
	return NewSharedDisk(store, model, 1, 0)
}

// NewSharedDisk creates a Disk shared by `streams` (at least 1) concurrent
// read streams, each with its own head, charging `interference` per
// contending stream on every seek (0 disables cross-stream interference).
// Reads are charged to stream 0 with no contenders until At says otherwise.
func NewSharedDisk(store *Store, model CostModel, streams int, interference time.Duration) *Disk {
	if !store.Paginated() {
		panic("pagestore: NewDisk requires a paginated store")
	}
	heads := make([]PageID, streams)
	for i := range heads {
		heads[i] = InvalidPage
	}
	return &Disk{store: store, model: model, heads: heads, interference: interference}
}

// At sets the context of the reads that follow: they move stream's head,
// pay the interference penalty for `contenders` other streams with I/O in
// flight, and roll injected faults at the caller's virtual time now.
func (d *Disk) At(stream, contenders int, now time.Duration) {
	d.cur, d.contenders = stream, contenders
	d.timed, d.now = true, now
}

// interfere prices and records the interference penalty on `seeks` seeks of
// the current read context.
func (d *Disk) interfere(seeks int64) time.Duration {
	if seeks == 0 || d.contenders <= 0 || d.interference <= 0 {
		return 0
	}
	penalty := time.Duration(seeks) * time.Duration(d.contenders) * d.interference
	d.interferenceTime += penalty
	return penalty
}

// Interference returns the total interference penalty time charged (also
// inside SimulatedIO).
func (d *Disk) Interference() time.Duration { return d.interferenceTime }

// SetFaults arms the disk with a fault injector, recovered from under
// FaultCost's bounded retry. A nil injector disarms; the disarmed disk is
// byte-identical to the seed.
func (d *Disk) SetFaults(inj FaultInjector) { d.faults = inj }

// chargeFault prices and records one page read's fault recovery at the
// disk's current virtual time (see faults); returns the extra cost to fold
// into the read. No-op (and no overhead beyond one nil check) when disarmed.
func (d *Disk) chargeFault(p PageID) time.Duration {
	if d.faults == nil {
		return 0
	}
	now := d.stats.SimulatedIO
	if d.timed {
		now = d.now
	}
	out := d.model.FaultCost(d.faults, p, now)
	satAdd(&d.stats.FaultRetries, out.Retries)
	if out.TimedOut {
		satAdd(&d.stats.TimedOutReads, 1)
	}
	return out.Extra
}

// SetBacking arms the disk with a durable file store: every simulated read
// is also performed against the file, verified per the store's checksum
// mode, and timed into DiskStats.WallRead. Nil disarms; the disarmed disk
// is byte-identical to the pure simulation.
func (d *Disk) SetBacking(fs *FileStore) {
	d.backing = fs
	if fs != nil && d.backBuf == nil {
		d.backBuf = make([]byte, scrubStretch*frameBytes)
	}
}

// Errs returns the corruption ledger: the typed errors backend reads
// surfaced (capped, oldest first). A retried-then-timed-out read never
// lands here and a corrupt read never lands in TimedOutReads — the two
// failure classes stay separately attributable.
func (d *Disk) Errs() []error { return d.errs }

// maxErrLedger caps the per-disk corruption ledger; past it only the
// counters grow.
const maxErrLedger = 16

// CorruptionCost prices one detected-corruption event on the virtual
// clock: the wasted transfer of the bad read, plus — when the page was
// repaired from the replica — a seek to the replica and two transfers
// (read the good copy, rewrite the bad one).
func (m CostModel) CorruptionCost(repaired bool) time.Duration {
	c := m.Transfer
	if repaired {
		c += m.Seek + 2*m.Transfer
	}
	return c
}

// ReadBacked physically performs one backend page read: wall time lands in
// stats.WallRead, detected corruption is counted and priced
// (CorruptionCost), and unrepairable reads append their typed error to the
// capped ledger. It returns the extra VIRTUAL cost to fold into the
// simulated read. A nil fs is a no-op.
func ReadBacked(fs *FileStore, m CostModel, p PageID, stats *DiskStats, buf []byte, errs *[]error) time.Duration {
	if fs == nil {
		return 0
	}
	start := time.Now()
	_, repaired, err := fs.ReadPage(p, buf)
	stats.WallRead += time.Since(start)
	if err == nil && !repaired {
		return 0
	}
	var extra time.Duration
	if repaired {
		satAdd(&stats.CorruptPages, 1)
		satAdd(&stats.RepairedPages, 1)
		extra = m.CorruptionCost(true)
	} else {
		var cpe *CorruptPageError
		if errors.As(err, &cpe) {
			satAdd(&stats.CorruptPages, 1)
			extra = m.CorruptionCost(false)
		}
		if errs != nil && len(*errs) < maxErrLedger {
			*errs = append(*errs, err)
		}
	}
	return extra
}

// readBackedSweep physically performs a sweep's backend reads, one pread
// per run of pages on consecutive file slots (FileStore.ReadRun); a page a
// run stops at goes through ReadBacked, the one path that detects, repairs
// and prices corruption. Gaps the cost model bridges are not read: a
// bridged run is mostly pages nobody asked for. Returns the extra virtual
// cost, as ReadBacked does.
func (d *Disk) readBackedSweep(sorted []PageID) time.Duration {
	var extra time.Duration
	for len(sorted) > 0 {
		start := time.Now()
		n := d.backing.ReadRun(sorted, d.backBuf)
		d.stats.WallRead += time.Since(start)
		if n == 0 {
			extra += ReadBacked(d.backing, d.model, sorted[0], &d.stats, d.backBuf, &d.errs)
			n = 1
		}
		sorted = sorted[n:]
	}
	return extra
}

// ScrubStep advances the background integrity scrub by up to max pages
// (FileStore.Scrub) and returns the virtual cost charged: one seek to move
// the arm to the scrub cursor, one transfer per page verified, and the
// repair price for each page healed. The cost lands in the scrub ledger and
// SimulatedIO only — it never pays interference and is not a read the
// caller waits on. No-op without a backing store.
func (d *Disk) ScrubStep(max int) time.Duration {
	if d.backing == nil || max <= 0 {
		return 0
	}
	start := time.Now()
	rep := d.backing.scrub(max, d.backBuf)
	d.stats.WallRead += time.Since(start)
	if rep.Scanned == 0 {
		return 0
	}
	cost := d.model.Seek + time.Duration(rep.Scanned)*d.model.Transfer +
		time.Duration(rep.Repaired)*(d.model.Seek+2*d.model.Transfer)
	satAdd(&d.stats.ScrubbedPages, rep.Scanned)
	satAdd(&d.stats.CorruptPages, rep.Corrupt)
	satAdd(&d.stats.RepairedPages, rep.Repaired)
	d.stats.ScrubIO += cost
	d.stats.SimulatedIO += cost
	// The scrub moved the arm; the current stream's next read seeks back.
	// Unobservable on the serving path, where every turn begins with
	// ResetHead on its own stream.
	d.heads[d.cur] = InvalidPage
	return cost
}

// ScrubIdle is the one scrub pacing rule: spend an idle stretch of prefetch
// window on the background scrub, at most maxPages pages and no more than
// fit the idle time at one Transfer each, so scrubbing never competes with
// demand reads or planned prefetch (engine.Config.ScrubPages). A
// non-positive idle window scrubs nothing.
func (d *Disk) ScrubIdle(idle time.Duration, maxPages int) time.Duration {
	if idle <= 0 {
		return 0
	}
	if t := d.model.Transfer; t > 0 {
		if byTime := int(idle / t); byTime < maxPages {
			maxPages = byTime
		}
	}
	return d.ScrubStep(maxPages)
}

// Model returns the disk's cost model.
func (d *Disk) Model() CostModel { return d.model }

// PageCost prices reading page p with the head at `head` (InvalidPage =
// unknown position): one Transfer, plus one Seek unless the read is
// physically sequential. It reports whether a seek was paid.
func (m CostModel) PageCost(head, p PageID) (cost time.Duration, seek bool) {
	cost = m.Transfer
	if head == InvalidPage || p != head+1 {
		cost += m.Seek
		seek = true
	}
	return cost, seek
}

// MaxBridge returns the largest forward physical gap (in pages) the
// batched elevator reads through instead of seeking over: bridging g
// pages costs g·Transfer, seeking costs Seek, so any gap with
// g·Transfer < Seek is cheaper to stream past (~124 pages under the
// default model). The per-page path never bridges.
func (m CostModel) MaxBridge() PageID {
	if m.Transfer <= 0 || m.Seek <= 0 {
		return 0
	}
	return PageID((m.Seek - 1) / m.Transfer)
}

// ReadPage simulates reading one (logical) page on the current stream and
// returns its cost. The head moves in physical space: seeks are charged on
// physical, not logical, discontinuities.
func (d *Disk) ReadPage(p PageID) time.Duration {
	phys := d.store.PhysicalPage(p)
	cost, seek := d.model.PageCost(d.heads[d.cur], phys)
	if seek {
		d.stats.Seeks++
		cost += d.interfere(1)
	}
	cost += d.chargeFault(p)
	if d.backing != nil {
		cost += ReadBacked(d.backing, d.model, p, &d.stats, d.backBuf, &d.errs)
	}
	d.heads[d.cur] = phys
	d.stats.PagesRead++
	d.stats.SimulatedIO += cost
	return cost
}

// ReadPages simulates reading a set of pages one by one in ascending logical
// order — the seed's per-page path, kept for the non-batched configuration's
// byte-identical goldens — and returns the total cost. The input slice is
// not modified.
func (d *Disk) ReadPages(pages []PageID) time.Duration {
	d.batchBuf = append(d.batchBuf[:0], pages...)
	sortPageIDs(d.batchBuf)
	var total time.Duration
	for _, p := range d.batchBuf {
		total += d.ReadPage(p)
	}
	return total
}

// SweepCost prices one elevator sweep over pages already sorted in
// ascending physical order, starting from head position `last` (physical
// address; InvalidPage = unknown). A sweep merges pages into runs — a run
// extends through exact adjacency AND through forward gaps of up to
// MaxBridge pages, which the arm streams past because that is cheaper
// than the seek it replaces. It returns the seeks paid, the pages bridged
// and the final head position; the sweep's time is
// seeks·Seek + (len(sorted)+bridged)·Transfer. Duplicates cost one
// transfer each (the head is already on the page). The input must not be
// empty.
func (m CostModel) SweepCost(s *Store, sorted []PageID, last PageID) (seeks, bridged int64, newLast PageID) {
	maxBridge := m.MaxBridge()
	i := 0
	if last == InvalidPage {
		// Unknown head: the first read always seeks. Hoisting this case
		// keeps the loop's run-extension check branch-free (InvalidPage + 1
		// wraps to 0 and must not match physical page 0).
		seeks = 1
		last = s.PhysicalPage(sorted[0])
		i = 1
	}
	for ; i < len(sorted); i++ {
		phys := s.PhysicalPage(sorted[i])
		// delta==0: duplicate, head already on the page. delta==1: exact
		// run extension. 1<delta<=maxBridge+1: bridge the gap. Otherwise
		// seek — including backward moves, whose delta wraps the uint32
		// range and lands far above any bridge window. The seek increment
		// is a compare+set, not a branch, so run boundaries never
		// mispredict; bridging gaps are rarer and may branch.
		delta := phys - last
		farther := int64(1)
		if delta <= maxBridge+1 {
			farther = 0
		}
		seeks += farther
		if farther == 0 && delta > 1 {
			bridged += int64(delta - 1)
		}
		last = phys
	}
	return seeks, bridged, last
}

// ReadSorted simulates one elevator sweep on the current stream over pages
// already in ascending physical order — e.g. a single run from Store.Runs —
// without copying or re-sorting, and returns its cost. See SweepCost for the
// run-merging and gap-bridging rules.
func (d *Disk) ReadSorted(sorted []PageID) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	seeks, bridged, last := d.model.SweepCost(d.store, sorted, d.heads[d.cur])
	d.heads[d.cur] = last
	cost := time.Duration(seeks)*d.model.Seek +
		time.Duration(int64(len(sorted))+bridged)*d.model.Transfer +
		d.interfere(seeks)
	// Fault recovery and backend verification per page of the sweep, all at
	// the sweep's start time: a faulted or corrupt page breaks the elevator's
	// stream, its wasted transfers, backoff and repair charged on top of the
	// sweep.
	if d.faults != nil {
		for _, p := range sorted {
			cost += d.chargeFault(p)
		}
	}
	if d.backing != nil {
		cost += d.readBackedSweep(sorted)
	}
	d.stats.Seeks += seeks
	d.stats.PagesRead += int64(len(sorted))
	d.stats.BridgedPages += bridged
	d.stats.SimulatedIO += cost
	return cost
}

// ReadBatch simulates one elevator sweep over an arbitrary batch: the
// pages are sorted by physical address (the input slice is not modified)
// and read via ReadSorted.
func (d *Disk) ReadBatch(pages []PageID) time.Duration {
	if len(pages) == 0 {
		return 0
	}
	d.batchBuf = append(d.batchBuf[:0], pages...)
	d.store.ElevatorSort(d.batchBuf)
	return d.ReadSorted(d.batchBuf)
}

// ColdCost returns the simulated cost of reading the pages from disk without
// performing the read (no counters or head movement change). It assumes the
// same ascending-physical-order schedule as ReadPages/ReadBatch and an
// initial seek: a seek at the start and at every physical discontinuity, a
// transfer per page. The translation and sort reuse the disk's scratch
// buffer. The engine prices a demand set it has already put in physical
// order without sorting again, by the same rule.
func (d *Disk) ColdCost(pages []PageID) time.Duration {
	d.coldBuf = d.coldBuf[:0]
	for _, p := range pages {
		d.coldBuf = append(d.coldBuf, d.store.PhysicalPage(p))
	}
	sortPageIDs(d.coldBuf)
	total := time.Duration(0)
	last := InvalidPage
	for _, p := range d.coldBuf {
		if last == InvalidPage || p != last+1 {
			total += d.model.Seek
		}
		total += d.model.Transfer
		last = p
	}
	return total
}

// ResetHead forgets the current stream's physical head position, e.g. after
// the engine clears caches between sequences ("we clear the prefetch cache,
// the operating system cache and the disk buffers", §7.1).
func (d *Disk) ResetHead() { d.heads[d.cur] = InvalidPage }

// ChargeHA folds the sharded failover router's high-availability charges
// into this disk's ledgers (DESIGN.md §13): faultDelay is extra virtual
// time the shard-fault universe billed onto reads this disk served
// (brownout inflation), added to SimulatedIO; replicaPages counts pages
// served here from a replica slice, each surcharged CostModel.ReplicaRead.
// Returns the replica surcharge so the caller can fold it into the service
// time it is merging.
func (d *Disk) ChargeHA(faultDelay time.Duration, replicaPages int64) time.Duration {
	rep := time.Duration(replicaPages) * d.model.ReplicaRead
	d.stats.SimulatedIO += faultDelay + rep
	satAdd(&d.stats.ReplicaPages, replicaPages)
	return rep
}

// Stats returns the accumulated I/O statistics.
func (d *Disk) Stats() DiskStats { return d.stats }

// ResetStats zeroes the accumulated statistics.
func (d *Disk) ResetStats() { d.stats = DiskStats{} }

// sortPageIDs sorts page IDs ascending in place, the order a disk scheduler
// would issue them. The dedicated insertion/quick hybrid is kept because it
// measured faster than slices.Sort on the sets this path sorts: on 8 to 1500
// distinct pages slices.Sort took 7–37 % longer (go1.24, 2-vCPU Xeon, median
// of three 200 000-iteration runs).
func sortPageIDs(p []PageID) {
	if len(p) < 24 {
		for i := 1; i < len(p); i++ {
			v := p[i]
			j := i - 1
			for j >= 0 && p[j] > v {
				p[j+1] = p[j]
				j--
			}
			p[j+1] = v
		}
		return
	}
	pivot := p[len(p)/2]
	lo, hi := 0, len(p)-1
	for lo <= hi {
		for p[lo] < pivot {
			lo++
		}
		for p[hi] > pivot {
			hi--
		}
		if lo <= hi {
			p[lo], p[hi] = p[hi], p[lo]
			lo++
			hi--
		}
	}
	sortPageIDs(p[:hi+1])
	sortPageIDs(p[lo:])
}
