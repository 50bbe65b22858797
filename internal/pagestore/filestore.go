// Durable file-backed page store. The simulated Disk prices every read on
// the virtual clock; a FileStore makes those reads real — one page-aligned
// file whose physical slot order IS the store's physical layout, read with
// pread (os.File.ReadAt), one call per run of consecutive slots a sweep
// touches (ReadRun) or per page (ReadPage), and measured in wall-clock
// nanoseconds alongside the simulated cost (DESIGN.md §10).
//
// A real backend must survive real failure modes, so the file format is
// hardened end-to-end:
//
//   - every page payload carries a CRC32-C checksum and a generation stamp
//     in a header table, verified on EVERY read — there is no verify-once
//     cache and no frame a read or a scrub skips; mismatches surface as a
//     typed *CorruptPageError and, when a replica exists, are repaired in
//     place (recoverPage, the one recovery path);
//   - Relayout is an actual on-disk rewrite: page-at-a-time into a shadow
//     file, fsync, then one atomic rename, generation-stamped so a crash at
//     any enumerated point (RelayoutCrashPoints) leaves either the old or
//     the new file fully valid;
//   - a cursor-based Scrub walks pages in rate-limited steps, verifying
//     checksums and repairing bit rot before a demand read ever meets it.
//
// On-disk layout, format version 2 (all offsets fixed by the superblock):
//
//	[superblock 4096B][header table N×32B, zero-padded to 4096B][payload frames N×4096B]
//
// Frames live at dataOff + slot·4096 in PHYSICAL slot order; the header
// table entry for slot i names the logical page stored there, so the
// logical→physical permutation is recoverable from the file alone.
//
// Every checksum is CRC32-C (Castagnoli), which the standard library
// computes with the CPU's own instruction (SSE4.2 crc32q, ARMv8 CRC32C):
// 0.16 µs per 4 KB frame where the table-driven CRC64 of version 1 took
// 2.6 µs — more than the pread it guarded. Thirty-two bits are enough for
// a 4 KB frame: at 32 768 bits CRC-32C has Hamming distance 4, so every 1-,
// 2- and 3-bit error and every burst of up to 32 bits is caught — the
// damage ApplyCorruption models is single flipped bits and zeroed tails —
// and ext4 metadata, Btrfs, iSCSI and RocksDB blocks rely on the same
// polynomial at the same size. The 8-byte checksum fields keep their
// version-1 offsets (CRC in the low half, the high half must be zero), and
// each header entry now also carries a CRC32-C of itself in what was a
// reserved word. There is no version-1 reader: no page file outlives the
// process that wrote it (every CreateFileStore caller truncates into a
// temporary directory), so a second verification path would serve no file;
// decodeSuper refuses any other version by number.
package pagestore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"sync"
	"sync/atomic"

	"scout/internal/geom"
)

const (
	fileMagic   uint32 = 0x53435446 // "SCTF"
	pageMagic   uint32 = 0x53435450 // "SCTP"
	fileVersion uint32 = 2

	superBytes = PageSizeBytes // superblock occupies one aligned page
	entryBytes = 32            // header-table entry size
	frameBytes = PageSizeBytes // one payload frame
	objBytes   = 64            // one encoded Object record

	// scrubStretch is how many consecutive frames one Scrub read covers, and
	// so the size in frames of the buffer a caller lends it (Disk.backBuf).
	scrubStretch = 64

	// shadowSuffix and replicaSuffix name the sibling files next to the
	// primary: the in-flight relayout target and the repair source.
	shadowSuffix  = ".shadow"
	replicaSuffix = ".replica"
)

// castagnoli is the CRC32-C table every checksum in the file format uses.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// checksum is the one checksum of format v2: CRC32-C in the low 32 bits of
// the 8-byte on-disk field, the high 32 bits zero. hash/crc32 dispatches
// Castagnoli through a package-level function variable, so b escapes: hand
// it caller-owned buffers, never a per-call make on a hot path.
func checksum(b []byte) uint64 { return uint64(crc32.Checksum(b, castagnoli)) }

// ChecksumMode selects how much integrity machinery a FileStore runs per
// read.
type ChecksumMode int

const (
	// ChecksumOff reads payloads without verification — the baseline the
	// dur1 experiment measures silent corruption against.
	ChecksumOff ChecksumMode = iota
	// ChecksumVerify checks every read against the header table; mismatches
	// surface as *CorruptPageError.
	ChecksumVerify
	// ChecksumRepair verifies and, on mismatch, repairs the page in place
	// from the replica file when one exists and itself verifies.
	ChecksumRepair
)

// String names the mode.
func (m ChecksumMode) String() string {
	switch m {
	case ChecksumOff:
		return "off"
	case ChecksumVerify:
		return "verify"
	case ChecksumRepair:
		return "repair"
	}
	return fmt.Sprintf("ChecksumMode(%d)", int(m))
}

// FileStoreConfig parameterizes a FileStore.
type FileStoreConfig struct {
	// Mode is the per-read integrity level (ChecksumOff is the zero
	// value).
	Mode ChecksumMode
	// Replica maintains a full second copy of the file (path + ".replica")
	// as the repair source: a checksum mismatch on the primary is healed
	// from the replica when the replica's copy of the page verifies.
	Replica bool
}

// CorruptPageError is the typed verification failure a hardened read
// surfaces: the page's stored bytes do not match its header-table entry
// and could not be repaired. It must never be masked as a timeout — the
// retry machinery counts it separately (DiskStats.CorruptPages).
type CorruptPageError struct {
	Page   PageID // logical page
	Slot   PageID // physical slot in the file
	Path   string
	Reason string
}

func (e *CorruptPageError) Error() string {
	return fmt.Sprintf("pagestore: corrupt page %d (slot %d) in %s: %s",
		e.Page, e.Slot, e.Path, e.Reason)
}

// ErrInjectedCrash marks a relayout killed at an injected crash point. The
// FileStore that returned it simulates a dead process: discard it and
// OpenFileStore the path again to run recovery.
var ErrInjectedCrash = errors.New("pagestore: injected relayout crash")

// CrashPoint enumerates the states a crash can leave an on-disk relayout
// in. RelayoutCrashPoints lists them all; the crash-matrix test kills a
// relayout at every point and proves reopening always yields a fully valid
// store.
type CrashPoint int

const (
	// CrashBeforeShadow dies before any byte is written.
	CrashBeforeShadow CrashPoint = iota
	// CrashShadowFirstPage dies after the shadow's first payload frame.
	CrashShadowFirstPage
	// CrashShadowHalfPages dies halfway through the shadow's payload sweep.
	CrashShadowHalfPages
	// CrashShadowAllPages dies after every frame but before the shadow's
	// header table and superblock.
	CrashShadowAllPages
	// CrashShadowSuperblock dies after the shadow superblock is written but
	// before it is fsynced.
	CrashShadowSuperblock
	// CrashShadowSynced dies after the shadow is durable, before the rename.
	CrashShadowSynced
	// CrashAfterRename dies after the atomic rename: the primary is the new
	// generation, the replica (when kept) is stale.
	CrashAfterRename
	// CrashAfterReplicaWrite dies after the replica is rewritten but before
	// it is fsynced.
	CrashAfterReplicaWrite

	numCrashPoints
)

// RelayoutCrashPoints returns every enumerated crash point, in relayout
// order.
func RelayoutCrashPoints() []CrashPoint {
	pts := make([]CrashPoint, numCrashPoints)
	for i := range pts {
		pts[i] = CrashPoint(i)
	}
	return pts
}

// String names the crash point for test output.
func (p CrashPoint) String() string {
	names := [...]string{
		"before-shadow", "shadow-first-page", "shadow-half-pages",
		"shadow-all-pages", "shadow-superblock", "shadow-synced",
		"after-rename", "after-replica-write",
	}
	if int(p) < len(names) {
		return names[p]
	}
	return fmt.Sprintf("crash-point-%d", int(p))
}

// Crasher injects process death into Relayout: CrashAt(step) reporting true
// kills the relayout at that enumerated CrashPoint. fault.StorageInjector
// implements it deterministically; nil never crashes.
type Crasher interface {
	CrashAt(step int) bool
}

// StorageFaultInjector is the deterministic at-rest damage a FileStore can
// apply to itself (ApplyCorruption): which pages rot, which bit flips, and
// which writes tear. Implementations must be pure functions of their inputs
// (see internal/fault.StorageInjector) so every run is byte-identical.
type StorageFaultInjector interface {
	// PageCorrupt reports whether page p suffers a flipped bit.
	PageCorrupt(p PageID) bool
	// CorruptBit returns the deterministic bit index the flip hits; taken
	// modulo the frame's bit width.
	CorruptBit(p PageID) int
	// TornWrite reports whether page p's last write tore (its tail is lost).
	TornWrite(p PageID) bool
}

// FileStoreStats are a FileStore's own cumulative counters, safe to read
// concurrently with reads from cloned engines.
type FileStoreStats struct {
	Reads           int64 // payload frames read (demand + scrub)
	CorruptDetected int64 // verification failures observed
	Repaired        int64 // pages healed from the replica
	RepairFailures  int64 // verification failures with no usable replica copy
	// SilentCorruptReads is a ground-truth ledger, not a detection: reads of
	// pages ApplyCorruption damaged while checksums were off. Only the dur1
	// experiment (which injected the damage and so knows the truth) reads it.
	SilentCorruptReads int64
	ScrubbedPages      int64
}

// pageHeader is one in-memory header-table entry.
type pageHeader struct {
	page     PageID
	length   uint32
	checksum uint64
}

// FileStore is the durable file-backed page store. Reads (ReadPage, Scrub,
// VerifyAgainst) are safe for concurrent use from cloned engines; repairs
// serialize on an internal mutex. Relayout must not run concurrently with
// reads, exactly like Store.Relayout.
type FileStore struct {
	path string
	cfg  FileStoreConfig

	f   *os.File
	rep *os.File // nil unless cfg.Replica

	gen       uint64
	n         int
	perPage   int
	layout    string
	dataOff   int64
	headers   []pageHeader // authoritative after Open/Create; slot order
	slotOf    []PageID     // logical → slot
	logicalAt []PageID     // slot → logical
	// badPages maps logical pages whose header-table entry failed
	// validation at Open and could not be repaired: reads are corrupt until
	// a scrub or replica heals them.
	badPages map[PageID]string

	// known is ApplyCorruption's ground-truth damage ledger (see
	// FileStoreStats.SilentCorruptReads).
	known map[PageID]bool

	mu          sync.Mutex // serializes repairs and the scrub cursor
	scrubCursor int

	reads    atomic.Int64
	corrupt  atomic.Int64
	repaired atomic.Int64
	repFail  atomic.Int64
	silent   atomic.Int64
	scrubbed atomic.Int64
}

// Stats snapshots the store's counters.
func (fs *FileStore) Stats() FileStoreStats {
	return FileStoreStats{
		Reads:              fs.reads.Load(),
		CorruptDetected:    fs.corrupt.Load(),
		Repaired:           fs.repaired.Load(),
		RepairFailures:     fs.repFail.Load(),
		SilentCorruptReads: fs.silent.Load(),
		ScrubbedPages:      fs.scrubbed.Load(),
	}
}

// Path returns the primary file's path.
func (fs *FileStore) Path() string { return fs.path }

// Generation returns the file's current generation stamp (1 at creation,
// +1 per completed relayout).
func (fs *FileStore) Generation() uint64 { return fs.gen }

// NumPages returns the number of pages stored.
func (fs *FileStore) NumPages() int { return fs.n }

// Mode returns the configured checksum mode.
func (fs *FileStore) Mode() ChecksumMode { return fs.cfg.Mode }

// LayoutName returns the layout name stamped in the superblock.
func (fs *FileStore) LayoutName() string { return fs.layout }

// WasCorrupted reports whether ApplyCorruption damaged page p (ground
// truth for experiments; a repaired page still reports true).
func (fs *FileStore) WasCorrupted(p PageID) bool { return fs.known[PageID(p)] }

// frameOff returns the file offset of physical slot s's payload frame.
func (fs *FileStore) frameOff(slot PageID) int64 {
	return fs.dataOff + int64(slot)*frameBytes
}

// entryOff returns the file offset of slot s's header-table entry.
func entryOff(slot PageID) int64 { return superBytes + int64(slot)*entryBytes }

// dataOffFor returns the payload-region offset for an n-page file: the
// header table is zero-padded out to a page boundary so frames stay
// 4096-aligned.
func dataOffFor(n int) int64 {
	hdr := int64(n) * entryBytes
	return superBytes + (hdr+frameBytes-1)/frameBytes*frameBytes
}

// encodeObject writes o's 64-byte record at buf[0:64].
func encodeObject(buf []byte, o Object) {
	binary.LittleEndian.PutUint32(buf[0:4], uint32(o.ID))
	binary.LittleEndian.PutUint32(buf[4:8], uint32(o.Struct))
	binary.LittleEndian.PutUint64(buf[8:16], math.Float64bits(o.Radius))
	putVec(buf[16:40], o.Seg.A)
	putVec(buf[40:64], o.Seg.B)
}

// decodeObject reads the 64-byte record at buf[0:64].
func decodeObject(buf []byte) Object {
	var o Object
	o.ID = ObjectID(binary.LittleEndian.Uint32(buf[0:4]))
	o.Struct = int32(binary.LittleEndian.Uint32(buf[4:8]))
	o.Radius = math.Float64frombits(binary.LittleEndian.Uint64(buf[8:16]))
	o.Seg.A = getVec(buf[16:40])
	o.Seg.B = getVec(buf[40:64])
	return o
}

func putVec(buf []byte, v geom.Vec3) {
	binary.LittleEndian.PutUint64(buf[0:8], math.Float64bits(v.X))
	binary.LittleEndian.PutUint64(buf[8:16], math.Float64bits(v.Y))
	binary.LittleEndian.PutUint64(buf[16:24], math.Float64bits(v.Z))
}

func getVec(buf []byte) geom.Vec3 {
	return geom.V(
		math.Float64frombits(binary.LittleEndian.Uint64(buf[0:8])),
		math.Float64frombits(binary.LittleEndian.Uint64(buf[8:16])),
		math.Float64frombits(binary.LittleEndian.Uint64(buf[16:24])),
	)
}

// encodePage fills frame (len frameBytes) with page p's objects and returns
// the payload length.
func encodePage(s *Store, p PageID, frame []byte) uint32 {
	clear(frame)
	off := 0
	for _, o := range s.PageSlice(p) {
		encodeObject(frame[off:off+objBytes], o)
		off += objBytes
	}
	return uint32(off)
}

// superblock is the decoded fixed-offset superblock.
type superblock struct {
	gen     uint64
	n       int
	perPage int
	layout  string
	dataOff int64
}

// encodeSuper renders the superblock into a frame-sized page.
func encodeSuper(sb superblock) []byte {
	buf := make([]byte, superBytes)
	binary.LittleEndian.PutUint32(buf[0:4], fileMagic)
	binary.LittleEndian.PutUint32(buf[4:8], fileVersion)
	binary.LittleEndian.PutUint64(buf[8:16], sb.gen)
	binary.LittleEndian.PutUint64(buf[16:24], uint64(sb.n))
	binary.LittleEndian.PutUint32(buf[24:28], uint32(sb.perPage))
	binary.LittleEndian.PutUint64(buf[28:36], uint64(sb.dataOff))
	name := sb.layout
	if len(name) > 24 {
		name = name[:24]
	}
	copy(buf[36:60], name)
	binary.LittleEndian.PutUint64(buf[superBytes-8:], checksum(buf[:superBytes-8]))
	return buf
}

// decodeSuper validates and decodes a superblock page.
func decodeSuper(buf []byte) (superblock, error) {
	var sb superblock
	if len(buf) < superBytes {
		return sb, fmt.Errorf("pagestore: short superblock (%d bytes)", len(buf))
	}
	if binary.LittleEndian.Uint32(buf[0:4]) != fileMagic {
		return sb, errors.New("pagestore: bad superblock magic")
	}
	if v := binary.LittleEndian.Uint32(buf[4:8]); v != fileVersion {
		return sb, fmt.Errorf("pagestore: unsupported file version %d", v)
	}
	if got, want := binary.LittleEndian.Uint64(buf[superBytes-8:]), checksum(buf[:superBytes-8]); got != want {
		return sb, errors.New("pagestore: superblock checksum mismatch")
	}
	sb.gen = binary.LittleEndian.Uint64(buf[8:16])
	sb.n = int(binary.LittleEndian.Uint64(buf[16:24]))
	sb.perPage = int(binary.LittleEndian.Uint32(buf[24:28]))
	sb.dataOff = int64(binary.LittleEndian.Uint64(buf[28:36]))
	end := 36
	for end < 60 && buf[end] != 0 {
		end++
	}
	sb.layout = string(buf[36:end])
	// Page IDs are 32 bits with InvalidPage reserved, which also keeps
	// dataOffFor and fits clear of int64 overflow on a crafted count.
	if sb.n < 0 || sb.n >= int(InvalidPage) || sb.dataOff != dataOffFor(sb.n) ||
		sb.perPage <= 0 || sb.perPage > frameBytes/objBytes {
		return sb, fmt.Errorf("pagestore: implausible superblock geometry (n=%d perPage=%d dataOff=%d)", sb.n, sb.perPage, sb.dataOff)
	}
	return sb, nil
}

// entrySum is a header-table entry's CRC32-C over itself, its own field
// (bytes 12–16) skipped. Without it a flipped bit in the page field makes
// one slot claim its neighbour's logical page, and that page then reads
// back as the wrong frame with a matching frame checksum (FuzzOpenFileStore
// found exactly this).
func entrySum(buf []byte) uint32 {
	return crc32.Update(crc32.Update(0, castagnoli, buf[0:12]), castagnoli, buf[16:entryBytes])
}

// encodeEntry renders one header-table entry.
func encodeEntry(buf []byte, h pageHeader, gen uint64) {
	binary.LittleEndian.PutUint32(buf[0:4], pageMagic)
	binary.LittleEndian.PutUint32(buf[4:8], uint32(h.page))
	binary.LittleEndian.PutUint32(buf[8:12], h.length)
	binary.LittleEndian.PutUint64(buf[16:24], gen)
	binary.LittleEndian.PutUint64(buf[24:32], h.checksum)
	binary.LittleEndian.PutUint32(buf[12:16], entrySum(buf))
}

// decodeEntry validates one header-table entry against the file generation.
func decodeEntry(buf []byte, gen uint64, n int) (pageHeader, error) {
	var h pageHeader
	if binary.LittleEndian.Uint32(buf[0:4]) != pageMagic {
		return h, errors.New("bad page magic")
	}
	if binary.LittleEndian.Uint32(buf[12:16]) != entrySum(buf) {
		return h, errors.New("entry checksum mismatch")
	}
	h.page = PageID(binary.LittleEndian.Uint32(buf[4:8]))
	h.length = binary.LittleEndian.Uint32(buf[8:12])
	if g := binary.LittleEndian.Uint64(buf[16:24]); g != gen {
		return h, fmt.Errorf("generation %d != file generation %d", g, gen)
	}
	h.checksum = binary.LittleEndian.Uint64(buf[24:32])
	if int(h.page) >= n || h.length > frameBytes {
		return h, fmt.Errorf("implausible entry (page=%d len=%d)", h.page, h.length)
	}
	if h.checksum>>32 != 0 {
		return h, fmt.Errorf("checksum field %#x has high bits set", h.checksum)
	}
	return h, nil
}

// writeImage streams a complete file image — superblock, header table,
// frames in slot order — to w, with optional crash injection. It returns
// the headers it wrote. The source of truth is the in-memory store.
func writeImage(w io.WriterAt, s *Store, logicalAt []PageID, gen uint64, layout string, crash Crasher) ([]pageHeader, error) {
	n := len(logicalAt)
	dataOff := dataOffFor(n)
	headers := make([]pageHeader, n)
	frame := make([]byte, frameBytes)
	die := func(pt CrashPoint) error { return fmt.Errorf("%w at %s", ErrInjectedCrash, pt) }
	for slot := 0; slot < n; slot++ {
		logical := logicalAt[slot]
		length := encodePage(s, logical, frame)
		headers[slot] = pageHeader{page: logical, length: length, checksum: checksum(frame)}
		if _, err := w.WriteAt(frame, dataOff+int64(slot)*frameBytes); err != nil {
			return nil, err
		}
		if crash != nil {
			if slot == 0 && crash.CrashAt(int(CrashShadowFirstPage)) {
				return nil, die(CrashShadowFirstPage)
			}
			if slot == n/2 && crash.CrashAt(int(CrashShadowHalfPages)) {
				return nil, die(CrashShadowHalfPages)
			}
		}
	}
	if crash != nil && crash.CrashAt(int(CrashShadowAllPages)) {
		return nil, die(CrashShadowAllPages)
	}
	table := make([]byte, dataOff-superBytes)
	for slot := 0; slot < n; slot++ {
		encodeEntry(table[slot*entryBytes:slot*entryBytes+entryBytes], headers[slot], gen)
	}
	if _, err := w.WriteAt(table, superBytes); err != nil {
		return nil, err
	}
	if _, err := w.WriteAt(encodeSuper(superblock{gen: gen, n: n, perPage: s.ObjectsPerPage(), layout: layout, dataOff: dataOff}), 0); err != nil {
		return nil, err
	}
	if crash != nil && crash.CrashAt(int(CrashShadowSuperblock)) {
		return nil, die(CrashShadowSuperblock)
	}
	return headers, nil
}

// slotOrder derives the slot→logical listing from the store's installed
// physical layout.
func slotOrder(s *Store) []PageID {
	n := s.NumPages()
	logicalAt := make([]PageID, n)
	for p := 0; p < n; p++ {
		logicalAt[s.PhysicalPage(PageID(p))] = PageID(p)
	}
	return logicalAt
}

// CreateFileStore writes a new page file for the paginated store at path
// (truncating any existing file), in the store's current physical layout,
// and returns the opened FileStore. With cfg.Replica a full second copy is
// written next to it as the repair source.
func CreateFileStore(path string, s *Store, cfg FileStoreConfig) (*FileStore, error) {
	if !s.Paginated() {
		return nil, errors.New("pagestore: CreateFileStore requires a paginated store")
	}
	if s.ObjectsPerPage() > frameBytes/objBytes {
		return nil, fmt.Errorf("pagestore: %d objects per page do not fit a %d-byte frame", s.ObjectsPerPage(), frameBytes)
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, fmt.Errorf("pagestore: create %s: %w", path, err)
	}
	logicalAt := slotOrder(s)
	const gen = 1
	headers, err := writeImage(f, s, logicalAt, gen, s.LayoutName(), nil)
	if err == nil {
		err = f.Sync()
	}
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("pagestore: write %s: %w", path, err)
	}
	fs := &FileStore{
		path: path, cfg: cfg, f: f,
		gen: gen, n: s.NumPages(), perPage: s.ObjectsPerPage(),
		layout: s.LayoutName(), dataOff: dataOffFor(s.NumPages()),
		headers: headers, logicalAt: logicalAt, slotOf: invert(logicalAt),
		badPages: map[PageID]string{}, known: map[PageID]bool{},
	}
	if cfg.Replica {
		if err := fs.rewriteReplica(); err != nil {
			f.Close()
			return nil, err
		}
	}
	return fs, nil
}

// rewriteReplica copies the primary's current bytes over the replica file
// and syncs it. Called at create, after a relayout, and by Open when the
// replica is missing or from another generation.
func (fs *FileStore) rewriteReplica() error {
	if fs.rep != nil {
		fs.rep.Close()
		fs.rep = nil
	}
	rep, err := os.OpenFile(fs.path+replicaSuffix, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("pagestore: replica for %s: %w", fs.path, err)
	}
	if _, err := fs.f.Seek(0, io.SeekStart); err != nil {
		rep.Close()
		return err
	}
	if _, err := io.Copy(rep, fs.f); err == nil {
		err = rep.Sync()
	} else {
		rep.Close()
		return fmt.Errorf("pagestore: replica for %s: %w", fs.path, err)
	}
	fs.rep = rep
	return nil
}

// Close closes the primary and replica files.
func (fs *FileStore) Close() error {
	var err error
	if fs.f != nil {
		err = fs.f.Close()
		fs.f = nil
	}
	if fs.rep != nil {
		if e := fs.rep.Close(); err == nil {
			err = e
		}
		fs.rep = nil
	}
	return err
}

// readSuperAt reads and validates the superblock of an arbitrary file,
// including that the geometry it declares fits inside the file: everything
// after this sizes allocations and reads by sb.n.
func readSuperAt(f *os.File) (superblock, error) {
	buf := make([]byte, superBytes)
	if _, err := f.ReadAt(buf, 0); err != nil {
		return superblock{}, err
	}
	sb, err := decodeSuper(buf)
	if err != nil {
		return sb, err
	}
	st, err := f.Stat()
	if err != nil {
		return sb, err
	}
	if end := sb.dataOff + int64(sb.n)*frameBytes; end > st.Size() {
		return sb, fmt.Errorf("pagestore: implausible superblock geometry (%d pages end at byte %d of a %d-byte file)", sb.n, end, st.Size())
	}
	return sb, nil
}

// readTable reads the whole (zero-padded) header table in one read; slot
// i's entry is table[i*entryBytes:][:entryBytes].
func readTable(f *os.File, sb superblock) ([]byte, error) {
	table := make([]byte, sb.dataOff-superBytes)
	if _, err := f.ReadAt(table, superBytes); err != nil {
		return nil, err
	}
	return table, nil
}

// imageValid reports whether the file is a complete, self-consistent image:
// valid superblock, every header entry valid with the logical pages forming
// a bijection, and every frame matching its checksum. Recovery uses it to
// decide whether an orphaned shadow may be promoted.
func imageValid(f *os.File) (superblock, bool) {
	sb, err := readSuperAt(f)
	if err != nil {
		return sb, false
	}
	table, err := readTable(f, sb)
	if err != nil {
		return sb, false
	}
	frame := make([]byte, frameBytes)
	seen := make([]bool, sb.n)
	for slot := 0; slot < sb.n; slot++ {
		h, err := decodeEntry(table[slot*entryBytes:], sb.gen, sb.n)
		if err != nil || seen[h.page] {
			return sb, false
		}
		seen[h.page] = true
		if _, err := f.ReadAt(frame, sb.dataOff+int64(slot)*frameBytes); err != nil {
			return sb, false
		}
		if checksum(frame) != h.checksum {
			return sb, false
		}
	}
	return sb, true
}

// OpenFileStore opens (and, when needed, recovers) the page file at path.
// Recovery handles every state an interrupted relayout can leave behind:
// a complete, durable shadow with a newer generation is promoted (rolling
// the relayout forward); any other shadow is deleted (rolling it back);
// a stale or missing replica is rebuilt from the primary; and header-table
// entries that fail validation are repaired from the replica when its copy
// verifies, else recorded so reads surface *CorruptPageError.
func OpenFileStore(path string, cfg FileStoreConfig) (*FileStore, error) {
	shadowPath := path + shadowSuffix
	primary, perr := os.OpenFile(path, os.O_RDWR, 0)
	var psb superblock
	if perr == nil {
		psb, perr = readSuperAt(primary)
		if perr != nil {
			primary.Close()
		}
	}
	if sh, err := os.OpenFile(shadowPath, os.O_RDWR, 0); err == nil {
		ssb, ok := imageValid(sh)
		sh.Close()
		if ok && (perr != nil || ssb.gen > psb.gen) {
			// The crash hit after the shadow became durable but before (or
			// during) the swap: roll the relayout forward.
			if perr == nil {
				primary.Close()
			}
			if err := os.Rename(shadowPath, path); err != nil {
				return nil, fmt.Errorf("pagestore: promoting shadow %s: %w", shadowPath, err)
			}
			primary, perr = os.OpenFile(path, os.O_RDWR, 0)
			if perr == nil {
				psb, perr = readSuperAt(primary)
			}
		} else {
			// Partial or stale shadow: the primary is authoritative.
			os.Remove(shadowPath)
		}
	}
	if perr != nil {
		return nil, fmt.Errorf("pagestore: open %s: %w", path, perr)
	}

	fs := &FileStore{
		path: path, cfg: cfg, f: primary,
		gen: psb.gen, n: psb.n, perPage: psb.perPage, layout: psb.layout,
		dataOff: psb.dataOff,
		headers: make([]pageHeader, psb.n),
		slotOf:  make([]PageID, psb.n), logicalAt: make([]PageID, psb.n),
		badPages: map[PageID]string{}, known: map[PageID]bool{},
	}
	for i := range fs.slotOf {
		fs.slotOf[i] = InvalidPage
		fs.logicalAt[i] = InvalidPage
	}
	table, err := readTable(primary, psb)
	if err != nil {
		fs.Close()
		return nil, fmt.Errorf("pagestore: header table of %s: %w", path, err)
	}
	badSlots := map[PageID]string{}
	for slot := 0; slot < fs.n; slot++ {
		h, err := decodeEntry(table[slot*entryBytes:], fs.gen, fs.n)
		if err != nil {
			badSlots[PageID(slot)] = err.Error()
			continue
		}
		if fs.slotOf[h.page] != InvalidPage {
			badSlots[PageID(slot)] = fmt.Sprintf("page %d claimed twice", h.page)
			continue
		}
		fs.headers[slot] = h
		fs.slotOf[h.page] = PageID(slot)
		fs.logicalAt[slot] = h.page
	}

	if cfg.Replica {
		if err := fs.reconcileReplica(badSlots); err != nil {
			fs.Close()
			return nil, err
		}
	}
	// Whatever is still unmapped is lost until a replica heals it: reads of
	// those logical pages surface the typed corruption error.
	for logical, slot := range fs.slotOf {
		if slot == InvalidPage {
			fs.badPages[PageID(logical)] = "header-table entry lost"
		}
	}
	for slot, reason := range badSlots {
		if l := fs.logicalAt[slot]; l != InvalidPage {
			fs.badPages[l] = reason
		}
	}
	return fs, nil
}

// reconcileReplica opens the replica, rebuilding it from the primary when
// it is missing or from another generation, and uses a same-generation
// replica to repair header-table slots the primary lost.
func (fs *FileStore) reconcileReplica(badSlots map[PageID]string) error {
	repPath := fs.path + replicaSuffix
	rep, err := os.OpenFile(repPath, os.O_RDWR, 0)
	if err == nil {
		rsb, rerr := readSuperAt(rep)
		if rerr != nil || rsb.gen != fs.gen || rsb.n != fs.n {
			// Stale replica — e.g. a crash right after a relayout's rename.
			// The old generation cannot repair new-generation pages.
			rep.Close()
			rep = nil
		} else {
			fs.rep = rep
			entry := make([]byte, entryBytes)
			frame := make([]byte, frameBytes)
			for slot := range badSlots {
				if _, err := rep.ReadAt(entry, entryOff(slot)); err != nil {
					continue
				}
				h, err := decodeEntry(entry, fs.gen, fs.n)
				if err != nil || fs.slotOf[h.page] != InvalidPage {
					continue
				}
				if _, err := rep.ReadAt(frame, fs.frameOff(slot)); err != nil {
					continue
				}
				if checksum(frame) != h.checksum {
					continue
				}
				// The replica's copy of this slot verifies: heal the primary's
				// entry and frame.
				encodeEntry(entry, h, fs.gen)
				if _, err := fs.f.WriteAt(entry, entryOff(slot)); err != nil {
					return err
				}
				if _, err := fs.f.WriteAt(frame, fs.frameOff(slot)); err != nil {
					return err
				}
				fs.headers[slot] = h
				fs.slotOf[h.page] = slot
				fs.logicalAt[slot] = h.page
				fs.repaired.Add(1)
				delete(badSlots, slot)
			}
		}
	}
	if fs.rep == nil {
		return fs.rewriteReplica()
	}
	return nil
}

// ReadPage reads logical page p's payload with the configured integrity
// level, reusing buf's capacity. It returns the payload (nil on
// unrecoverable corruption), whether the page was repaired in place from
// the replica, and the typed *CorruptPageError on verification failure.
func (fs *FileStore) ReadPage(p PageID, buf []byte) (payload []byte, repaired bool, err error) {
	if int(p) >= fs.n {
		return nil, false, fmt.Errorf("pagestore: page %d out of range (%d pages)", p, fs.n)
	}
	if reason, bad := fs.badReason(p); bad {
		return fs.recoverPage(p, buf, reason)
	}
	slot := fs.slotOf[p]
	frame := growFrame(buf)
	if _, err := fs.f.ReadAt(frame, fs.frameOff(slot)); err != nil {
		return nil, false, fmt.Errorf("pagestore: read page %d of %s: %w", p, fs.path, err)
	}
	fs.reads.Add(1)
	if fs.cfg.Mode == ChecksumOff {
		if fs.known[p] {
			fs.silent.Add(1)
		}
		return frame[:fs.headers[slot].length], false, nil
	}
	if checksum(frame) == fs.headers[slot].checksum {
		return frame[:fs.headers[slot].length], false, nil
	}
	return fs.recoverPage(p, buf, "checksum mismatch")
}

// growFrame returns a frame-sized slice over buf's capacity.
func growFrame(buf []byte) []byte {
	if cap(buf) < frameBytes {
		return make([]byte, frameBytes)
	}
	return buf[:frameBytes]
}

// ReadRun is the fast path for a sweep already in ascending slot order: it
// reads the longest prefix of pages that sits on consecutive slots of the
// file — at most cap(buf)/4096 frames, stopping before any page in the
// bad-page ledger — with ONE pread into buf, verifies each frame per the
// configured mode exactly as ReadPage does, and returns how many leading
// pages came back clean. Those are counted in Stats().Reads and their
// payloads sit at buf[i*4096:][:length]. Zero means pages[0] needs ReadPage:
// it is out of range, lost, unreadable or fails its checksum, and detection,
// repair and the typed error all stay on that one path.
func (fs *FileStore) ReadRun(pages []PageID, buf []byte) (clean int) {
	limit := min(len(pages), cap(buf)/frameBytes)
	if limit == 0 || int(pages[0]) >= fs.n {
		return 0
	}
	first := fs.slotOf[pages[0]]
	run := 0
	fs.mu.Lock()
	for ; run < limit; run++ {
		p := pages[run]
		if int(p) >= fs.n || fs.slotOf[p] != first+PageID(run) {
			break
		}
		if _, bad := fs.badPages[p]; bad {
			break
		}
	}
	fs.mu.Unlock()
	if run == 0 {
		return 0
	}
	frames := buf[:run*frameBytes]
	if _, err := fs.f.ReadAt(frames, fs.frameOff(first)); err != nil {
		return 0
	}
	for ; clean < run; clean++ {
		if fs.cfg.Mode == ChecksumOff {
			if fs.known[pages[clean]] {
				fs.silent.Add(1)
			}
		} else if checksum(frames[clean*frameBytes:(clean+1)*frameBytes]) != fs.headers[int(first)+clean].checksum {
			break
		}
	}
	fs.reads.Add(int64(clean))
	return clean
}

// badReason reports (under the repair mutex, so concurrent readers observe
// repairs atomically) whether logical page p is in the bad-page ledger.
func (fs *FileStore) badReason(p PageID) (string, bool) {
	fs.mu.Lock()
	reason, ok := fs.badPages[p]
	fs.mu.Unlock()
	return reason, ok
}

// recoverPage is the verification-failure path: under ChecksumRepair with a
// usable replica it heals the primary in place and returns the payload;
// otherwise it returns the typed corruption error. Serialized so two
// sessions hitting the same rotten page repair it once.
func (fs *FileStore) recoverPage(p PageID, buf []byte, reason string) ([]byte, bool, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	slot := fs.slotOf[p]
	corruptErr := func() ([]byte, bool, error) {
		fs.corrupt.Add(1)
		if fs.cfg.Mode == ChecksumRepair {
			fs.repFail.Add(1)
		}
		return nil, false, &CorruptPageError{Page: p, Slot: slot, Path: fs.path, Reason: reason}
	}
	if slot == InvalidPage {
		return corruptErr()
	}
	frame := growFrame(buf)
	// Another session may have repaired the page while we waited.
	if _, err := fs.f.ReadAt(frame, fs.frameOff(slot)); err == nil {
		if _, bad := fs.badPages[p]; !bad && checksum(frame) == fs.headers[slot].checksum {
			return frame[:fs.headers[slot].length], false, nil
		}
	}
	if fs.cfg.Mode != ChecksumRepair || fs.rep == nil {
		return corruptErr()
	}
	if _, err := fs.rep.ReadAt(frame, fs.frameOff(slot)); err != nil {
		return corruptErr()
	}
	h := fs.headers[slot]
	if _, bad := fs.badPages[p]; bad {
		// The primary's header entry was lost too: trust the replica's.
		entry := make([]byte, entryBytes)
		if _, err := fs.rep.ReadAt(entry, entryOff(slot)); err != nil {
			return corruptErr()
		}
		rh, err := decodeEntry(entry, fs.gen, fs.n)
		if err != nil || rh.page != p {
			return corruptErr()
		}
		h = rh
	}
	if checksum(frame) != h.checksum {
		// Both copies rotted: unrecoverable, and reported as such — never
		// as a timeout.
		return corruptErr()
	}
	entry := make([]byte, entryBytes)
	encodeEntry(entry, h, fs.gen)
	if _, err := fs.f.WriteAt(entry, entryOff(slot)); err != nil {
		return corruptErr()
	}
	if _, err := fs.f.WriteAt(frame, fs.frameOff(slot)); err != nil {
		return corruptErr()
	}
	// Only the lost-entry path changes the header; readers outside the mutex
	// never touch a page still in the bad ledger, so this publish is safe.
	if fs.headers[slot] != h {
		fs.headers[slot] = h
	}
	delete(fs.badPages, p)
	fs.corrupt.Add(1)
	fs.repaired.Add(1)
	return frame[:h.length], true, nil
}

// DecodePage reads and decodes logical page p's objects (verifying per the
// configured mode).
func (fs *FileStore) DecodePage(p PageID) ([]Object, error) {
	payload, _, err := fs.ReadPage(p, nil)
	if err != nil {
		return nil, err
	}
	objs := make([]Object, 0, len(payload)/objBytes)
	for off := 0; off+objBytes <= len(payload); off += objBytes {
		objs = append(objs, decodeObject(payload[off:off+objBytes]))
	}
	return objs, nil
}

// VerifyAgainst checks the whole file against the in-memory store: every
// logical page must decode (checksums verified regardless of mode) to
// exactly the store's objects for that page — IDs, geometry and structure
// tags. This is the crash-matrix test's "result sets identical" oracle:
// identical page contents imply identical query results.
func (fs *FileStore) VerifyAgainst(s *Store) error {
	if s.NumPages() != fs.n {
		return fmt.Errorf("pagestore: file has %d pages, store has %d", fs.n, s.NumPages())
	}
	frame := make([]byte, frameBytes)
	for p := 0; p < fs.n; p++ {
		logical := PageID(p)
		if reason, bad := fs.badReason(logical); bad {
			return &CorruptPageError{Page: logical, Slot: fs.slotOf[logical], Path: fs.path, Reason: reason}
		}
		slot := fs.slotOf[logical]
		if _, err := fs.f.ReadAt(frame, fs.frameOff(slot)); err != nil {
			return err
		}
		h := fs.headers[slot]
		if checksum(frame) != h.checksum {
			return &CorruptPageError{Page: logical, Slot: slot, Path: fs.path, Reason: "checksum mismatch"}
		}
		want := s.PageSlice(logical)
		if int(h.length) != len(want)*objBytes {
			return fmt.Errorf("pagestore: page %d holds %d bytes, store has %d objects", p, h.length, len(want))
		}
		for i := range want {
			if got := decodeObject(frame[i*objBytes:]); got != want[i] {
				return fmt.Errorf("pagestore: page %d object %d decoded %+v, store has %+v", p, i, got, want[i])
			}
		}
	}
	return nil
}

// ApplyCorruption damages the primary file per the injector's deterministic
// decisions: a flipped bit (PageCorrupt/CorruptBit) or a torn write that
// loses the payload's tail — everything past its midpoint reads back as
// zeros, as if the write's later sectors never hit the platter (TornWrite).
// A tear that changes no byte (the tail was already zero) is not damage and
// is not counted. The replica is never damaged — it is the independent copy
// bit rot has to hit separately. The ground-truth ledger (WasCorrupted,
// SilentCorruptReads) records the damage so experiments can score detection
// without peeking.
func (fs *FileStore) ApplyCorruption(inj StorageFaultInjector) (flipped, torn int, err error) {
	if inj == nil {
		return 0, 0, nil
	}
	frame := make([]byte, frameBytes)
	for p := 0; p < fs.n; p++ {
		logical := PageID(p)
		hitFlip := inj.PageCorrupt(logical)
		hitTear := inj.TornWrite(logical)
		if !hitFlip && !hitTear {
			continue
		}
		slot := fs.slotOf[logical]
		if _, err := fs.f.ReadAt(frame, fs.frameOff(slot)); err != nil {
			return flipped, torn, err
		}
		if hitFlip {
			bit := inj.CorruptBit(logical) % (frameBytes * 8)
			if bit < 0 {
				bit = -bit
			}
			frame[bit/8] ^= 1 << (bit % 8)
			flipped++
		} else {
			length := int(fs.headers[slot].length)
			changed := false
			for i := length / 2; i < length; i++ {
				if frame[i] != 0 {
					frame[i] = 0
					changed = true
				}
			}
			if !changed {
				continue
			}
			torn++
		}
		if _, err := fs.f.WriteAt(frame, fs.frameOff(slot)); err != nil {
			return flipped, torn, err
		}
		fs.known[logical] = true
	}
	return flipped, torn, nil
}

// ScrubReport is one Scrub step's outcome.
type ScrubReport struct {
	Scanned  int64 // frames verified this step
	Corrupt  int64 // verification failures found
	Repaired int64 // of those, healed from the replica
}

// Scrub verifies up to max pages from the scrub cursor (wrapping at the end
// of the file) and, under ChecksumRepair, heals what it can from the
// replica. The step bound is the rate limit: callers pace scrubbing out of
// idle window time so it never competes with demand reads (see
// engine.Config.ScrubPages). With checksums off there is nothing to verify
// and Scrub reports zero work.
func (fs *FileStore) Scrub(max int) ScrubReport { return fs.scrub(max, nil) }

// scrub is Scrub reading into a buffer the caller lends. It claims cursor
// stretches of up to scrubStretch consecutive slots under the mutex and
// reads each with one pread; a buffer shorter than a stretch shortens the
// stretches, one shorter than a frame is replaced. The buffer is lent, not
// made here, because checksum's argument escapes: a per-call make would be
// a heap allocation on every idle window (Disk.ScrubStep lends backBuf).
func (fs *FileStore) scrub(max int, buf []byte) ScrubReport {
	var rep ScrubReport
	if fs.cfg.Mode == ChecksumOff || max <= 0 || fs.n == 0 {
		return rep
	}
	max = min(max, fs.n)
	if cap(buf) < frameBytes {
		buf = make([]byte, min(max, scrubStretch)*frameBytes)
	}
	for left := max; left > 0; {
		var bad [scrubStretch]bool
		fs.mu.Lock()
		first := fs.scrubCursor
		k := min(left, fs.n-first, scrubStretch, cap(buf)/frameBytes)
		fs.scrubCursor = (first + k) % fs.n
		if len(fs.badPages) > 0 {
			for i := 0; i < k; i++ {
				_, bad[i] = fs.badPages[fs.logicalAt[first+i]]
			}
		}
		fs.mu.Unlock()
		left -= k
		rep.Scanned += int64(k)
		// A short read verifies the frames it did deliver; the rest take the
		// recovery path below, as a failed single-frame read always has.
		got, _ := fs.f.ReadAt(buf[:k*frameBytes], fs.frameOff(PageID(first)))
		for i := 0; i < k; i++ {
			slot := first + i
			logical := fs.logicalAt[slot]
			frame := buf[i*frameBytes : (i+1)*frameBytes]
			if logical != InvalidPage && !bad[i] && (i+1)*frameBytes <= got &&
				checksum(frame) == fs.headers[slot].checksum {
				continue
			}
			rep.Corrupt++
			if logical != InvalidPage {
				if _, repaired, err := fs.recoverPage(logical, frame, "scrub checksum mismatch"); err == nil && repaired {
					rep.Repaired++
				}
			}
		}
	}
	fs.scrubbed.Add(rep.Scanned)
	return rep
}

// Relayout rewrites the file into the layout's physical order,
// crash-consistently: every frame is re-encoded page-at-a-time into a
// shadow file stamped with generation+1, the shadow is fsynced, and one
// atomic rename swaps it in; the replica (when kept) is then rewritten
// from the new primary. A crash at any enumerated point (Crasher; nil
// never crashes) leaves either the old or the new file fully valid — the
// crash-matrix test proves it for every point. On success the in-memory
// store's translation table is swapped too (Store.Relayout), so the cost
// model and the file can never disagree about physical adjacency. After
// ErrInjectedCrash the FileStore is dead — reopen the path to recover.
func (fs *FileStore) Relayout(s *Store, l Layout, crash Crasher) error {
	if s.NumPages() != fs.n {
		return fmt.Errorf("pagestore: relayout store has %d pages, file has %d", s.NumPages(), fs.n)
	}
	die := func(pt CrashPoint) error { return fmt.Errorf("%w at %s", ErrInjectedCrash, pt) }
	if crash != nil && crash.CrashAt(int(CrashBeforeShadow)) {
		return die(CrashBeforeShadow)
	}
	perm := l.Permutation(s)
	if len(perm) != fs.n {
		return fmt.Errorf("pagestore: layout %s returned %d slots for %d pages", l.Name(), len(perm), fs.n)
	}
	logicalAt := invert(perm)
	newGen := fs.gen + 1
	shadowPath := fs.path + shadowSuffix
	shadow, err := os.OpenFile(shadowPath, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("pagestore: shadow for %s: %w", fs.path, err)
	}
	headers, err := writeImage(shadow, s, logicalAt, newGen, l.Name(), crash)
	if err != nil {
		shadow.Close()
		return err
	}
	if crash != nil && crash.CrashAt(int(CrashShadowSuperblock)) {
		shadow.Close()
		return die(CrashShadowSuperblock)
	}
	if err := shadow.Sync(); err != nil {
		shadow.Close()
		return err
	}
	if crash != nil && crash.CrashAt(int(CrashShadowSynced)) {
		shadow.Close()
		return die(CrashShadowSynced)
	}
	if err := os.Rename(shadowPath, fs.path); err != nil {
		shadow.Close()
		return err
	}
	// The swap is committed: the old inode is gone, shadow IS the primary.
	fs.f.Close()
	fs.f = shadow
	fs.gen = newGen
	fs.layout = l.Name()
	fs.headers = headers
	fs.logicalAt = logicalAt
	fs.slotOf = invert(logicalAt)
	fs.badPages = map[PageID]string{}
	fs.mu.Lock()
	fs.scrubCursor = 0
	fs.mu.Unlock()
	if crash != nil && crash.CrashAt(int(CrashAfterRename)) {
		return die(CrashAfterRename)
	}
	if fs.cfg.Replica {
		if err := fs.rewriteReplica(); err != nil {
			return err
		}
		if crash != nil && crash.CrashAt(int(CrashAfterReplicaWrite)) {
			return die(CrashAfterReplicaWrite)
		}
	}
	// Keep the in-memory cost model's notion of physical adjacency in
	// lockstep with the file.
	return s.Relayout(l)
}
