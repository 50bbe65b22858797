package pagestore

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"scout/internal/geom"
)

// Fuzz targets for the on-disk decoders and for Paginate (ROADMAP 8(c)). The
// seed corpora run under plain `go test`; CI adds short -fuzz runs of
// FuzzOpenFileStore and FuzzPaginate.

// FuzzDecodeSuper: arbitrary bytes never panic the superblock decoder, and
// whatever it accepts has a geometry the rest of the code may size by.
func FuzzDecodeSuper(f *testing.F) {
	valid := encodeSuper(superblock{gen: 3, n: 12, perPage: 8, layout: "hilbert", dataOff: dataOffFor(12)})
	f.Add(valid)
	f.Add(valid[:100])
	f.Add([]byte{})
	huge := bytes.Clone(valid)
	binary.LittleEndian.PutUint64(huge[16:24], 1<<62)
	resum(huge)
	f.Add(huge)
	f.Fuzz(func(t *testing.T, data []byte) {
		sb, err := decodeSuper(data)
		if err != nil {
			return
		}
		if sb.n < 0 || sb.n >= int(InvalidPage) || sb.dataOff != dataOffFor(sb.n) ||
			sb.perPage <= 0 || sb.perPage*objBytes > frameBytes || len(sb.layout) > 24 {
			t.Fatalf("decodeSuper accepted %+v", sb)
		}
	})
}

// FuzzDecodeEntry: arbitrary entry bytes never panic the decoder, and an
// accepted entry names a page inside the file and a length inside a frame.
func FuzzDecodeEntry(f *testing.F) {
	valid := make([]byte, entryBytes)
	encodeEntry(valid, pageHeader{page: 5, length: 512, checksum: 0xdeadbeef}, 2)
	f.Add(valid, uint64(2), 12)
	f.Add(valid, uint64(3), 12)
	f.Add(valid, uint64(2), 4)
	f.Add(make([]byte, entryBytes), uint64(0), 0)
	f.Fuzz(func(t *testing.T, data []byte, gen uint64, n int) {
		if len(data) < entryBytes {
			return
		}
		h, err := decodeEntry(data, gen, n)
		if err != nil {
			return
		}
		if int(h.page) >= n || h.length > frameBytes || h.checksum>>32 != 0 {
			t.Fatalf("decodeEntry accepted %+v for a %d-page file", h, n)
		}
	})
}

// FuzzPaginate turns bytes into an (order, perPage) for a small clustered
// store. swaps is a list of (i, j) byte pairs, transpositions applied to the
// identity order; edits is a list of (slot, id) byte pairs written into it,
// which may repeat an ID or name one the store lacks, and an odd trailing
// byte b drops the last ID (b even) or appends b (b odd). With self set and
// a valid order, the store is first paginated into that order as one page,
// and Paginate is handed the store's own PageObjects(0).
//
// A rejected order (not a permutation, or perPage < 1) must leave every
// Object, PageOf, PageObjects, PageSlice and PageBounds as it was; an
// accepted one must give ⌈n/perPage⌉ pages and the store that paginating a
// fresh copy gives.
func FuzzPaginate(f *testing.F) {
	const n = 45
	f.Add(8, []byte{}, []byte{}, false)                          // identity
	f.Add(7, []byte{0, 44, 3, 9, 9, 3, 12, 30}, []byte{}, false) // a few cycles
	f.Add(1, []byte{2, 40}, []byte{}, false)                     // one object a page
	f.Add(64, []byte{5, 6}, []byte{}, false)                     // one page
	f.Add(math.MaxInt, []byte{5, 6}, []byte{}, false)            // one page, pages not overflowing
	f.Add(0, []byte{}, []byte{}, false)                          // perPage < 1
	f.Add(-3, []byte{1, 2}, []byte{}, false)                     // perPage < 1
	f.Add(8, []byte{}, []byte{4, 7}, false)                      // object 7 twice
	f.Add(8, []byte{}, []byte{4, 200}, false)                    // unknown object
	f.Add(8, []byte{}, []byte{2}, false)                         // one ID short
	f.Add(8, []byte{}, []byte{45}, false)                        // one ID too many
	f.Add(8, []byte{3, 30}, []byte{}, true)                      // the store's own order
	f.Fuzz(func(t *testing.T, perPage int, swaps, edits []byte, self bool) {
		order := identityOrder(n)
		for ; len(swaps) >= 2; swaps = swaps[2:] {
			i, j := int(swaps[0])%n, int(swaps[1])%n
			order[i], order[j] = order[j], order[i]
		}
		for ; len(edits) >= 2; edits = edits[2:] {
			order[int(edits[0])%n] = ObjectID(edits[1])
		}
		if len(edits) == 1 && edits[0]%2 == 0 {
			order = order[:n-1]
		} else if len(edits) == 1 {
			order = append(order, ObjectID(edits[0]))
		}
		valid := perPage >= 1 && len(order) == n
		seen := make([]bool, n)
		for _, id := range order {
			if int(id) >= n || seen[id] {
				valid = false
				break
			}
			seen[id] = true
		}

		s := NewStore(makeObjects(n))
		reversed := identityOrder(n)
		slices.Reverse(reversed)
		if err := s.Paginate(reversed, 8); err != nil {
			t.Fatal(err)
		}
		want := slices.Clone(order)
		if valid && self {
			if err := s.Paginate(order, n); err != nil {
				t.Fatal(err)
			}
			order = s.PageObjects(0)
		}
		before := pagination(s)
		err := s.Paginate(order, perPage)
		if !valid {
			if err == nil {
				t.Fatalf("Paginate accepted perPage %d and order %v", perPage, order)
			}
			if after := pagination(s); !reflect.DeepEqual(after, before) {
				t.Fatalf("rejected Paginate (%v) changed the store", err)
			}
			return
		}
		if err != nil {
			t.Fatalf("Paginate refused a permutation at perPage %d: %v", perPage, err)
		}
		if s.NumPages() != (n-1)/perPage+1 {
			t.Fatalf("perPage %d: %d objects in %d pages", perPage, n, s.NumPages())
		}
		fresh := NewStore(makeObjects(n))
		if err := fresh.Paginate(want, perPage); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(pagination(s), pagination(fresh)) {
			t.Fatalf("perPage %d, order %v: the clustered store's pages differ from a fresh copy's", perPage, want)
		}
	})
}

// storePagination is everything a store answers about its objects and pages.
type storePagination struct {
	objects []Object
	pageOf  []PageID
	ids     [][]ObjectID
	pages   [][]Object
	bounds  []geom.AABB
}

func pagination(s *Store) storePagination {
	var sp storePagination
	for id := range ObjectID(s.NumObjects()) {
		sp.objects = append(sp.objects, s.Object(id))
		sp.pageOf = append(sp.pageOf, s.PageOf(id))
	}
	for p := range PageID(s.NumPages()) {
		sp.ids = append(sp.ids, slices.Clone(s.PageObjects(p)))
		sp.pages = append(sp.pages, slices.Clone(s.PageSlice(p)))
		sp.bounds = append(sp.bounds, s.PageBounds(p))
	}
	return sp
}

// resum recomputes a patched superblock's checksum, so a test reaches the
// validation behind it.
func resum(super []byte) {
	binary.LittleEndian.PutUint64(super[superBytes-8:], checksum(super[:superBytes-8]))
}

// FuzzOpenFileStore mutates a small valid image — muts is a list of 5-byte
// (offset, xor mask) byte flips, keep truncates the file — and opens it.
// Nothing may panic, and on a store that opens every ReadPage returns the
// page's original payload or a *CorruptPageError: never somebody else's
// bytes. ReadRun and Scrub run over the same store and must agree.
func FuzzOpenFileStore(f *testing.F) {
	s := paginatedStore(f, 90, 8) // 12 pages, the last one short
	seed := filepath.Join(f.TempDir(), "seed.pages")
	fs, err := CreateFileStore(seed, s, FileStoreConfig{})
	if err != nil {
		f.Fatal(err)
	}
	fs.Close()
	image, err := os.ReadFile(seed)
	if err != nil {
		f.Fatal(err)
	}
	n := s.NumPages()
	want := make([][]byte, n)
	frame := make([]byte, frameBytes)
	for p := range want {
		want[p] = bytes.Clone(frame[:encodePage(s, PageID(p), frame)])
	}
	mut := func(off int, mask byte) []byte {
		return append(binary.LittleEndian.AppendUint32(nil, uint32(off)), mask)
	}
	size := uint32(len(image))
	f.Add([]byte{}, size)                                             // pristine
	f.Add(mut(16, 0x01), size)                                        // superblock page count
	f.Add(mut(int(entryOff(4))+4, 0x01), size)                        // slot 4 claims page 5
	f.Add(mut(int(entryOff(2))+8, 0x01), size)                        // slot 2's payload length
	f.Add(mut(int(entryOff(7))+24, 0x80), size)                       // slot 7's frame checksum
	f.Add(mut(int(dataOffFor(n))+3*frameBytes+100, 0x10), size)       // a frame's payload
	f.Add([]byte{}, uint32(dataOffFor(n))+5*frameBytes)               // frames cut off
	f.Add([]byte{}, uint32(superBytes+100))                           // header table cut off
	f.Add([]byte{}, uint32(0))                                        // empty file
	f.Add(append(mut(4, 0x03), mut(int(entryOff(0)), 0xff)...), size) // version 2 → 1, and a bad magic
	f.Fuzz(func(t *testing.T, muts []byte, keep uint32) {
		img := bytes.Clone(image)
		for ; len(muts) >= 5; muts = muts[5:] {
			img[int(binary.LittleEndian.Uint32(muts))%len(img)] ^= muts[4]
		}
		img = img[:int(keep)%(len(img)+1)]
		path := filepath.Join(t.TempDir(), "fuzzed.pages")
		if err := os.WriteFile(path, img, 0o644); err != nil {
			t.Fatal(err)
		}
		// Repair mode builds its replica from the mutated primary: it may
		// never make a wrong page verify.
		for _, cfg := range []FileStoreConfig{{Mode: ChecksumVerify}, {Mode: ChecksumRepair, Replica: true}} {
			fs, err := OpenFileStore(path, cfg)
			if err != nil {
				continue
			}
			if fs.NumPages() != n {
				t.Fatalf("%s: opened with %d pages, the image has %d", cfg.Mode, fs.NumPages(), n)
			}
			pages := make([]PageID, n)
			for p := range pages {
				pages[p] = PageID(p)
				payload, _, err := fs.ReadPage(PageID(p), nil)
				var cpe *CorruptPageError
				if err != nil && !errors.As(err, &cpe) {
					t.Fatalf("%s: page %d: %v, want a payload or *CorruptPageError", cfg.Mode, p, err)
				}
				if err == nil && !bytes.Equal(payload, want[p]) {
					t.Fatalf("%s: page %d read back %d wrong bytes without an error", cfg.Mode, p, len(payload))
				}
			}
			buf := make([]byte, 4*frameBytes)
			for rest := pages; len(rest) > 0; {
				clean := fs.ReadRun(rest, buf)
				for i := 0; i < clean; i++ {
					if got := buf[i*frameBytes:][:len(want[rest[i]])]; !bytes.Equal(got, want[rest[i]]) {
						t.Fatalf("%s: ReadRun passed page %d with wrong bytes", cfg.Mode, rest[i])
					}
				}
				rest = rest[max(clean, 1):]
			}
			if rep := fs.Scrub(2 * n); rep.Scanned != int64(n) {
				t.Fatalf("%s: Scrub(%d) scanned %d of %d slots", cfg.Mode, 2*n, rep.Scanned, n)
			}
			fs.Close()
		}
	})
}
