package pagestore

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// Fuzz targets for the on-disk decoders (ROADMAP 8(c)). The seed corpora run
// under plain `go test`; CI adds a short -fuzz run of FuzzOpenFileStore.

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
