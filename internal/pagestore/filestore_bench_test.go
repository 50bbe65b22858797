package pagestore_test

import (
	"path/filepath"
	"sync"
	"testing"

	"scout/internal/dataset"
	"scout/internal/pagestore"
	"scout/internal/rtree"
	"scout/internal/workload"
)

// fileBench is the fixture the FileStore benchmarks share: the main
// experiments' 1M-object neuro store in the hilbert layout (what
// explore_file reads), and per recorded query of guided walks the pages the
// index named, in ascending physical order — the sweeps Disk.ReadSorted
// hands the file. Built once (~6 s); every benchmark writes its own file.
var fileBench struct {
	once   sync.Once
	err    error
	store  *pagestore.Store
	sweeps [][]pagestore.PageID
	pages  []pagestore.PageID // the sweeps, concatenated
	runs   int                // stretches of consecutive slots in pages
}

func fileBenchFixture(b *testing.B) {
	b.Helper()
	fb := &fileBench
	fb.once.Do(func() {
		ds := dataset.GenerateNeuro(dataset.DefaultNeuroConfig())
		fb.store = pagestore.NewStore(ds.Objects)
		tree, err := rtree.BulkLoad(fb.store, rtree.Config{})
		if err == nil {
			err = fb.store.Relayout(pagestore.HilbertLayout())
		}
		var seqs []workload.Sequence
		if err == nil {
			seqs, err = workload.GenerateMany(ds, workload.Params{Queries: 25, Volume: 80_000}, 8, 11)
		}
		if err != nil {
			fb.err = err
			return
		}
		for _, seq := range seqs {
			for _, q := range seq.Queries {
				sweep := tree.QueryPages(q.Region, nil)
				fb.store.ElevatorSort(sweep)
				fb.sweeps = append(fb.sweeps, sweep)
				for i, p := range sweep {
					if i == 0 || fb.store.PhysicalPage(p) != fb.store.PhysicalPage(sweep[i-1])+1 {
						fb.runs++
					}
				}
				fb.pages = append(fb.pages, sweep...)
			}
		}
	})
	if fb.err != nil {
		b.Fatal(fb.err)
	}
}

// benchFile writes the fixture's store to a fresh page file.
func benchFile(b *testing.B, cfg pagestore.FileStoreConfig) *pagestore.FileStore {
	b.Helper()
	fileBenchFixture(b)
	fs, err := pagestore.CreateFileStore(filepath.Join(b.TempDir(), "bench.pages"), fileBench.store, cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { fs.Close() })
	return fs
}

// BenchmarkFileStoreReadPage times one demand read — pread of a 4 KB frame
// plus, under verify, its CRC32-C — over the recorded pages. verify − off is
// the price of integrity per page; neither may allocate.
func BenchmarkFileStoreReadPage(b *testing.B) {
	for _, mode := range []pagestore.ChecksumMode{pagestore.ChecksumOff, pagestore.ChecksumVerify} {
		b.Run(mode.String(), func(b *testing.B) {
			fs := benchFile(b, pagestore.FileStoreConfig{Mode: mode})
			pages := fileBench.pages
			buf := make([]byte, pagestore.PageSizeBytes)
			b.SetBytes(pagestore.PageSizeBytes)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := fs.ReadPage(pages[i%len(pages)], buf); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFileStoreReadRun times the sweep path: one iteration is one
// recorded query's pages read run by run (one pread per stretch of
// consecutive slots, every frame verified). ns/page is the number to hold
// against BenchmarkFileStoreReadPage/verify's ns/op.
func BenchmarkFileStoreReadRun(b *testing.B) {
	fs := benchFile(b, pagestore.FileStoreConfig{Mode: pagestore.ChecksumVerify})
	sweeps := fileBench.sweeps
	buf := make([]byte, 64*pagestore.PageSizeBytes)
	pages := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rest := sweeps[i%len(sweeps)]
		pages += len(rest)
		for len(rest) > 0 {
			n := fs.ReadRun(rest, buf)
			if n == 0 {
				b.Fatalf("page %d of a clean file stopped a run", rest[0])
			}
			rest = rest[n:]
		}
	}
	ns := float64(b.Elapsed().Nanoseconds())
	b.ReportMetric(ns/float64(pages), "ns/page")
	b.ReportMetric(float64(pages)*pagestore.PageSizeBytes/1e6/(ns/1e9), "MB/s")
	b.ReportMetric(float64(len(fileBench.pages))/float64(fileBench.runs), "pages/run")
}

// BenchmarkFileStoreScrub times one 64-page scrub step through
// Disk.ScrubStep, the way the engine's idle windows drive it. 0 allocs/op is
// the point: hash/crc32 makes its argument escape, so a scrub that made its
// own frame buffer would allocate it on the heap every step — the disk lends
// its read buffer instead.
func BenchmarkFileStoreScrub(b *testing.B) {
	fs := benchFile(b, pagestore.FileStoreConfig{Mode: pagestore.ChecksumVerify})
	d := pagestore.NewDisk(fileBench.store, pagestore.DefaultCostModel())
	d.SetBacking(fs)
	const step = 64
	b.SetBytes(step * pagestore.PageSizeBytes)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if d.ScrubStep(step) == 0 {
			b.Fatal("scrub step did no work")
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*step), "ns/page")
}
