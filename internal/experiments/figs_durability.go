package experiments

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"scout/internal/core"
	"scout/internal/engine"
	"scout/internal/fault"
	"scout/internal/pagestore"
)

// The dur1 experiment measures the durable file backend's recovery story
// (DESIGN.md §10): deterministic at-rest corruption (bit flips + torn
// writes, pure functions of the fault seed) is applied to a freshly written
// page file, then the standard SCOUT workload runs over it under three
// integrity modes — no checksums, checksums (detect only), and checksums +
// replica repair — with the background scrub enabled. Reported per
// (corruption rate × mode): damage applied vs detected vs repaired vs
// silently served, response-time percentiles (corruption handling is priced
// on the virtual clock, so detection costs are visible in the tail), scrub
// overhead, and whether the file verifies intact against the in-memory
// ground truth after a full scrub cycle. The paper never corrupts its disk;
// SCOUT deployed on real storage has to survive a disk that lies.

// dur1Rates is the per-page corruption-rate sweep (torn writes injected at
// a quarter of each rate).
var dur1Rates = []float64{0, 0.05, 0.20}

// dur1Modes is the integrity-mode sweep.
var dur1Modes = []pagestore.ChecksumMode{pagestore.ChecksumOff, pagestore.ChecksumVerify, pagestore.ChecksumRepair}

// dur1ScrubPages is the per-window scrub step: small enough that scrubbing
// stays a background activity in idle window time, large enough to finish
// passes over the scaled test datasets.
const dur1ScrubPages = 32

// Dur1 sweeps corruption rates × integrity modes over the standard neuro
// workload on the file backend.
func Dur1(env *Env) Result {
	s := env.Neuro()
	opt := env.Options()
	seqs := s.genSequences(sensitivityParams(), opt.sequences(30), opt.Seed)

	dir, err := os.MkdirTemp("", "scout-dur1-")
	if err != nil {
		panic(fmt.Sprintf("experiments: dur1 temp dir: %v", err))
	}
	defer os.RemoveAll(dir)

	res := Result{
		ID:     "dur1",
		Figure: "durability",
		Title: fmt.Sprintf("Corruption detection, repair and read tail on the file backend (%d pages, scrub step %d)",
			s.Store.NumPages(), dur1ScrubPages),
		Header: []string{"Corrupt", "Mode", "Damaged", "Detected", "Repaired", "Silent", "p50", "p95", "p99", "Scrub", "Intact"},
	}
	run := 0
	for _, rate := range dur1Rates {
		for _, mode := range dur1Modes {
			run++
			fs, err := pagestore.CreateFileStore(
				filepath.Join(dir, fmt.Sprintf("run%d.pages", run)), s.Store,
				pagestore.FileStoreConfig{Mode: mode, Replica: mode == pagestore.ChecksumRepair})
			if err != nil {
				panic(fmt.Sprintf("experiments: dur1 file store: %v", err))
			}
			inj := fault.NewStorage(fault.StoragePlan{
				Seed: opt.faultSeed(), CorruptRate: rate, TornRate: rate / 4, CrashStep: fault.NoCrash})
			flipped, torn, err := fs.ApplyCorruption(inj)
			if err != nil {
				panic(fmt.Sprintf("experiments: dur1 corruption: %v", err))
			}

			cfg := engine.DefaultConfig()
			cfg.Backing = fs
			cfg.ScrubPages = dur1ScrubPages
			e := engine.New(s.Store, s.Tree, cfg)
			// One worker, always: on-the-fly repair mutates the shared file,
			// so parallel clones would race detection order. Sequential runs
			// are byte-identical, which is what pins this golden.
			results := e.RunEach(seqs, s.scout(core.DefaultConfig()), 1)

			var samples []time.Duration
			for _, r := range results {
				for qi, tr := range r.Queries {
					if !engine.Counted(qi) {
						continue
					}
					samples = append(samples, tr.Residual)
				}
			}
			lat := summarize(samples)
			// Finish the scrub cycle: one bounded step over every slot, so
			// "Intact" reflects what a completed background pass leaves behind,
			// not how far the idle-window pacing happened to get.
			e.Disk().ScrubStep(s.Store.NumPages())
			ds := e.Disk().Stats()
			fss := fs.Stats()
			intact := "yes"
			if err := fs.VerifyAgainst(s.Store); err != nil {
				intact = "no"
			}
			res.AddRow(pct(rate), modeLabel(mode),
				fmt.Sprintf("%d", flipped+torn),
				fmt.Sprintf("%d", fss.CorruptDetected),
				fmt.Sprintf("%d", fss.Repaired),
				fmt.Sprintf("%d", fss.SilentCorruptReads),
				ms(lat.P50),
				ms(lat.P95),
				ms(lat.P99),
				ms(ds.ScrubIO),
				intact)
			fs.Close()
			opt.progress("dur1: rate=%s mode=%s done", pct(rate), modeLabel(mode))
		}
	}
	res.Notes = append(res.Notes,
		"damage = deterministic bit flips + torn writes (rate/4) applied at rest; the replica is never damaged",
		"no-checksum reads serve damaged pages silently (ground-truth ledger); detection requires checksums",
		"detection and repair are priced on the virtual clock (CorruptionCost), so the checksum modes' tails show the recovery cost",
		"scrub runs only on idle prefetch-window time plus one full closing pass; intact = file verifies against the in-memory store afterwards",
		"one worker, always: repair mutates the shared file, so only sequential runs are byte-stable")
	return res
}

// modeLabel names an integrity mode in dur1's table.
func modeLabel(m pagestore.ChecksumMode) string {
	switch m {
	case pagestore.ChecksumOff:
		return "none"
	case pagestore.ChecksumVerify:
		return "checksum"
	case pagestore.ChecksumRepair:
		return "checksum+repair"
	}
	return m.String()
}
