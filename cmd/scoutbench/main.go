// Command scoutbench regenerates the paper's tables and figures. Each
// experiment prints the same rows or series the paper reports; DESIGN.md §4
// maps experiment IDs to figures and EXPERIMENTS.md records paper-vs-
// measured values.
//
// Sequences within each measurement are fanned out across -workers cores
// (results are byte-identical to a sequential run; see engine.RunEach).
// The tables are virtual-clock quantities; the wall-clock lines printed
// after each one are progress, not a measurement — bench/ is the
// wall-clock benchmark.
//
// Usage:
//
//	scoutbench -list
//	scoutbench -exp fig11a            # one experiment at full scale
//	scoutbench -exp all -scale 0.25   # everything, quarter-scale datasets
//	scoutbench -exp fig13d -seqs 10   # fewer sequences for a quick look
//	scoutbench -exp mu2 -sessions 16  # 16 concurrent sessions, policy ablation
//	scoutbench -exp mu1 -policy none  # multi-session, unarbitrated baseline
//	scoutbench -exp fig3 -backend file   # durable checksummed page file
//	scoutbench -exp dur1 -checksum repair  # pin dur1's integrity-mode sweep
//	scoutbench -exp load1 -arrivals bursty -rate 4  # open-loop sweep, one load point
//	scoutbench -exp shard1 -shards 8  # sharded engine, one shard count
//	scoutbench -exp ha1 -replicas 2 -hedge 1.5 -faults shard:outage  # one HA cell
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"scout/internal/engine"
	"scout/internal/experiments"
	"scout/internal/fault"
	"scout/internal/pagestore"
)

func main() {
	var (
		list       = flag.Bool("list", false, "list available experiments and exit")
		exp        = flag.String("exp", "all", "experiment id to run, or 'all'")
		scale      = flag.Float64("scale", 1.0, "dataset scale factor (1.0 = DESIGN.md scale)")
		seqs       = flag.Int("seqs", 0, "override sequences per measurement (0 = paper count)")
		seed       = flag.Int64("seed", 7, "workload random seed")
		workers    = flag.Int("workers", 0, "sequence-level worker goroutines (0 = GOMAXPROCS, 1 = sequential)")
		sessions   = flag.Int("sessions", 0, "override the mu* experiments' session-count sweep with one count (0 = sweep 1..64)")
		policy     = flag.String("policy", "", "override the mu* arbiter policy: fair, demand, starved or none (empty = per-experiment default/ablation)")
		layout     = flag.String("layout", "", "physical page layout: insertion, hilbert or str (empty/insertion = the seed's order and per-page I/O; other layouts also enable batched elevator reads)")
		faults     = flag.String("faults", "", "fault-injection profile: off, light, moderate or heavy for rob1's session faults, shard:brownout, shard:outage or shard:flaky for ha1's shard faults (empty = each experiment sweeps its own profiles; no other experiment injects)")
		backend    = flag.String("backend", "", "page store backend: sim or file (empty/sim = pure virtual-clock cost model; file reads a durable checksummed page file and reports real read time alongside the simulated cost)")
		backendDir = flag.String("backenddir", "", "directory for the file backend's page files (empty = a fresh temp dir; only meaningful with -backend file)")
		checksum   = flag.String("checksum", "", "file-backend integrity mode: off, verify or repair (empty = repair; also pins dur1's mode sweep, like -faults pins rob1)")
		faultSeed  = flag.Int64("faultseed", 0, "seed for the deterministic fault schedules (0 = reuse -seed)")
		slo        = flag.Duration("slo", 0, "per-query response-time objective for rob1's goodput/violation columns (0 = the fault-free run's p95)")
		arrivals   = flag.String("arrivals", "", "load1's open-loop arrival process: poisson or bursty (empty = poisson)")
		rate       = flag.Float64("rate", 0, "pin load1's offered-load sweep to one multiplier of the calibrated capacity (0 = full 0.5x..8x sweep)")
		classes    = flag.String("classes", "", "load1's workload class mix: mixed or uniform (empty = mixed: model/scan/teleport)")
		patience   = flag.Duration("patience", 0, "load1's base abandonment patience (0 = 2x the derived SLO)")
		shards     = flag.Int("shards", 0, "pin shard1's and ha1's shard-count sweeps to one count (0 = full sweep; no other experiment shards)")
		replicas   = flag.Int("replicas", 0, "pin ha1's replication-mode sweep to one chain length (0 = full sweep: unreplicated, 2-way, 2-way hedged; no other experiment replicates)")
		hedge      = flag.Float64("hedge", 0, "ha1's hedged-prefetch threshold: re-issue a shard sub-batch to its replica when its estimate exceeds this multiple of the median (0 = the hedged mode's default 1.5; must be >= 1)")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile of the experiment runs to this file")
		memProfile = flag.String("memprofile", "", "write a heap profile (after all runs) to this file")
		verbose    = flag.Bool("v", false, "print progress while running")
	)
	flag.Parse()

	// Unknown -policy/-layout/-faults values are usage errors, never silent
	// fallbacks: a typo must not quietly measure the default configuration.
	// Validation runs even for -list, so a typo is caught on the cheapest
	// possible invocation.
	if *policy != "" {
		if _, err := engine.ParsePolicy(*policy); err != nil {
			fmt.Fprintf(os.Stderr, "scoutbench: %v\nusage: -policy takes one of: %s\n",
				err, strings.Join(policyNames(), ", "))
			os.Exit(2)
		}
	}
	if *layout != "" {
		if _, err := pagestore.ParseLayout(*layout); err != nil {
			fmt.Fprintf(os.Stderr, "scoutbench: %v\nusage: -layout takes one of: %s\n",
				err, strings.Join(pagestore.LayoutNames(), ", "))
			os.Exit(2)
		}
	}
	if *faults != "" {
		if _, err := fault.ParseProfile(*faults, 0); err != nil {
			fmt.Fprintf(os.Stderr, "scoutbench: %v\nusage: -faults takes one of: %s\n",
				err, strings.Join(fault.AllProfiles(), ", "))
			os.Exit(2)
		}
	}
	if *slo < 0 {
		fmt.Fprintf(os.Stderr, "scoutbench: negative -slo %v\nusage: -slo takes a non-negative duration (e.g. 25ms; 0 = default)\n", *slo)
		os.Exit(2)
	}
	if *backend != "" {
		if _, err := experiments.ParseBackend(*backend); err != nil {
			fmt.Fprintf(os.Stderr, "scoutbench: %v\nusage: -backend takes one of: %s\n",
				err, strings.Join(experiments.BackendNames(), ", "))
			os.Exit(2)
		}
	}
	if *checksum != "" {
		if _, err := pagestore.ParseChecksumMode(*checksum); err != nil {
			fmt.Fprintf(os.Stderr, "scoutbench: %v\nusage: -checksum takes one of: %s\n",
				err, strings.Join(pagestore.ChecksumModeNames(), ", "))
			os.Exit(2)
		}
	}
	if *arrivals != "" {
		if _, err := engine.ParseArrivalProcess(*arrivals); err != nil {
			fmt.Fprintf(os.Stderr, "scoutbench: %v\nusage: -arrivals takes one of: %s\n",
				err, strings.Join(engine.ArrivalProcessNames(), ", "))
			os.Exit(2)
		}
	}
	if *rate < 0 {
		fmt.Fprintf(os.Stderr, "scoutbench: negative -rate %v\nusage: -rate takes a non-negative load multiplier (e.g. 2; 0 = full sweep)\n", *rate)
		os.Exit(2)
	}
	if *classes != "" {
		if _, err := experiments.ParseClassMix(*classes); err != nil {
			fmt.Fprintf(os.Stderr, "scoutbench: %v\nusage: -classes takes one of: %s\n",
				err, strings.Join(experiments.ClassMixNames(), ", "))
			os.Exit(2)
		}
	}
	if *patience < 0 {
		fmt.Fprintf(os.Stderr, "scoutbench: negative -patience %v\nusage: -patience takes a non-negative duration (e.g. 100ms; 0 = 2x the derived SLO)\n", *patience)
		os.Exit(2)
	}
	if _, err := experiments.ParseShardCount(*shards); err != nil {
		fmt.Fprintf(os.Stderr, "scoutbench: %v\nusage: -shards takes one of: %s (0 = full sweep)\n",
			err, strings.Join(shardCountNames(), ", "))
		os.Exit(2)
	}
	if _, err := experiments.ParseReplicaCount(*replicas); err != nil {
		fmt.Fprintf(os.Stderr, "scoutbench: %v\nusage: -replicas takes one of: %s (0 = full sweep)\n",
			err, strings.Join(replicaCountNames(), ", "))
		os.Exit(2)
	}
	if _, err := experiments.ParseHedge(*hedge); err != nil {
		fmt.Fprintf(os.Stderr, "scoutbench: %v\nusage: -hedge takes 0 (default threshold) or a multiplier >= 1 (e.g. 1.5)\n", err)
		os.Exit(2)
	}
	// The file backend needs somewhere writable before any experiment runs:
	// probe the directory up front so a read-only -backenddir is a clear
	// usage error, not a panic from deep inside dataset setup.
	if be, _ := experiments.ParseBackend(*backend); be == "file" && *backendDir != "" {
		if err := os.MkdirAll(*backendDir, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "scoutbench: -backenddir: %v\nusage: -backenddir must name a writable directory\n", err)
			os.Exit(2)
		}
		probe, err := os.CreateTemp(*backendDir, ".scout-probe-*")
		if err != nil {
			fmt.Fprintf(os.Stderr, "scoutbench: -backenddir %s is not writable: %v\nusage: -backenddir must name a writable directory\n", *backendDir, err)
			os.Exit(2)
		}
		probe.Close()
		os.Remove(probe.Name())
	}

	if *list {
		for _, e := range experiments.All() {
			fmt.Printf("%-22s %-14s %s\n", e.ID, e.Figure, e.Desc)
		}
		return
	}
	opt := experiments.Options{Scale: *scale, Sequences: *seqs, Seed: *seed, Workers: *workers,
		Sessions: *sessions, Policy: *policy, Layout: *layout,
		Faults: *faults, FaultSeed: *faultSeed, SLO: *slo,
		Backend: *backend, BackendDir: *backendDir, Checksum: *checksum,
		Arrivals: *arrivals, Rate: *rate, Classes: *classes, Patience: *patience,
		Shards: *shards, Replicas: *replicas, Hedge: *hedge}
	if *verbose {
		opt.Progress = func(msg string) { fmt.Fprintln(os.Stderr, "  ...", msg) }
	}
	env := experiments.NewEnv(opt)

	var toRun []experiments.Experiment
	if *exp == "all" {
		toRun = experiments.All()
	} else {
		for _, id := range strings.Split(*exp, ",") {
			e, err := experiments.ByID(strings.TrimSpace(id))
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				fmt.Fprintln(os.Stderr, "use -list to see available experiments")
				os.Exit(2)
			}
			toRun = append(toRun, e)
		}
	}

	// Build the shared datasets before the profile and the progress timers
	// start, so both cover experiment execution, not one-time dataset
	// generation (which would otherwise land inside the first experiment).
	// Each experiment declares its datasets via Warm; builds are memoized per
	// environment, so overlapping declarations cost nothing. fig13b/fig14 use
	// parameterized density-sweep datasets that must build inside the run
	// (Warm == nil).
	for _, e := range toRun {
		if e.Warm != nil {
			e.Warm(env)
		}
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "cpuprofile:", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "cpuprofile:", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}

	var total time.Duration
	for _, e := range toRun {
		start := time.Now()
		res := e.Run(env)
		wall := time.Since(start)
		total += wall
		fmt.Println(res.String())
		fmt.Printf("(%s completed in %s)\n\n", e.ID, wall.Round(time.Millisecond))
	}
	fmt.Printf("total wall-clock: %s (%d experiments, workers=%d)\n",
		total.Round(time.Millisecond), len(toRun), effectiveWorkers(*workers))

	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "memprofile:", err)
			os.Exit(1)
		}
		runtime.GC() // settle allocations so the heap profile reflects live data
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "memprofile:", err)
			os.Exit(1)
		}
		f.Close()
		fmt.Printf("wrote %s\n", *memProfile)
	}
}

func effectiveWorkers(w int) int {
	if w <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return w
}

func policyNames() []string {
	var names []string
	for _, p := range engine.Policies() {
		names = append(names, p.String())
	}
	return names
}

func shardCountNames() []string {
	var names []string
	for _, n := range experiments.ShardCounts() {
		names = append(names, fmt.Sprintf("%d", n))
	}
	return names
}

func replicaCountNames() []string {
	var names []string
	for _, n := range experiments.ReplicaCounts() {
		names = append(names, fmt.Sprintf("%d", n))
	}
	return names
}
