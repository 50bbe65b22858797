// Command scoutbench regenerates the paper's tables and figures. Each
// experiment prints the same rows or series the paper reports; DESIGN.md §4
// maps experiment IDs to figures and PAPER.md's claims table records
// paper-vs-measured values.
//
// Sequences within each measurement are fanned out across -workers cores
// (results are byte-identical to a sequential run; see engine.RunEach).
// The tables are virtual-clock quantities; the wall-clock lines printed
// after each one are progress, not a measurement — bench/ is the
// wall-clock benchmark.
//
// Every experiment prints its whole sweep; no flag narrows one.
//
// Usage:
//
//	scoutbench -list
//	scoutbench -exp fig11a            # one experiment at full scale
//	scoutbench -exp all -scale 0.25   # everything, quarter-scale datasets
//	scoutbench -exp fig13d -seqs 10   # fewer sequences for a quick look
//	scoutbench -exp mu2 -sessions 16  # 16 concurrent sessions, policy ablation
//	scoutbench -exp fig3 -backend file   # durable checksummed page file
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"scout/internal/experiments"
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
		backend    = flag.String("backend", "", "page store backend: sim or file (empty/sim = pure virtual-clock cost model; file reads a durable checksummed page file and reports real read time alongside the simulated cost)")
		backendDir = flag.String("backenddir", "", "directory for the file backend's page files (empty = a fresh temp dir; only meaningful with -backend file)")
		faultSeed  = flag.Int64("faultseed", 0, "seed for the deterministic fault schedules (0 = reuse -seed)")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile of the experiment runs to this file")
		memProfile = flag.String("memprofile", "", "write a heap profile (after all runs) to this file")
		verbose    = flag.Bool("v", false, "print progress while running")
	)
	flag.Parse()

	// An unknown -backend value is a usage error, never a silent fallback:
	// a typo must not quietly measure the default configuration. Validation
	// runs even for -list, so a typo is caught on the cheapest possible
	// invocation.
	if *backend != "" {
		if _, err := experiments.ParseBackend(*backend); err != nil {
			fmt.Fprintf(os.Stderr, "scoutbench: %v\nusage: -backend takes one of: %s\n",
				err, strings.Join(experiments.BackendNames(), ", "))
			os.Exit(2)
		}
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
		Sessions: *sessions, FaultSeed: *faultSeed, Backend: *backend, BackendDir: *backendDir}
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
