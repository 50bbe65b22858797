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
		faultSeed  = flag.Int64("faultseed", 0, "seed for the deterministic fault schedules (0 = reuse -seed)")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile of the experiment runs to this file")
		memProfile = flag.String("memprofile", "", "write a heap profile (after all runs) to this file")
		verbose    = flag.Bool("v", false, "print progress while running")
	)
	flag.Parse()

	if *list {
		for _, e := range experiments.All() {
			fmt.Printf("%-22s %-14s %s\n", e.ID, e.Figure, e.Desc)
		}
		return
	}
	opt := experiments.Options{Scale: *scale, Sequences: *seqs, Seed: *seed, Workers: *workers, FaultSeed: *faultSeed}
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
