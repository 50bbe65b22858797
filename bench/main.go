// Command bench is the repository's real-time benchmark: five workloads over
// the four execution paths (Engine.RunSequence, ShardedEngine.RunSequence,
// flat and sharded-HA SessionPlans.Serve) and the durable FileStore path,
// with end-to-end metrics from an untraced run and per-layer metrics from a
// traced one. Layers are measured from outside, by timing calls into their
// public functions. See README.md.
//
//	bash bench/run.sh --workload explore --seed 7 --seconds 10 --trace 0
//	bash bench/run.sh -all
//	bash bench/run.sh -repeat 5
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
)

// fingerprint is everything that must match before two results may be
// compared or merged. Commit is recorded but not compared: comparing
// commits is what the benchmark is for.
type fingerprint struct {
	GoVersion  string  `json:"go_version"`
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Seed       int64   `json:"seed"`
	FaultSeed  int64   `json:"fault_seed"`
	Seconds    float64 `json:"seconds"`
	Sizes      sizes   `json:"sizes"`
	Commit     string  `json:"commit"`
}

func (f fingerprint) comparable(o fingerprint) bool {
	f.Commit, o.Commit = "", ""
	return reflect.DeepEqual(f, o)
}

func newFingerprint(opt options) fingerprint {
	commit := "unknown"
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	return fingerprint{
		GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(), GOMAXPROCS: gomaxprocs(),
		Seed: opt.seed, FaultSeed: opt.faultSeed,
		Seconds: opt.seconds, Sizes: opt.sz, Commit: commit,
	}
}

// ledgerValue is one number of a results file, with its sample count.
type ledgerValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n"`
}

// ledgerEntry is one workload's results.
type ledgerEntry struct {
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	EndToEnd  map[string]ledgerValue `json:"end_to_end"`
	PerLayer  map[string]ledgerValue `json:"per_layer,omitempty"`
}

// ledger is a results file: what -all prints last and -out writes. Claim is
// always null: the benchmark records, a later change claims.
type ledger struct {
	Fingerprint fingerprint            `json:"fingerprint"`
	Workloads   map[string]ledgerEntry `json:"workloads"`
	Claim       *string                `json:"claim"`
}

func toLedger(r runResult) map[string]ledgerValue {
	out := make(map[string]ledgerValue, len(r.Metrics))
	for k, v := range r.Metrics {
		out[k] = ledgerValue{v.Value, v.Unit, r.Samples[k]}
	}
	return out
}

func main() {
	// The library is single-threaded but for PlanSessions and the shard
	// workers; four procs is what the reference numbers were taken at most.
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 4))

	var (
		workloadName = flag.String("workload", "", "run this workload and print one JSON result line")
		seed         = flag.Int64("seed", 7, "seeds walks and arrivals; the same seed gives the same inputs")
		faultSeed    = flag.Int64("faultseed", 11, "seeds fault schedules and at-rest corruption")
		seconds      = flag.Float64("seconds", 10, "how long the timed passes of one run measure")
		trace        = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run")
		traceDir     = flag.String("tracedir", "", "write the traced run's spans to <dir>/<workload>.trace.jsonl")
		all          = flag.Bool("all", false, "run every workload untraced and traced, print every metric, run the checks")
		repeat       = flag.Int("repeat", 0, "run K full untraced sets back to back and print each metric's spread against its bound")
		smoke        = flag.Bool("smoke", false, "tiny sizes (20k objects), for tests; not comparable with full-size results")
		out          = flag.String("out", "", "with -all: also write the results file here")
		against      = flag.String("against", "", "with -all: compare with this results file (refused if fingerprints differ)")
		spec         = flag.String("spec", "BENCHMARK.json", "the file that declares the workloads and metrics")
		tmp          = flag.String("tmp", filepath.Join(".bench_build", "tmp"), "where explore_file creates its page files (removed on exit)")
	)
	flag.Parse()
	opt := options{seed: *seed, faultSeed: *faultSeed, seconds: *seconds, sz: fullSizes, tmpRoot: *tmp, fileCfg: defaultFileConfig(), smoke: *smoke, spec: *spec}
	if *smoke {
		opt.sz = smokeSizes
	}
	err := loadSpec(*spec)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	switch {
	case *all:
		err = runAll(opt, *traceDir, *out, *against)
	case *repeat > 0:
		err = runRepeat(opt, *repeat)
	case *workloadName != "":
		err = runOne(*workloadName, opt, *trace == 1, *traceDir)
	default:
		flag.Usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func spanPath(dir, workload string) string {
	if dir == "" {
		return ""
	}
	return filepath.Join(dir, workload+".trace.jsonl")
}

// runOne is the driver's contract: one workload, one JSON object on the last
// line of standard output, non-zero exit when a check failed. The line
// before it carries each metric's sample count, for -all and -repeat.
func runOne(name string, opt options, traced bool, traceDir string) error {
	fp, _ := json.Marshal(newFingerprint(opt))
	fmt.Fprintf(os.Stderr, "bench: workload %s, fingerprint %s\n", name, fp)
	var res runResult
	var err error
	if traced {
		res, err = runTraced(name, opt, spanPath(traceDir, name))
	} else {
		res, err = runUntraced(name, opt)
	}
	if err != nil {
		return err
	}
	counts, err := json.Marshal(res.Samples)
	if err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Printf("%s\n%s\n", counts, line)
	if !res.Correct {
		return fmt.Errorf("%s: %d of %d queries failed a check", name, res.Failed, res.Attempted)
	}
	return nil
}

// runChild runs one workload in a process of its own, exactly as the driver
// does, so that peak RSS, heap size and collector state are that workload's
// alone. A child that fails a check still prints its result line; the
// caller counts its failed queries.
func runChild(name string, opt options, traced bool, traceDir string) (runResult, error) {
	self, err := os.Executable()
	if err != nil {
		return runResult{}, err
	}
	args := []string{
		"-workload", name, "-spec", opt.spec,
		"-seed", fmt.Sprint(opt.seed), "-faultseed", fmt.Sprint(opt.faultSeed),
		"-seconds", fmt.Sprint(opt.seconds), "-tmp", opt.tmpRoot, "-tracedir", traceDir,
	}
	if traced {
		args = append(args, "-trace", "1")
	}
	if opt.smoke {
		args = append(args, "-smoke")
	}
	cmd := exec.Command(self, args...)
	cmd.Stderr = os.Stderr
	text, runErr := cmd.Output()
	lines := strings.Split(strings.TrimSpace(string(text)), "\n")
	var res runResult
	if len(lines) < 2 {
		return res, fmt.Errorf("%s printed no result (%v)", name, runErr)
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return res, fmt.Errorf("%s printed no result (%v): %w", name, runErr, err)
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-2]), &res.Samples); err != nil {
		return res, fmt.Errorf("%s printed no sample counts: %w", name, err)
	}
	return res, nil
}

// printMetrics prints each metric by name with its value, unit and sample
// count, and for a per-layer metric what it should move.
func printMetrics(r runResult, names []string) {
	for _, n := range names {
		m := r.Metrics[n]
		line := fmt.Sprintf("  %-52s %16.6g %-6s n=%d", n, m.Value, m.Unit, r.Samples[n])
		if moves[n] != "" {
			line = fmt.Sprintf("%-92s -> %s", line, moves[n])
		}
		fmt.Println(line)
	}
}

// runAll runs every workload untraced and traced, prints every metric by
// name with its unit and sample count, and ends with the results file.
func runAll(opt options, traceDir, out, against string) error {
	led := ledger{Fingerprint: newFingerprint(opt), Workloads: map[string]ledgerEntry{}}
	var e2e, layers []string
	for _, m := range endToEnd {
		e2e = append(e2e, m.Name)
	}
	for _, m := range perLayer {
		layers = append(layers, m.Name)
	}
	var failed int64
	for _, w := range workloads {
		fmt.Printf("== %s: %s\n", w.Name, w.Why)
		plain, err := runChild(w.Name, opt, false, "")
		if err != nil {
			return fmt.Errorf("%s: %w", w.Name, err)
		}
		fmt.Printf(" end to end (tracing off): attempted %d, failed %d\n", plain.Attempted, plain.Failed)
		printMetrics(plain, e2e)
		traced, err := runChild(w.Name, opt, true, traceDir)
		if err != nil {
			return fmt.Errorf("%s traced: %w", w.Name, err)
		}
		fmt.Printf(" per layer (traced run): attempted %d, failed %d\n", traced.Attempted, traced.Failed)
		printMetrics(traced, layers)
		failed += plain.Failed + traced.Failed
		led.Workloads[w.Name] = ledgerEntry{
			Attempted: plain.Attempted, Failed: plain.Failed,
			EndToEnd: toLedger(plain), PerLayer: toLedger(traced),
		}
	}
	if against != "" {
		if err := compare(against, led); err != nil {
			return err
		}
	}
	text, err := json.MarshalIndent(led, "", "  ")
	if err != nil {
		return err
	}
	if out != "" {
		if err := os.WriteFile(out, append(text, '\n'), 0o644); err != nil {
			return err
		}
	}
	fmt.Println(string(text))
	if failed > 0 {
		return fmt.Errorf("%d queries failed a check", failed)
	}
	return nil
}

// worse is how much worse cur is than base as a share of base (negative:
// better), in the metric's own direction.
func worse(m metricSpec, base, cur float64) float64 {
	if m.Better == "higher" {
		return ratio(base-cur, base)
	}
	return ratio(cur-base, base)
}

// compare prints, per workload and end-to-end metric, how the fresh results
// differ from a saved results file. It refuses files taken under another
// fingerprint: a different seed, size, run length or machine shape makes
// the numbers incomparable.
func compare(path string, cur ledger) error {
	text, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var old ledger
	if err := json.Unmarshal(text, &old); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	if !old.Fingerprint.comparable(cur.Fingerprint) {
		a, _ := json.Marshal(old.Fingerprint)
		b, _ := json.Marshal(cur.Fingerprint)
		return fmt.Errorf("refusing to compare: %s was taken under fingerprint %s, this run under %s", path, a, b)
	}
	fmt.Printf("== against %s (commit %s)\n", path, old.Fingerprint.Commit)
	for _, w := range workloads {
		for _, m := range endToEnd {
			was, okOld := old.Workloads[w.Name].EndToEnd[m.Name]
			is, okCur := cur.Workloads[w.Name].EndToEnd[m.Name]
			if !okOld || !okCur {
				return fmt.Errorf("refusing to compare: %s on %s is in %s: %v, in this run: %v", m.Name, w.Name, path, okOld, okCur)
			}
			a, b := was.Value, is.Value
			d := worse(m, a, b)
			verdict := "within bound"
			if d > m.Bound {
				verdict = "WORSE THAN BOUND"
			}
			fmt.Printf("  %-16s %-20s %14.6g -> %14.6g  %+7.2f%% worse (bound %g%%) %s\n",
				w.Name, m.Name, a, b, 100*d, 100*m.Bound, verdict)
		}
	}
	return nil
}

// runRepeat runs K full untraced sets back to back, alternating the
// workload order, and prints per metric the min, median and max and whether
// the spread stays inside the metric's bound (the virtual-clock metrics must
// agree exactly). The spread is the distance
// between the first and third quartile over the median (the driver's
// measure) from four sets up, max minus min over the median below that.
func runRepeat(opt options, k int) error {
	fp := newFingerprint(opt)
	values := map[string]map[string][]float64{} // workload -> metric -> one value per set
	var failed int64
	for set := 0; set < k; set++ {
		order := append([]workloadSpec(nil), workloads...)
		if set%2 == 1 {
			for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
				order[i], order[j] = order[j], order[i]
			}
		}
		for _, w := range order {
			fmt.Fprintf(os.Stderr, "bench: set %d/%d, %s\n", set+1, k, w.Name)
			r, err := runChild(w.Name, opt, false, "")
			if err != nil {
				return fmt.Errorf("%s: %w", w.Name, err)
			}
			failed += r.Failed
			if values[w.Name] == nil {
				values[w.Name] = map[string][]float64{}
			}
			for name, m := range r.Metrics {
				values[w.Name][name] = append(values[w.Name][name], m.Value)
			}
		}
	}
	text, _ := json.Marshal(fp)
	fmt.Printf("fingerprint %s\n", text)
	outside := 0
	for _, w := range workloads {
		fmt.Printf("== %s (%d sets)\n", w.Name, k)
		for _, m := range endToEnd {
			v := append([]float64(nil), values[w.Name][m.Name]...)
			sort.Float64s(v)
			spread := ratio(v[len(v)-1]-v[0], median(v))
			if len(v) >= 4 {
				q1, q3 := quartiles(v)
				spread = ratio(q3-q1, median(v))
			}
			verdict := "inside"
			switch {
			case m.Name == "setup_s":
				// The driver holds set-up time to its bound between medians
				// of runs, not within a set of runs.
				verdict = "not checked"
			case virtualClock[m.Name] && v[0] != v[len(v)-1]:
				verdict = "NOT EXACT"
				outside++
			case spread > m.Bound:
				verdict = "OUTSIDE"
				outside++
			}
			fmt.Printf("  %-20s min %14.6g  median %14.6g  max %14.6g  spread %6.2f%% of bound %g%%: %s\n",
				m.Name, v[0], median(v), v[len(v)-1], 100*spread, 100*m.Bound, verdict)
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d queries failed a check", failed)
	}
	if outside > 0 {
		return fmt.Errorf("%d metrics spread wider than their bound or differ where they must agree exactly", outside)
	}
	return nil
}
