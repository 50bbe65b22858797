package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"scout/internal/pagestore"
)

// smokeOptions is the -smoke size: every workload end to end in well under a
// second, with the percentile support rule and the probe budget relaxed.
func smokeOptions(t *testing.T) options {
	t.Helper()
	return options{
		seed: 7, faultSeed: 11, seconds: 0.05,
		sz: smokeSizes, tmpRoot: t.TempDir(), fileCfg: defaultFileConfig(),
	}
}

const specPath = "../BENCHMARK.json"

func TestMain(m *testing.M) {
	if err := loadSpec(specPath); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	os.Exit(m.Run())
}

// TestBenchmarkFileWithinDriverLimits checks BENCHMARK.json against the
// driver's limits on keys, names, units, bounds and counts.
func TestBenchmarkFileWithinDriverLimits(t *testing.T) {
	text, err := os.ReadFile(specPath)
	if err != nil {
		t.Fatal(err)
	}
	var f struct {
		Command    []string          `json:"command"`
		Paths      []string          `json:"paths"`
		RunSeconds int               `json:"run_seconds"`
		Workloads  []json.RawMessage `json:"workloads"`
		EndToEnd   []json.RawMessage `json:"end_to_end"`
		PerLayer   []json.RawMessage `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(text))
	dec.DisallowUnknownFields() // exactly the driver's six keys
	if err := dec.Decode(&f); err != nil {
		t.Fatal(err)
	}
	if len(f.Command) == 0 || f.RunSeconds < 1 || f.RunSeconds > 60 || !reflect.DeepEqual(f.Paths, []string{"bench"}) {
		t.Errorf("command %v, run_seconds %d, paths %v", f.Command, f.RunSeconds, f.Paths)
	}
	if len(workloads) < 2 || len(workloads) > 8 || len(endToEnd) > 16 || len(perLayer) > 128 {
		t.Errorf("%d workloads, %d end-to-end, %d per-layer metrics: outside 2..8 / <=16 / <=128",
			len(workloads), len(endToEnd), len(perLayer))
	}
	// Each entry has exactly the driver's keys: a per-layer metric has no bound.
	keys := func(entries []json.RawMessage, want ...string) {
		for _, e := range entries {
			var got map[string]json.RawMessage
			if err := json.Unmarshal(e, &got); err != nil {
				t.Fatal(err)
			}
			for _, k := range want {
				delete(got, k)
			}
			if len(got) != 0 {
				t.Errorf("%s: keys other than %v", e, want)
			}
		}
	}
	keys(f.Workloads, "name", "why")
	keys(f.EndToEnd, "name", "unit", "better", "bound")
	keys(f.PerLayer, "name", "unit", "better")

	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(m metricSpec) {
		if !name.MatchString(m.Name) || !unit.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("metric %+v is outside the driver's limits", m)
		}
		if seen[m.Name] {
			t.Errorf("name %q is used twice", m.Name)
		}
		seen[m.Name] = true
	}
	setup := false
	for _, m := range endToEnd {
		check(m)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !setup {
		t.Error("no setup_s metric in s, lower is better")
	}
	for _, m := range perLayer {
		check(m)
	}
	for name := range virtualClock {
		if !seen[name] {
			t.Errorf("virtualClock names %s, which is not declared", name)
		}
	}
	for _, w := range workloads {
		if !name.MatchString(w.Name) || w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") || seen[w.Name] {
			t.Errorf("workload %q: name or why outside the driver's limits", w.Name)
		}
		seen[w.Name] = true
	}
}

// TestSmokeEveryWorkload runs every workload at the smoke size, untraced and
// traced, and checks that each emits exactly the declared metrics, with
// their units, and fails nothing.
func TestSmokeEveryWorkload(t *testing.T) {
	opt := smokeOptions(t)
	measured := map[string]bool{} // per-layer metrics some workload's code produced
	defer func() {
		for _, m := range perLayer {
			if !measured[m.Name] {
				t.Errorf("per-layer %s is declared but no workload measures it", m.Name)
			}
		}
	}()
	for _, w := range workloads {
		t.Run(w.Name, func(t *testing.T) {
			plain, err := runUntraced(w.Name, opt)
			if err != nil {
				t.Fatal(err)
			}
			spans := filepath.Join(t.TempDir(), w.Name+".trace.jsonl")
			traced, err := runTraced(w.Name, opt, spans)
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range []runResult{plain, traced} {
				if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
					t.Errorf("correct %v, attempted %d, failed %d", r.Correct, r.Attempted, r.Failed)
				}
			}
			if len(plain.Metrics) != len(endToEnd) || len(traced.Metrics) != len(perLayer) {
				t.Errorf("emitted %d end-to-end and %d per-layer metrics, declared %d and %d",
					len(plain.Metrics), len(traced.Metrics), len(endToEnd), len(perLayer))
			}
			for _, m := range endToEnd {
				got, ok := plain.Metrics[m.Name]
				if !ok || got.Unit != m.Unit || got.Value <= 0 {
					t.Errorf("end-to-end %s: emitted %v (%+v), want a positive value in %s", m.Name, ok, got, m.Unit)
				}
			}
			for _, m := range perLayer {
				if got, ok := traced.Metrics[m.Name]; !ok || got.Unit != m.Unit {
					t.Errorf("per-layer %s: emitted %v (%+v), want unit %s", m.Name, ok, got, m.Unit)
				}
				measured[m.Name] = measured[m.Name] || traced.Samples[m.Name] > 0
			}
			if st, err := os.Stat(spans); err != nil || st.Size() == 0 {
				t.Errorf("span file: %v", err)
			}
			// The bypass claim: straight-line prediction is noise beside the op.
			if w.Name == "explore_file" || w.Name == "explore_sharded" {
				sl := traced.Metrics["prefetch.straightline.observe.us_per_query"].Value
				opUS := 1e6 / plain.Metrics["queries_per_s"].Value
				if sl <= 0 || sl > 0.05*opUS {
					t.Errorf("straight-line observe %.2f us per query, op %.2f us per query: want >0 and under 5%%", sl, opUS)
				}
			}
		})
	}
}

// TestSameSeedSameVirtualClock: one seed gives identical virtual-clock
// outcomes, another seed gives other walks.
func TestSameSeedSameVirtualClock(t *testing.T) {
	opt := smokeOptions(t)
	run := func(seed int64) (passResult, runResult) {
		o := opt
		o.seed = seed
		b, err := newBench("explore", o)
		if err != nil {
			t.Fatal(err)
		}
		defer b.close()
		if err := b.setup(nil); err != nil {
			t.Fatal(err)
		}
		p, err := b.pass(nil, false)
		if err != nil {
			t.Fatal(err)
		}
		r, err := runUntraced("explore", o)
		if err != nil {
			t.Fatal(err)
		}
		return p, r
	}
	p1, r1 := run(7)
	p2, r2 := run(7)
	p3, _ := run(8)
	if p1.fingerprint != p2.fingerprint || !reflect.DeepEqual(p1.v, p2.v) {
		t.Error("the same seed gave different virtual-clock outcomes")
	}
	for name := range virtualClock {
		if r1.Metrics[name] != r2.Metrics[name] {
			t.Errorf("%s: %v then %v for the same seed", name, r1.Metrics[name], r2.Metrics[name])
		}
	}
	if p1.fingerprint == p3.fingerprint {
		t.Error("another seed gave the same walks")
	}
}

// TestInjectedCheckFailure takes explore_file's replica away: damaged pages
// can then be detected but not repaired, which the checks must report as
// failed queries and a failing run.
func TestInjectedCheckFailure(t *testing.T) {
	opt := smokeOptions(t)
	opt.fileCfg = pagestore.FileStoreConfig{Mode: pagestore.ChecksumVerify}
	res, err := runUntraced("explore_file", opt)
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Failed == 0 {
		t.Errorf("correct %v, failed %d of %d: want an incorrect run with failed queries", res.Correct, res.Failed, res.Attempted)
	}
	if err := runOne("explore_file", opt, false, ""); err == nil {
		t.Error("runOne returned no error for a run that failed its checks (the process would exit 0)")
	}
	if left, _ := os.ReadDir(opt.tmpRoot); len(left) != 0 {
		t.Errorf("%d entries left under the scratch directory after a failed run", len(left))
	}
}

// TestCompareRefuses: results taken under another seed, size or machine shape
// are not comparable, nor are results that lack a workload or a metric;
// another commit is.
func TestCompareRefuses(t *testing.T) {
	opt := smokeOptions(t)
	full := func() ledger {
		l := ledger{Fingerprint: newFingerprint(opt), Workloads: map[string]ledgerEntry{}}
		for _, w := range workloads {
			e := ledgerEntry{EndToEnd: map[string]ledgerValue{}}
			for _, m := range endToEnd {
				e.EndToEnd[m.Name] = ledgerValue{Value: 1, Unit: m.Unit, N: 1}
			}
			l.Workloads[w.Name] = e
		}
		return l
	}
	write := func(l ledger) string {
		text, err := json.Marshal(l)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(string(text), `"claim":null`) {
			t.Errorf("results file does not end with a null claim: %s", text)
		}
		path := filepath.Join(t.TempDir(), "old.json")
		if err := os.WriteFile(path, text, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	old := full()
	old.Fingerprint.Commit = "another"
	if err := compare(write(old), full()); err != nil {
		t.Errorf("another commit under the same fingerprint was refused: %v", err)
	}
	old.Fingerprint.Seed++
	if err := compare(write(old), full()); err == nil {
		t.Error("results taken under another seed were compared")
	}
	old = full()
	delete(old.Workloads["explore"].EndToEnd, "queries_per_s")
	if err := compare(write(old), full()); err == nil {
		t.Error("results that lack a metric were compared")
	}
	old = full()
	delete(old.Workloads, "serve_flat")
	if err := compare(write(old), full()); err == nil {
		t.Error("results that lack a workload were compared")
	}
}
