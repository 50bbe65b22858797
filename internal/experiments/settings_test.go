package experiments

import (
	"go/ast"
	"go/parser"
	"go/token"
	"maps"
	"path/filepath"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"

	"scout/internal/core"
	"scout/internal/dataset"
	"scout/internal/engine"
	"scout/internal/fault"
	"scout/internal/pagestore"
	"scout/internal/rtree"
	"scout/internal/workload"
)

// The settings census is the list of record of what a caller can set: every
// exported field of the configuration structs below and every flag of the
// cmd/ binaries, each with a row naming who varies it (DESIGN.md
// "Settings"). A value that nothing varies becomes a constant or goes; one
// that stays says why in its row. Each value has one place: its Default*
// constructor, or the caller that sets it, and no fill repeats it. A README
// example or a test that only parses a flag does not make a value varied:
// nothing is measured with it.

// settingKind classifies a census row.
type settingKind string

const (
	// varied: an experiment, bench workload, example, or a CLI flag that CI
	// or an experiment's result depends on sets it.
	varied settingKind = "varied"
	// testOnly: only tests set it; the row names the test and the
	// behaviour it reaches.
	testOnly settingKind = "test-only"
	// kept: nothing varies it; the row gives the reason it stays settable.
	kept settingKind = "kept"
)

type settingRow struct {
	kind settingKind
	why  string
}

// censusStructs are the configuration structs the census reflects over.
var censusStructs = []any{
	engine.Config{}, engine.ServeConfig{}, engine.AdmissionConfig{},
	engine.BreakerConfig{}, engine.ArrivalConfig{}, engine.ClassSpec{},
	pagestore.CostModel{}, pagestore.FileStoreConfig{},
	core.Config{}, Options{},
	dataset.NeuroConfig{}, dataset.ArteryConfig{}, dataset.LungConfig{}, dataset.RoadConfig{},
	workload.Params{}, rtree.Config{}, fault.Plan{}, fault.StoragePlan{},
}

// Every package under internal/ is scanned for exported struct types named
// like a configuration (censusSuffixes); each must be in censusStructs or in
// notSettings, so a new configuration struct cannot bypass the census.
var censusSuffixes = []string{"Config", "Policy", "Model", "Spec", "Params", "Plan"}

// notSettings are the struct types the scan matches that hold no setting,
// each with the reason.
var notSettings = map[string]string{
	"prefetch.Plan": "a prefetcher's output for one query window, which nothing configures",
}

// settingsCensus has one row per settable value: "<pkg>.<Struct>.<Field>"
// for a field, "<binary> -<name>" for a flag.
var settingsCensus = map[string]settingRow{
	// engine.Config
	"engine.Config.CacheFraction": {varied, "examples/roadnetwork sets 0.02"},
	"engine.Config.Cost":          {kept, "bench/serve.go passes engine.DefaultConfig().Cost to PlanSessions; only a benchmark change may edit bench/ (ROADMAP item 2)"},
	"engine.Config.BatchedIO":     {varied, "layout1, serve_flat's batched axis, explore_file"},
	"engine.Config.Faults":        {varied, "ha1's shard fault profiles, explore_sharded (shard:flaky)"},
	"engine.Config.Backing":       {varied, "dur1 (its page files under os.TempDir), explore_file"},
	"engine.Config.ScrubPages":    {varied, "dur1 (dur1ScrubPages), explore_file (64)"},
	"engine.Config.Replicas":      {varied, "ha1's replication modes, explore_sharded (2)"},
	"engine.Config.Hedge":         {varied, "ha1's hedged mode, explore_sharded (1.5)"},

	// engine.ServeConfig
	"engine.ServeConfig.Engine":           {varied, "serve_flat's batched axis; mu1-mu3, rob1 and load1 pass engine.DefaultConfig through muConfig"},
	"engine.ServeConfig.Policy":           {varied, "mu2's policy ablation, serve_flat's policy axis"},
	"engine.ServeConfig.PrivateCaches":    {varied, "mu3's shared vs private column, serve_flat's private axis"},
	"engine.ServeConfig.CacheShards":      {testOnly, "TestCoreFingerprints' serve/* rows and the serve fault, scrub and open-loop tests set 8: their 7-page shared cache gets 4 stripes at 8 and 1 at the default, so they pin stripe-local eviction"},
	"engine.ServeConfig.InterferenceSeek": {varied, "mu1-mu3, rob1 and load1 (muInterference), serve_flat and serve_sharded"},
	"engine.ServeConfig.Faults":           {varied, "rob1's fault profiles, serve_sharded (shard:flaky)"},
	"engine.ServeConfig.Breaker":          {varied, "rob1's mitigated rows, serve_sharded"},
	"engine.ServeConfig.Admission":        {varied, "rob1's and load1's mitigated rows, serve_sharded"},
	"engine.ServeConfig.SLO":              {varied, "rob1 and load1 (derived from a fault-free or low-load p95), serve_flat and serve_sharded"},
	"engine.ServeConfig.Arrivals":         {varied, "load1, serve_sharded"},
	"engine.ServeConfig.Classes":          {varied, "load1's class mix, serve_sharded"},
	"engine.ServeConfig.Shards":           {varied, "serve_sharded (8) against serve_flat (0)"},
	"engine.ServeConfig.Replicas":         {varied, "serve_sharded (2)"},

	// engine.AdmissionConfig
	"engine.AdmissionConfig.Enabled":       {varied, "rob1's and load1's mitigated rows, serve_sharded"},
	"engine.AdmissionConfig.MaxConcurrent": {testOnly, "TestCoreFingerprints (ceilings 3, 4, 6), TestServeAdmissionRejectsAndDegrades, TestServeOpenLoopDisabledBitExact and TestServeOpenLoopAdmissionAtArrival (2): rejection and degradation at a handful of sessions"},
	"engine.AdmissionConfig.Degrade":       {varied, "load1's mitigated rows, serve_sharded"},

	// engine.BreakerConfig
	"engine.BreakerConfig.Enabled":   {varied, "rob1's mitigated rows, serve_sharded; the per-shard health ledgers (failoverBreakerConfig)"},
	"engine.BreakerConfig.Alpha":     {varied, "failoverBreakerConfig (0.5) against DefaultBreakerConfig (0.3)"},
	"engine.BreakerConfig.TripScore": {varied, "failoverBreakerConfig (1.5) against DefaultBreakerConfig (2)"},
	"engine.BreakerConfig.Cooldown":  {varied, "failoverBreakerConfig (100 ms) against DefaultBreakerConfig (250 ms)"},

	// engine.ArrivalConfig
	"engine.ArrivalConfig.Enabled": {varied, "load1, serve_sharded"},
	"engine.ArrivalConfig.Process": {testOnly, "TestArrivalTimesBursty, TestServeOpenLoopDeterministicAcrossWorkers and TestCoreFingerprints' serve/bursty rows: experiments and bench run the zero value, Poisson; bursty overload is composed by ROADMAP item 8(e)"},
	"engine.ArrivalConfig.Rate":    {varied, "load1's offered-load sweep, serve_sharded's load axis"},
	"engine.ArrivalConfig.Seed":    {varied, "load1 (-seed), serve_sharded (--seed plus the session group)"},

	// engine.ClassSpec
	"engine.ClassSpec.Name":     {kept, "a label serving never reads; load1 and bench/serve.go name their classes with it, and only a benchmark change may edit bench/ (ROADMAP item 2)"},
	"engine.ClassSpec.Weight":   {varied, "load1's mitigated rows, serve_sharded"},
	"engine.ClassSpec.Patience": {varied, "load1's classes (2x, 1x and 0.5x of twice the derived SLO)"},

	// pagestore.CostModel
	"pagestore.CostModel.Seek":        {testOnly, "TestSweepBatchMatchesEagerFlush (a 200 µs seek bridges at most 4 pages), TestDiskSequentialVsRandom and the disk head tests: seek/transfer arithmetic at other ratios"},
	"pagestore.CostModel.Transfer":    {testOnly, "TestDiskSequentialVsRandom and TestDiskStreamsKeepIndependentHeads (1 ms): per-page charges that read off exactly"},
	"pagestore.CostModel.Route":       {kept, "the cross-shard handoff price beside Seek and Transfer; a calibrated execution mode (ROADMAP, parked) fits all of the model's terms together"},
	"pagestore.CostModel.ReplicaRead": {kept, "ha1's golden note names CostModel.ReplicaRead"},

	// pagestore.FileStoreConfig
	"pagestore.FileStoreConfig.Mode":    {varied, "dur1's mode sweep, explore_file's read probes (off, verify, repair)"},
	"pagestore.FileStoreConfig.Replica": {varied, "repair mode in dur1 and explore_file"},

	// core.Config
	"core.Config.Resolution":         {varied, "fig13e"},
	"core.Config.Strategy":           {varied, "ablation_strategy"},
	"core.Config.MaxLocations":       {varied, "ablation_kmeans"},
	"core.Config.Ladder":             {varied, "ablation_incremental"},
	"core.Config.DisablePruning":     {varied, "ablation_pruning"},
	"core.Config.DisableIncremental": {varied, "ablation_incremental_build"},

	// dataset.NeuroConfig
	"dataset.NeuroConfig.NumObjects": {varied, "scale: -scale (Env.Neuro), fig13b's and fig14's object counts, bench's sizes, scoutgen -objects and scouttrace -objects"},
	"dataset.NeuroConfig.Density":    {varied, "fig13b's and fig14's density sweep (Env.NeuroWithObjects)"},
	"dataset.NeuroConfig.Seed":       {kept, "bench's dataSeed and scoutgen -seed set it (to the default 1 and for inspection); kept for ROADMAP item 15's dataset seeds"},

	// dataset.ArteryConfig, dataset.LungConfig
	"dataset.ArteryConfig.NumObjects": {varied, "scale: fig17's artery rows (-scale), scoutgen -objects"},
	"dataset.ArteryConfig.Seed":       {kept, "scoutgen -seed's destination; kept for ROADMAP item 15's dataset seeds"},
	"dataset.LungConfig.NumObjects":   {varied, "scale: fig17's lung rows (-scale), scoutgen -objects"},
	"dataset.LungConfig.Seed":         {kept, "scoutgen -seed's destination; kept for ROADMAP item 15's dataset seeds"},

	// dataset.RoadConfig
	"dataset.RoadConfig.GridNodes": {varied, "scale: Env.Road's lattice side (√Scale), SmallRoadConfig in examples/roadnetwork"},
	"dataset.RoadConfig.Routes":    {varied, "SmallRoadConfig in examples/roadnetwork (64 against the default 256)"},
	"dataset.RoadConfig.RouteLen":  {varied, "SmallRoadConfig in examples/roadnetwork (60 hops against the default 120)"},
	"dataset.RoadConfig.Seed":      {kept, "scoutgen -seed's destination; kept for ROADMAP item 15's dataset seeds"},

	// workload.Params
	"workload.Params.Queries":     {varied, "Figure 10's mix (workload.Microbenchmarks), scouttrace -queries, bench's explore (20)"},
	"workload.Params.Volume":      {varied, "Figure 10's mix, fig15's volume sweep, fig17's volume fractions, scouttrace -volume"},
	"workload.Params.Shape":       {varied, "Figure 10's cube and frustum rows, examples/walkthrough"},
	"workload.Params.Gap":         {varied, "fig13f's gap sweep, Figure 10's gap rows, load1's and serve_sharded's gap class"},
	"workload.Params.Overlap":     {varied, "ablation_incremental_build (0.75); with TestFig14CalibrationPinned's overlap walk and BenchmarkScoutObserveOverlap it drives the incremental graph lifecycle, and goes with it (ROADMAP item 22)"},
	"workload.Params.Jitter":      {varied, "ablation_incremental_build (-1, no jitter); goes with Overlap (ROADMAP item 22)"},
	"workload.Params.WindowRatio": {varied, "Figure 10's mix, ablation_incremental's r sweep, scouttrace -ratio"},

	// rtree.Config
	"rtree.Config.ObjectsPerPage": {testOnly, "rtree, flatindex, core and engine tests build multi-level trees from small stores (1 to 50 objects per page); programs run pagestore.DefaultObjectsPerPage"},
	"rtree.Config.Fanout":         {testOnly, "rtree and FLAT tests (fanout 3, 6 and 8) build deep trees from small stores; programs run the leaf fanout"},

	// fault.Plan: ParseProfile's canned profiles set every field.
	"fault.Plan.Seed":            {varied, "ParseProfile's seed: -faultseed (rob1, ha1), bench's --faultseed"},
	"fault.Plan.ReadErrorRate":   {varied, "rob1's light, moderate and heavy profiles; shard:flaky (ha1, explore_sharded, serve_sharded)"},
	"fault.Plan.SlowPageRate":    {varied, "rob1's profiles"},
	"fault.Plan.SlowPagePenalty": {varied, "rob1's profiles"},
	"fault.Plan.StallPeriod":     {varied, "rob1's profiles"},
	"fault.Plan.StallRate":       {varied, "rob1's profiles"},
	"fault.Plan.StallPenalty":    {varied, "rob1's profiles"},
	"fault.Plan.StarvePeriod":    {varied, "rob1's profiles"},
	"fault.Plan.StarveRate":      {varied, "rob1's profiles"},
	"fault.Plan.OutagePeriod":    {varied, "ha1's shard:outage and shard:flaky; explore_sharded and serve_sharded (shard:flaky)"},
	"fault.Plan.OutageRate":      {varied, "ha1's shard:outage and shard:flaky; explore_sharded and serve_sharded (shard:flaky)"},
	"fault.Plan.BrownoutPeriod":  {varied, "ha1's shard:brownout and shard:flaky; explore_sharded and serve_sharded (shard:flaky)"},
	"fault.Plan.BrownoutRate":    {varied, "ha1's shard:brownout and shard:flaky; explore_sharded and serve_sharded (shard:flaky)"},
	"fault.Plan.BrownoutFactor":  {varied, "ha1's shard:brownout (4) and shard:flaky (3)"},

	// fault.StoragePlan
	"fault.StoragePlan.Seed":        {varied, "dur1 (-faultseed), explore_file (--faultseed)"},
	"fault.StoragePlan.CorruptRate": {varied, "dur1's rate sweep, explore_file (1 %)"},
	"fault.StoragePlan.TornRate":    {varied, "dur1 (a quarter of the corrupt rate), explore_file (0.25 %)"},
	"fault.StoragePlan.CrashStep":   {testOnly, "TestStorageCrashAt selects each relayout crash point; dur1 and explore_file pass NoCrash"},

	// experiments.Options
	"experiments.Options.Scale":     {varied, "-scale; the goldens run 0.002"},
	"experiments.Options.Sequences": {varied, "-seqs; the goldens run 2"},
	"experiments.Options.Seed":      {kept, "-seed's destination; the goldens pin 7 and TestHa1PropertiesCIScale re-checks ha1 at 11"},
	"experiments.Options.Workers":   {varied, "-workers; CI's Harness smoke diffs 1 against 4"},
	"experiments.Options.FaultSeed": {kept, "-faultseed's destination; TestHa1PropertiesCIScale runs 3"},
	"experiments.Options.Progress":  {kept, "no effect on results: -v prints its progress lines on stderr"},

	// cmd/scoutbench
	"scoutbench -list":       {kept, "prints the experiment index; the -exp usage error points to it"},
	"scoutbench -exp":        {varied, "CI's Harness smoke and durable run, README"},
	"scoutbench -scale":      {varied, "CI's Harness smoke (0.05) and durable run (0.02), README"},
	"scoutbench -seqs":       {varied, "CI's Harness smoke and durable run"},
	"scoutbench -seed":       {kept, "the workload seed (Options.Seed) every experiment draws its sequences from; the goldens pin the default 7"},
	"scoutbench -workers":    {varied, "CI's Harness smoke diffs -workers 1 against 4"},
	"scoutbench -faultseed":  {kept, "decouples rob1's and ha1's fault schedules from -seed (README)"},
	"scoutbench -cpuprofile": {kept, "profiling output, no effect on results (README)"},
	"scoutbench -memprofile": {kept, "profiling output, no effect on results (README)"},
	"scoutbench -v":          {kept, "progress lines on stderr, no effect on results"},

	// cmd/scoutgen
	"scoutgen -dataset": {varied, "CI's small-CLI run, TestAllDatasets"},
	"scoutgen -objects": {varied, "CI's small-CLI run (5000), TestAllDatasets (500)"},
	"scoutgen -seed":    {kept, "the generation seed of a dataset printed for inspection; 0 keeps each generator's own"},

	// cmd/scouttrace
	"scouttrace -prefetcher": {kept, "picks the traced prefetcher; the default scout is the one the trace explains"},
	"scouttrace -queries":    {varied, "CI's small-CLI run (5)"},
	"scouttrace -volume":     {kept, "query volume of the traced walk, the paper's 80 000 µm³ by default"},
	"scouttrace -gap":        {kept, "gap of the traced walk, for tracing SCOUT-OPT's gap traversal"},
	"scouttrace -ratio":      {kept, "prefetch window ratio of the traced walk"},
	"scouttrace -objects":    {varied, "CI's small-CLI run (20000)"},
	"scouttrace -seed":       {kept, "the traced walk's workload seed"},
}

// TestSettingsCensus fails on a settable value without a census row, on a
// row whose value is gone, and on a configuration struct the census does not
// reflect over. Run it with -v for the count.
func TestSettingsCensus(t *testing.T) {
	have := map[string]bool{}
	fields := 0
	listed := map[string]bool{}
	for _, v := range censusStructs {
		typ := reflect.TypeOf(v)
		listed[typ.String()] = true
		for i := 0; i < typ.NumField(); i++ {
			if f := typ.Field(i); f.IsExported() {
				have[typ.String()+"."+f.Name] = true
				fields++
			}
		}
	}
	for _, name := range configStructs(t) {
		if !listed[name] && notSettings[name] == "" {
			t.Errorf("%s looks like a configuration struct but is not in censusStructs or notSettings", name)
		}
	}
	flags := cmdFlags(t)
	for _, name := range flags {
		have[name] = true
	}

	kinds := map[settingKind]int{}
	for _, name := range slices.Sorted(maps.Keys(have)) {
		row, ok := settingsCensus[name]
		switch {
		case !ok:
			t.Errorf("%s has no census row: name what varies it, the test that reaches it, or why it is kept", name)
		case row.why == "":
			t.Errorf("%s: census row names no caller or reason", name)
		}
		kinds[row.kind]++
	}
	for _, name := range slices.Sorted(maps.Keys(settingsCensus)) {
		if !have[name] {
			t.Errorf("census row %q names a setting that no longer exists", name)
		}
	}
	t.Logf("settings census: %d settable values (%d fields, %d flags): %d varied, %d test-only, %d kept",
		len(have), fields, len(flags), kinds[varied], kinds[testOnly], kinds[kept])
}

// flagDefiners are the flag package's functions that define a flag on the
// command line, with the index of the flag's name among their arguments.
var flagDefiners = map[string]int{
	"Bool": 0, "Duration": 0, "Float64": 0, "Int": 0, "Int64": 0,
	"String": 0, "Uint": 0, "Uint64": 0, "Func": 0, "BoolFunc": 0,
	"BoolVar": 1, "DurationVar": 1, "Float64Var": 1, "IntVar": 1, "Int64Var": 1,
	"StringVar": 1, "UintVar": 1, "Uint64Var": 1, "TextVar": 1, "Var": 1,
}

// cmdFlags parses cmd/*/main.go and returns every flag the flag package
// defines there, as "<binary> -<name>".
func cmdFlags(t *testing.T) []string {
	t.Helper()
	mains, err := filepath.Glob("../../cmd/*/main.go")
	if err != nil || len(mains) == 0 {
		t.Fatalf("no cmd/*/main.go found (%v)", err)
	}
	var out []string
	for _, path := range mains {
		bin := filepath.Base(filepath.Dir(path))
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if pkg, ok := sel.X.(*ast.Ident); !ok || pkg.Name != "flag" {
				return true
			}
			if sel.Sel.Name == "NewFlagSet" {
				t.Errorf("%s: flag.NewFlagSet defines flags the census does not read", path)
				return true
			}
			arg, ok := flagDefiners[sel.Sel.Name]
			if !ok {
				return true
			}
			var name string
			if len(call.Args) > arg {
				if lit, ok := call.Args[arg].(*ast.BasicLit); ok && lit.Kind == token.STRING {
					name, _ = strconv.Unquote(lit.Value)
				}
			}
			if name == "" {
				t.Errorf("%s: flag.%s without a literal flag name: the census cannot read it", path, sel.Sel.Name)
				return true
			}
			out = append(out, bin+" -"+name)
			return true
		})
	}
	return out
}

// configStructs lists the exported struct types of every package under
// internal/ whose names end in one of censusSuffixes, as "<pkg>.<Type>".
func configStructs(t *testing.T) []string {
	t.Helper()
	var out []string
	dirs, err := filepath.Glob("../*")
	if err != nil || len(dirs) == 0 {
		t.Fatalf("no packages under internal/ (%v)", err)
	}
	for _, dir := range dirs {
		files, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		for _, path := range files {
			if strings.HasSuffix(path, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(token.NewFileSet(), path, nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			for _, decl := range f.Decls {
				gen, ok := decl.(*ast.GenDecl)
				if !ok || gen.Tok != token.TYPE {
					continue
				}
				for _, spec := range gen.Specs {
					ts := spec.(*ast.TypeSpec)
					if _, ok := ts.Type.(*ast.StructType); !ok || !ts.Name.IsExported() {
						continue
					}
					for _, suf := range censusSuffixes {
						if strings.HasSuffix(ts.Name.Name, suf) {
							out = append(out, f.Name.Name+"."+ts.Name.Name)
							break
						}
					}
				}
			}
		}
	}
	return out
}
