package experiments

import (
	"go/ast"
	"go/parser"
	"go/token"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// The code census is the list of record of the functions no program runs:
// every function and method declared in a non-test file under internal/
// whose name appears in no non-test file of internal/, cmd/, examples/ or
// bench/. An unexported name counts only its own package's files. Such a
// function is deleted, or keeps a row naming the test that needs it (a
// reference implementation, an oracle, a fixture) or the standard-library
// interface it implements, and why.
//
// The rule is by name, not by type: a method counts as called when any
// identifier of its name appears (a field, a selector, an interface method).
// A declaration's own name does not count.

// codeRow keeps one function that no program calls.
type codeRow struct {
	// needs is the test (Test*, Benchmark* or Fuzz* function) whose file
	// names the function, or the standard-library interface it implements,
	// such as "heap.Interface".
	needs string
	why   string
}

// censusRoots are the trees whose non-test files count as callers, relative
// to this package. Only internal/ is scanned for declarations.
var censusRoots = []string{"../../internal", "../../cmd", "../../examples", "../../bench"}

// codeCensus has one row per function no program calls:
// "<pkg>.<Func>" or "<pkg>.<Recv>.<Method>".
var codeCensus = map[string]codeRow{
	// Standard-library interfaces.
	"engine.queue.Less": {"heap.Interface", "container/heap orders the serve loop's next-event queue with it"},
	"engine.queue.Swap": {"heap.Interface", "container/heap moves the serve loop's next-event queue entries with it"},
	"engine.queue.Push": {"heap.Interface", "required by heap.Interface; the serve loop calls only heap.Init, Fix and Pop"},

	// Reference implementations the tests diff the kernels against.
	"pagestore.Matches":               {"TestAppendMatchesEqualsPerObjectLoop", "the one-object result filter; refineOracle applies it per object and AppendMatches must agree, and the index tests use it as their brute force"},
	"pagestore.Store.Runs":            {"TestSweepBatchMatchesEagerFlush", "eagerFlush, the per-run flush sweepBatch is diffed against, cuts its elevator runs with it"},
	"sgraph.Graph.ReachableCrossings": {"TestReachableExits", "the composed §4.4 traversal that MarkReachable + AppendCrossings replace on the hot path"},

	// Oracles: accessors a test reads to check a result.
	"engine.ShardSet.State":            {"TestShardSetOrder", "Do must hand shard i its own state"},
	"geom.Vec3.IsFinite":               {"TestGenerateOnRealDataset", "generated query centers must be finite"},
	"pagestore.FileStore.DecodePage":   {"TestFileStoreRoundTrip", "decodes a page from the file to compare with the in-memory store"},
	"pagestore.FileStore.Generation":   {"TestRelayoutCrashMatrix", "a completed relayout bumps the generation stamp and a crashed one leaves it"},
	"pagestore.FileStore.WasCorrupted": {"TestChecksumDetection", "ground truth of the pages ApplyCorruption damaged"},
	"pagestore.Store.PageOf":           {"TestStorePagination", "every object's page must list it"},
	"pagestore.Store.PageObjects":      {"TestStorePagination", "the page listings pagination and FuzzPaginate compare"},
	"sgraph.Graph.Adj":                 {"TestNoSpuriousLongEdges", "reads adjacency lists; canonicalFingerprint and checkSimpleEdges do too"},
	"sgraph.Graph.Components":          {"TestAdvanceEquivalentToFreshBuild", "canonicalFingerprint compares the components of advanced and fresh graphs; graphFingerprint does the same for reused arenas"},
	"sgraph.Graph.ObjectAt":            {"TestAdvanceEquivalentToFreshBuild", "canonicalFingerprint names vertices by object, so advanced and fresh graphs compare"},
	"sgraph.Graph.VertexOf":            {"TestReachableFrom", "looks up the start vertex of an object"},
	"sgraph.Graph.VertexSlots":         {"TestAdvanceCompaction", "slots including tombstones show that compaction ran"},

	// Fixtures: constructors the tests build inputs with.
	"dataset.SmallArteryConfig":     {"TestGenerateArtery", "a fast artery world; TestSTROrderMatchesSortSlice packs it too"},
	"dataset.SmallLungConfig":       {"TestGenerateLung", "a fast lung world; TestSTROrderMatchesSortSlice packs it too"},
	"geom.AABB.Translate":           {"TestAdvanceEquivalentToFreshBuild", "moves the query window of the delta-lifecycle tests"},
	"geom.BoxAt":                    {"TestAppendMatchesAdversarialBoxes", "boxes by center and sides; core's queryAt helper builds its queries with it"},
	"pagestore.RelayoutCrashPoints": {"TestRelayoutCrashMatrix", "enumerates the crash points the matrix and TestStorageCrashAt arm"},
}

// censusFunc is one declared function.
type censusFunc struct {
	key  string // codeCensus key
	name string
	dir  string // package directory
}

// TestCodeCensus fails on a function no program calls that has no row, on
// a row whose function is gone or has a caller, and on a row that names no
// test or interface. Run it with -v for the count.
func TestCodeCensus(t *testing.T) {
	var funcs []censusFunc
	anywhere := map[string]bool{}         // names referenced in any package
	local := map[string]map[string]bool{} // package dir -> names referenced there
	tests := map[string]map[string]bool{} // test function -> names its file uses
	for _, root := range censusRoots {
		err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() {
				if d.Name() == "testdata" {
					return filepath.SkipDir
				}
				return nil
			}
			if !strings.HasSuffix(path, ".go") {
				return nil
			}
			f, err := parser.ParseFile(token.NewFileSet(), path, nil, 0)
			if err != nil {
				return err
			}
			dir := filepath.Dir(path)
			if strings.HasSuffix(path, "_test.go") {
				names := map[string]bool{}
				ast.Inspect(f, func(n ast.Node) bool {
					if id, ok := n.(*ast.Ident); ok {
						names[id.Name] = true
					}
					return true
				})
				for _, decl := range f.Decls {
					if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv == nil {
						if tests[fn.Name.Name] == nil {
							tests[fn.Name.Name] = map[string]bool{}
						}
						maps.Copy(tests[fn.Name.Name], names)
					}
				}
				return nil
			}
			decls := map[*ast.Ident]bool{}
			for _, decl := range f.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok {
					continue
				}
				decls[fn.Name] = true
				if strings.HasPrefix(root, "../../internal") && fn.Name.Name != "init" {
					funcs = append(funcs, censusFunc{censusKey(f.Name.Name, fn), fn.Name.Name, dir})
				}
			}
			if local[dir] == nil {
				local[dir] = map[string]bool{}
			}
			ast.Inspect(f, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok && !decls[id] {
					anywhere[id.Name] = true
					local[dir][id.Name] = true
				}
				return true
			})
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if len(funcs) == 0 {
		t.Fatal("no functions found under internal/")
	}

	uncalled := map[string]string{} // key -> function name
	for _, fn := range funcs {
		called := local[fn.dir][fn.name]
		if ast.IsExported(fn.name) {
			called = anywhere[fn.name]
		}
		if called {
			continue
		}
		uncalled[fn.key] = fn.name
		if _, ok := codeCensus[fn.key]; !ok {
			t.Errorf("%s: no program calls it; delete it, or add a codeCensus row naming the test that needs it and why", fn.key)
		}
	}
	for _, key := range slices.Sorted(maps.Keys(codeCensus)) {
		row := codeCensus[key]
		name, ok := uncalled[key]
		switch {
		case !ok:
			t.Errorf("census row %q names a function that is gone or has a caller", key)
		case row.why == "":
			t.Errorf("census row %q gives no reason", key)
		case strings.Contains(row.needs, "."):
			// A standard-library interface, such as heap.Interface.
		case tests[row.needs] == nil:
			t.Errorf("census row %q: %q is neither a test function nor a standard-library interface", key, row.needs)
		case !tests[row.needs][name]:
			t.Errorf("census row %q: the file of %s never names %s", key, row.needs, name)
		}
	}
	t.Logf("code census: %d functions, %d with no program caller, %d rows", len(funcs), len(uncalled), len(codeCensus))
}

// censusKey names a declared function "<pkg>.<Func>" or
// "<pkg>.<Recv>.<Method>".
func censusKey(pkg string, fn *ast.FuncDecl) string {
	if fn.Recv == nil || len(fn.Recv.List) == 0 {
		return pkg + "." + fn.Name.Name
	}
	typ := fn.Recv.List[0].Type
	if star, ok := typ.(*ast.StarExpr); ok {
		typ = star.X
	}
	switch x := typ.(type) { // a generic receiver, T[P] or T[P, Q]
	case *ast.IndexExpr:
		typ = x.X
	case *ast.IndexListExpr:
		typ = x.X
	}
	return pkg + "." + typ.(*ast.Ident).Name + "." + fn.Name.Name
}
