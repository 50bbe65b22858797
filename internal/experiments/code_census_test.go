package experiments

import (
	"errors"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// The code census is the list of record of the functions no program runs.
// It type-checks the non-test files of internal/, cmd/, examples/ and
// bench/ with go/types and walks reachability by object from the program
// roots: every main, every init and every package-level initializer.
//
//   - A function reaches every function or method it uses: a call, a
//     function or method value, a method expression (generic instances
//     resolve to their declaration).
//   - A call of an interface method reaches that method of every type in
//     the tree that implements the interface.
//   - A value whose type flows into an interface declared outside the tree
//     (a heap.Interface, an error, an argument of fmt.Sprint) reaches every
//     method by which its type satisfies an interface of a standard-library
//     package the tree imports: the library may call any of them.
//
// Every function declared in a non-test file of internal/, cmd/ or
// examples/ that no program reaches is deleted, or keeps a row naming the
// test that reaches it by the same rules (a reference implementation, an
// oracle, a fixture) and why. bench/ is its own module: its code is a
// caller, never a candidate.
//
// The field census runs on the same load. A named, non-embedded field of a
// struct type declared in a non-test file of internal/ is read when a
// function some program reaches selects it (generic fields resolve to their
// declaration), except:
//
//   - the left-hand side of an assignment or of an ++/-- and a
//     composite-literal key are writes, not reads;
//   - a read inside the right-hand side of an assignment to field F, or
//     inside the value of key F:, counts only once F itself is read (a
//     fixpoint), so a counter folded into an aggregate that nothing reads
//     (agg.N += s.N) is not read either.
//
// A selection through embedded fields reads each of them, a promoted method
// included; a struct compared with == or != reads all its fields; a value
// handed to a fmt print function reads every field fmt prints. No other
// outside interface reads a field (reflect.DeepEqual, sort.Slice). Every
// field no program reads is deleted, or keeps a row naming the test that
// reads it by the same rules and why.

// codeRow keeps one function that no program reaches.
type codeRow struct {
	needs string // the Test*, Benchmark* or Fuzz* function that reaches it
	why   string
}

// censusRoot is one tree of packages, named by its import-path prefix.
type censusRoot struct {
	path, dir string
	client    bool // its functions are callers only, never census rows
	fields    bool // its struct fields are field census candidates
}

// repoRoots are the trees the repository's census type-checks.
var repoRoots = []censusRoot{
	{"scout/internal", "../../internal", false, true},
	{"scout/cmd", "../../cmd", false, false},
	{"scout/examples", "../../examples", false, false},
	{"scout/bench", "../../bench", true, false},
}

// codeCensus has one row per function no program reaches:
// "<pkg>.<Func>" or "<pkg>.<Recv>.<Method>".
var codeCensus = map[string]codeRow{
	// Reference implementations the tests diff the kernels against.
	"pagestore.Matches":               {"TestAppendMatchesEqualsPerObjectLoop", "the one-object result filter; refineOracle applies it per object and AppendMatches must agree, and the index tests use it as their brute force"},
	"pagestore.Store.Runs":            {"TestSweepBatchMatchesEagerFlush", "eagerFlush, the per-run flush sweepBatch is diffed against, cuts its elevator runs with it"},
	"sgraph.Graph.ReachableCrossings": {"TestReachableExits", "the composed §4.4 traversal that MarkReachable + AppendCrossings replace on the hot path"},

	// Oracles: accessors a test reads to check a result.
	"geom.Vec3.IsFinite":             {"TestGenerateOnRealDataset", "generated query centers must be finite"},
	"pagestore.FileStore.DecodePage": {"TestFileStoreRoundTrip", "decodes a page from the file to compare with the in-memory store"},
	"pagestore.Store.PageOf":         {"TestStorePagination", "every object's page must list it"},
	"pagestore.Store.PageObjects":    {"TestStorePagination", "the page listings pagination and FuzzPaginate compare"},
	"sgraph.Graph.Components":        {"TestAdvanceEquivalentToFreshBuild", "canonicalFingerprint compares the components of advanced and fresh graphs; graphFingerprint does the same for reused arenas"},
	"sgraph.Graph.VertexOf":          {"TestReachableFrom", "looks up the start vertex of an object"},

	// Fixtures: constructors the tests build inputs with.
	"dataset.SmallArteryConfig":     {"TestGenerateArtery", "a fast artery world; TestSTROrderMatchesSortSlice packs it too"},
	"dataset.SmallLungConfig":       {"TestGenerateLung", "a fast lung world; TestSTROrderMatchesSortSlice packs it too"},
	"geom.AABB.Translate":           {"TestAdvanceEquivalentToFreshBuild", "moves the query window of the delta-lifecycle tests"},
	"geom.BoxAt":                    {"TestAppendMatchesAdversarialBoxes", "boxes by center and sides; core's queryAt helper builds its queries with it"},
	"pagestore.RelayoutCrashPoints": {"TestRelayoutCrashMatrix", "enumerates the crash points the matrix and TestStorageCrashAt arm"},
}

// fieldCensus has one row per field no program reads:
// "<pkg>.<Type>.<Field>".
var fieldCensus = map[string]codeRow{
	"core.QueryStats.SparsePages": {"TestScoutOptSparseBuildIsSmaller", "the pages SCOUT-OPT's sparse build kept; ROADMAP item 12(a) splits fig12's gain with it, so it stays until 12(a) is done"},
	"core.QueryStats.GapPages":    {"TestScoutOptGapTraversal", "the pages the gap traversal read; kept with SparsePages for ROADMAP item 12(a)"},
	"engine.ClassSpec.Name":       {"TestServeClassPriorityShiftsBudget", "a label serving never reads; bench/serve.go sets it and only a benchmark change may edit bench/ (ROADMAP item 2)"},
}

// TestCodeCensus fails on a function no program reaches, or a field no
// program reads, that has no row; on a row whose function is gone or
// reached, or whose field is gone or read; and on a row whose test does not
// reach its function or read its field. Run it with -v for the counts and
// for the functions that only bench/'s main reaches.
func TestCodeCensus(t *testing.T) {
	c := loadCensus(t, repoRoots)
	if len(c.decls) == 0 || len(c.fields) == 0 {
		t.Fatal("no functions or fields found")
	}
	dead := map[string]bool{}
	for _, d := range c.unreached(func(string) bool { return true }) {
		dead[d.key] = true
		if _, ok := codeCensus[d.key]; !ok {
			t.Errorf("%s: no program reaches it; delete it, or add a codeCensus row naming the test that reaches it and why", d.key)
		}
	}
	unread := map[string]bool{}
	for _, f := range c.unread() {
		unread[f.key] = true
		if _, ok := fieldCensus[f.key]; !ok {
			t.Errorf("field %s: no program reads it; delete it, or add a fieldCensus row naming the test that reads it and why", f.key)
		}
	}

	needed := map[string]bool{}
	for _, rows := range []map[string]codeRow{codeCensus, fieldCensus} {
		for _, row := range rows {
			needed[row.needs] = true
		}
	}
	byTest := c.testReach(needed)
	for _, key := range slices.Sorted(maps.Keys(codeCensus)) {
		row := codeCensus[key]
		switch {
		case !dead[key]:
			t.Errorf("census row %q names a function that is gone or that a program reaches", key)
		case row.why == "":
			t.Errorf("census row %q gives no reason", key)
		case byTest[row.needs].funcs == nil:
			t.Errorf("census row %q: %q is not a test, benchmark or fuzz function", key, row.needs)
		case !byTest[row.needs].funcs[key]:
			t.Errorf("census row %q: %s does not reach it", key, row.needs)
		}
	}
	for _, key := range slices.Sorted(maps.Keys(fieldCensus)) {
		row := fieldCensus[key]
		switch {
		case !unread[key]:
			t.Errorf("field census row %q names a field that is gone or that a program reads", key)
		case row.why == "":
			t.Errorf("field census row %q gives no reason", key)
		case byTest[row.needs].funcs == nil:
			t.Errorf("field census row %q: %q is not a test, benchmark or fuzz function", key, row.needs)
		case !byTest[row.needs].fields[key]:
			t.Errorf("field census row %q: %s does not read it", key, row.needs)
		}
	}

	benchOnly := 0
	for _, d := range c.unreached(func(path string) bool { return path != "scout/bench" }) {
		if !dead[d.key] {
			benchOnly++
			t.Logf("only bench/ reaches %s", d.key)
		}
	}
	t.Logf("code census: %d functions, %d no program reaches, %d rows, %d reached only from bench/", len(c.decls), len(dead), len(codeCensus), benchOnly)
	t.Logf("field census: %d fields, %d no program reads, %d rows", len(c.fields), len(unread), len(fieldCensus))
}

// TestCodeCensusFixture runs both censuses over testdata/census, a program
// with two kinds of dead code a rule matching by name cannot see (a method
// named like a live field, a two-function cycle), two live methods no call
// names by type (one reached through an interface call, a String reached
// through fmt), and one field per field rule (lib/fields.go).
func TestCodeCensusFixture(t *testing.T) {
	c := loadCensus(t, []censusRoot{{"fixture", "testdata/census", false, true}})
	var got []string
	for _, d := range c.unreached(func(string) bool { return true }) {
		got = append(got, d.key)
	}
	if want := []string{"lib.Store.Backing", "lib.ping", "lib.pong"}; !slices.Equal(got, want) {
		t.Errorf("unreached = %v, want %v", got, want)
	}
	got = nil
	for _, f := range c.unread() {
		got = append(got, f.key)
	}
	if want := []string{"lib.Ledger.Granted", "lib.Stats.Folded", "lib.Stats.Written", "lib.Tally.Seen"}; !slices.Equal(got, want) {
		t.Errorf("unread = %v, want %v", got, want)
	}
}

// censusDecl is one function or method declared in a non-client file.
type censusDecl struct {
	key string
	fn  *types.Func
}

// censusPkg is one type-checked package.
type censusPkg struct {
	files []*ast.File
	pkg   *types.Package
}

// census is the call graph of a set of trees. Its nodes are declared
// functions and methods, and one node per package for its package-level
// initializers.
type census struct {
	t     *testing.T
	fset  *token.FileSet
	trees []censusRoot
	std   types.Importer
	pkgs  map[string]*censusPkg // import path -> non-test package
	decls []censusDecl

	calls map[*types.Func][]*types.Func // concrete callees, by object
	icall map[*types.Func][]ifaceCall   // interface-method calls
	flows map[*types.Func][]types.Type  // types converted to an outside interface
	inits map[string][]*types.Func      // package path -> its roots
	named []*types.Named                // the trees' non-generic, non-interface types
	stdIf []*types.Interface            // interfaces of the imported standard library
	impls map[ifaceCall][]*types.Func   // memo of ifaceCall -> implementing methods

	fields []censusField              // field census candidates, by key
	uses   map[*types.Func][]fieldUse // the fields each function reads
}

// censusField is one field census candidate. A field is known by its
// declaration's position: a package checked again with its tests declares
// new objects at the same positions.
type censusField struct {
	key string
	pos token.Pos
}

// fieldUse is one read of the field declared at pos; with feeds, it counts
// only once one of the fields it is assigned to is read.
type fieldUse struct {
	pos   token.Pos
	feeds []token.Pos
}

// ifaceCall is a call of method name through a value of interface type.
type ifaceCall struct {
	iface *types.Interface
	pkg   *types.Package // for an unexported name
	name  string
}

// censusFset and censusStd are shared by every load in the test binary:
// the standard library is type-checked from source once, and positions
// (a field's identity) stay unique across loads.
var (
	censusFset = token.NewFileSet()
	censusStd  = importer.ForCompiler(censusFset, "source", nil)
)

// loadCensus type-checks every package under the trees and builds the
// call graph of their non-test files.
func loadCensus(t *testing.T, trees []censusRoot) *census {
	t.Helper()
	c := &census{
		t: t, fset: censusFset, trees: trees,
		std:   censusStd,
		pkgs:  map[string]*censusPkg{},
		calls: map[*types.Func][]*types.Func{},
		icall: map[*types.Func][]ifaceCall{},
		flows: map[*types.Func][]types.Type{},
		inits: map[string][]*types.Func{},
		impls: map[ifaceCall][]*types.Func{},
		uses:  map[*types.Func][]fieldUse{},
	}
	for _, tree := range trees {
		err := filepath.WalkDir(tree.dir, func(path string, d os.DirEntry, err error) error {
			if err != nil || !d.IsDir() {
				return err
			}
			if d.Name() == "testdata" {
				return filepath.SkipDir
			}
			rel, err := filepath.Rel(tree.dir, path)
			if err != nil {
				return err
			}
			imp := tree.path
			if rel != "." {
				imp += "/" + filepath.ToSlash(rel)
			}
			if _, err := c.Import(imp); err != nil && !errors.Is(err, os.ErrNotExist) {
				return err
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	seen := map[*types.Interface]bool{}
	for _, p := range c.pkgs {
		for _, imp := range p.pkg.Imports() {
			if c.tree(imp.Path()) != nil {
				continue
			}
			for _, name := range imp.Scope().Names() {
				if tn, ok := imp.Scope().Lookup(name).(*types.TypeName); ok && tn.Exported() {
					if it, ok := tn.Type().Underlying().(*types.Interface); ok && it.NumMethods() > 0 && !seen[it] {
						seen[it] = true
						c.stdIf = append(c.stdIf, it)
					}
				}
			}
		}
	}
	c.stdIf = append(c.stdIf, types.Universe.Lookup("error").Type().Underlying().(*types.Interface))
	slices.SortFunc(c.decls, func(a, b censusDecl) int { return strings.Compare(a.key, b.key) })
	slices.SortFunc(c.fields, func(a, b censusField) int { return strings.Compare(a.key, b.key) })
	return c
}

// tree returns the tree an import path belongs to, or nil.
func (c *census) tree(path string) *censusRoot {
	var best *censusRoot
	for i, r := range c.trees {
		if (path == r.path || strings.HasPrefix(path, r.path+"/")) && (best == nil || len(r.path) > len(best.path)) {
			best = &c.trees[i]
		}
	}
	return best
}

// Import implements types.Importer: a tree's packages from their
// directories (type-checked once), the standard library from source.
func (c *census) Import(path string) (*types.Package, error) {
	r := c.tree(path)
	if r == nil {
		return c.std.Import(path)
	}
	if p, ok := c.pkgs[path]; ok {
		return p.pkg, nil
	}
	files, err := c.parseDir(c.dir(path), false)
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, &os.PathError{Op: "import", Path: c.dir(path), Err: os.ErrNotExist}
	}
	p := &censusPkg{files: files}
	p.pkg, c.inits[path] = c.check(path, files, !r.client)
	c.pkgs[path] = p
	return p.pkg, nil
}

// dir returns the directory of a tree package.
func (c *census) dir(path string) string {
	r := c.tree(path)
	return filepath.Join(r.dir, filepath.FromSlash(strings.TrimPrefix(strings.TrimPrefix(path, r.path), "/")))
}

// parseDir parses a directory's non-test files, or its test files.
func (c *census) parseDir(dir string, tests bool) ([]*ast.File, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") != tests {
			continue
		}
		f, err := parser.ParseFile(c.fset, filepath.Join(dir, name), nil, 0)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

// check type-checks one package and adds its functions to the graph;
// declare lists its non-test functions as census candidates. It returns
// the package and its roots: main, every init, and a node standing for its
// package-level initializers.
func (c *census) check(path string, files []*ast.File, declare bool) (*types.Package, []*types.Func) {
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	conf := types.Config{Importer: c, Error: func(err error) { c.t.Error(err) }}
	pkg, _ := conf.Check(path, c.fset, files, info)
	initializers := types.NewFunc(token.NoPos, pkg, "", types.NewSignatureType(nil, nil, nil, nil, nil, false))
	roots := []*types.Func{initializers}
	for _, f := range files {
		for _, decl := range f.Decls {
			fn := initializers
			if fd, ok := decl.(*ast.FuncDecl); ok {
				fn = info.Defs[fd.Name].(*types.Func)
				if fd.Name.Name == "init" || fd.Name.Name == "main" && fd.Recv == nil && pkg.Name() == "main" {
					roots = append(roots, fn)
				} else if declare && !strings.HasSuffix(c.fset.File(f.Pos()).Name(), "_test.go") {
					c.decls = append(c.decls, censusDecl{censusKey(fn), fn})
				}
			}
			c.walk(info, fn, decl)
			c.walkFields(info, fn, decl)
		}
		if declare && c.tree(path).fields {
			c.declareFields(info, f)
		}
	}
	for _, obj := range info.Defs {
		if tn, ok := obj.(*types.TypeName); ok && tn.Parent() == pkg.Scope() && !tn.IsAlias() {
			if n, ok := tn.Type().(*types.Named); ok && n.TypeParams().Len() == 0 && !types.IsInterface(n) {
				c.named = append(c.named, n)
			}
		}
	}
	return pkg, roots
}

// walk records what one declaration uses: functions by object, interface
// calls by method, and the types it converts to an interface declared
// outside the trees.
func (c *census) walk(info *types.Info, fn *types.Func, decl ast.Decl) {
	var sigs []*types.Signature // enclosing function signatures, for returns
	var stack []ast.Node
	flow := func(target types.Type, e ast.Expr) {
		if target != nil && types.IsInterface(target) && !c.inTree(target) {
			if t := info.TypeOf(e); t != nil && !types.IsInterface(t) {
				c.flows[fn] = append(c.flows[fn], t)
			}
		}
	}
	ast.Inspect(decl, func(n ast.Node) bool {
		if n == nil {
			if _, ok := stack[len(stack)-1].(*ast.FuncLit); ok {
				sigs = sigs[:len(sigs)-1]
			}
			stack = stack[:len(stack)-1]
			return true
		}
		stack = append(stack, n)
		switch n := n.(type) {
		case *ast.FuncDecl:
			sigs = append(sigs, info.Defs[n.Name].Type().(*types.Signature))
		case *ast.FuncLit:
			sigs = append(sigs, info.TypeOf(n).(*types.Signature))
		case *ast.Ident:
			if f, ok := info.Uses[n].(*types.Func); ok {
				if it := ifaceOf(f); it != nil {
					c.icall[fn] = append(c.icall[fn], ifaceCall{it, f.Pkg(), f.Name()})
				} else {
					c.calls[fn] = append(c.calls[fn], f.Origin())
				}
			}
		case *ast.CallExpr:
			if tv := info.Types[n.Fun]; tv.IsType() {
				if len(n.Args) == 1 {
					flow(tv.Type, n.Args[0])
				}
			} else if sig, ok := info.TypeOf(n.Fun).Underlying().(*types.Signature); ok {
				for i, a := range n.Args {
					flow(paramType(sig, i, n.Ellipsis.IsValid()), a)
				}
			}
		case *ast.ReturnStmt:
			if len(sigs) > 0 && sigs[len(sigs)-1].Results().Len() == len(n.Results) {
				for i, e := range n.Results {
					flow(sigs[len(sigs)-1].Results().At(i).Type(), e)
				}
			}
		case *ast.AssignStmt:
			if n.Tok == token.ASSIGN && len(n.Lhs) == len(n.Rhs) {
				for i, e := range n.Rhs {
					flow(info.TypeOf(n.Lhs[i]), e)
				}
			}
		case *ast.ValueSpec:
			if n.Type != nil {
				for _, e := range n.Values {
					flow(info.TypeOf(n.Type), e)
				}
			}
		case *ast.SendStmt:
			if ch, ok := info.TypeOf(n.Chan).Underlying().(*types.Chan); ok {
				flow(ch.Elem(), n.Value)
			}
		case *ast.CompositeLit:
			switch u := info.TypeOf(n).Underlying().(type) {
			case *types.Struct:
				for i, e := range n.Elts {
					if kv, ok := e.(*ast.KeyValueExpr); ok {
						if f, ok := info.Uses[kv.Key.(*ast.Ident)].(*types.Var); ok {
							flow(f.Type(), kv.Value)
						}
					} else if i < u.NumFields() {
						flow(u.Field(i).Type(), e)
					}
				}
			case *types.Slice, *types.Array, *types.Map:
				elem := u.(interface{ Elem() types.Type }).Elem()
				for _, e := range n.Elts {
					if kv, ok := e.(*ast.KeyValueExpr); ok {
						if m, ok := u.(*types.Map); ok {
							flow(m.Key(), kv.Key)
						}
						e = kv.Value
					}
					flow(elem, e)
				}
			}
		}
		return true
	})
}

// declareFields adds the named, non-embedded fields of the struct types a
// file declares to the field census, keyed "<pkg>.<Type>.<Field>".
func (c *census) declareFields(info *types.Info, f *ast.File) {
	ast.Inspect(f, func(n ast.Node) bool {
		if ts, ok := n.(*ast.TypeSpec); ok {
			if st, ok := ts.Type.(*ast.StructType); ok {
				for _, fld := range st.Fields.List {
					for _, id := range fld.Names {
						if id.Name != "_" {
							key := info.Defs[id].Pkg().Name() + "." + ts.Name.Name + "." + id.Name
							c.fields = append(c.fields, censusField{key, id.Pos()})
						}
					}
				}
			}
		}
		return true
	})
}

// walkFields records the fields one declaration reads, each with the
// fields its value is assigned to.
func (c *census) walkFields(info *types.Info, fn *types.Func, decl ast.Decl) {
	read := func(v *types.Var, feeds []token.Pos) {
		c.uses[fn] = append(c.uses[fn], fieldUse{v.Origin().Pos(), feeds})
	}
	var visit func(n ast.Node, feeds []token.Pos)
	// target returns the field an assignment to e writes, or nil, and
	// visits what e reads on the way to it (an index, a call).
	target := func(e ast.Expr, feeds []token.Pos) (field *types.Var) {
		for {
			switch x := e.(type) {
			case *ast.ParenExpr:
				e = x.X
			case *ast.StarExpr:
				e = x.X
			case *ast.IndexExpr:
				visit(x.Index, feeds)
				e = x.X
			case *ast.SelectorExpr:
				if sel := info.Selections[x]; sel != nil && sel.Kind() == types.FieldVal {
					if field == nil {
						field = sel.Obj().(*types.Var)
					}
					e = x.X
					continue
				}
				visit(x, feeds)
				return field
			default:
				visit(x, feeds)
				return field
			}
		}
	}
	visit = func(root ast.Node, feeds []token.Pos) {
		ast.Inspect(root, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				var written []token.Pos
				for _, lhs := range n.Lhs {
					if f := target(lhs, feeds); f != nil {
						written = append(written, f.Origin().Pos())
					} else {
						written = append(written, token.NoPos)
					}
				}
				for i, rhs := range n.Rhs {
					to := written
					if len(n.Lhs) == len(n.Rhs) {
						to = written[i : i+1]
					}
					if slices.Contains(to, token.NoPos) {
						visit(rhs, feeds)
					} else {
						visit(rhs, to)
					}
				}
				return false
			case *ast.IncDecStmt:
				target(n.X, feeds)
				return false
			case *ast.CompositeLit:
				s, _ := info.TypeOf(n).Underlying().(*types.Struct)
				for i, e := range n.Elts {
					kv, keyed := e.(*ast.KeyValueExpr)
					switch {
					case s == nil:
						visit(e, feeds)
					case keyed:
						visit(kv.Value, []token.Pos{info.Uses[kv.Key.(*ast.Ident)].Pos()})
					default:
						visit(e, []token.Pos{s.Field(i).Origin().Pos()})
					}
				}
				return false
			case *ast.SelectorExpr:
				if sel := info.Selections[n]; sel != nil {
					path := sel.Index()
					if sel.Kind() != types.FieldVal {
						path = path[:len(path)-1] // the method
					}
					t := sel.Recv()
					for _, i := range path {
						s, ok := derefStruct(t)
						if !ok {
							break
						}
						read(s.Field(i), feeds)
						t = s.Field(i).Type()
					}
				}
			case *ast.BinaryExpr:
				if n.Op == token.EQL || n.Op == token.NEQ {
					eachField(info.TypeOf(n.X), false, func(v *types.Var) { read(v, feeds) })
				}
			case *ast.CallExpr:
				if isFmtPrint(info, n.Fun) {
					for _, a := range n.Args {
						eachField(info.TypeOf(a), true, func(v *types.Var) { read(v, feeds) })
					}
				}
			}
			return true
		})
	}
	visit(decl, nil)
}

// derefStruct returns the struct type t or *t stands for.
func derefStruct(t types.Type) (*types.Struct, bool) {
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	s, ok := t.Underlying().(*types.Struct)
	return s, ok
}

// isFmtPrint reports whether fun is one of package fmt's print functions.
func isFmtPrint(info *types.Info, fun ast.Expr) bool {
	sel, ok := fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	f, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok || f.Pkg() == nil || f.Pkg().Path() != "fmt" {
		return false
	}
	for _, prefix := range []string{"Print", "Sprint", "Fprint", "Append", "Errorf"} {
		if strings.HasPrefix(f.Name(), prefix) {
			return true
		}
	}
	return false
}

// eachField calls visit on every field a comparison of a value of type t
// compares or, with printed, every field fmt prints of it: fmt prints a
// struct's fields and a top-level pointer's target, but not a value whose
// type has a String or Error method.
func eachField(t types.Type, printed bool, visit func(*types.Var)) {
	seen := map[types.Type]bool{}
	var walk func(t types.Type, top bool)
	walk = func(t types.Type, top bool) {
		if t == nil || seen[t] {
			return
		}
		seen[t] = true
		if printed {
			ms := types.NewMethodSet(t)
			if ms.Lookup(nil, "String") != nil || ms.Lookup(nil, "Error") != nil {
				return
			}
		}
		switch u := t.Underlying().(type) {
		case *types.Tuple: // f(g()) with a multi-value g
			for i := range u.Len() {
				walk(u.At(i).Type(), top)
			}
		case *types.Struct:
			for i := range u.NumFields() {
				visit(u.Field(i))
				walk(u.Field(i).Type(), false)
			}
		case *types.Array:
			walk(u.Elem(), false)
		case *types.Pointer:
			if printed && top {
				walk(u.Elem(), false)
			}
		case *types.Slice:
			if printed {
				walk(u.Elem(), false)
			}
		case *types.Map:
			if printed {
				walk(u.Key(), false)
				walk(u.Elem(), false)
			}
		}
	}
	walk(t, true)
}

// unread returns the field census candidates that no function a program
// reaches reads.
func (c *census) unread() []censusField {
	var roots []*types.Func
	for _, r := range c.inits {
		roots = append(roots, r...)
	}
	read := c.reads(c.reach(roots...))
	var out []censusField
	for _, f := range c.fields {
		if !read[f.pos] {
			out = append(out, f)
		}
	}
	return out
}

// reads returns the fields the given functions read: the fixpoint over
// their uses, a fed use counting once a field it feeds is read.
func (c *census) reads(fns map[*types.Func]bool) map[token.Pos]bool {
	read := map[token.Pos]bool{}
	for changed := true; changed; {
		changed = false
		for fn := range fns {
			for _, u := range c.uses[fn] {
				if !read[u.pos] && (len(u.feeds) == 0 || slices.ContainsFunc(u.feeds, func(p token.Pos) bool { return read[p] })) {
					read[u.pos] = true
					changed = true
				}
			}
		}
	}
	return read
}

// paramType is the type argument i of a call with signature sig is
// assigned to.
func paramType(sig *types.Signature, i int, ellipsis bool) types.Type {
	n := sig.Params().Len()
	if sig.Variadic() && i >= n-1 {
		last := sig.Params().At(n - 1).Type()
		if ellipsis {
			return last
		}
		return last.(*types.Slice).Elem()
	}
	if i < n {
		return sig.Params().At(i).Type()
	}
	return types.Typ[types.Invalid]
}

// ifaceOf returns the interface that declares f, or nil for a function or
// a concrete method.
func ifaceOf(f *types.Func) *types.Interface {
	if recv := f.Type().(*types.Signature).Recv(); recv != nil {
		it, _ := recv.Type().Underlying().(*types.Interface)
		return it
	}
	return nil
}

// inTree reports whether t is a named type declared in one of the trees.
func (c *census) inTree(t types.Type) bool {
	n, ok := t.(*types.Named)
	return ok && n.Obj().Pkg() != nil && c.tree(n.Obj().Pkg().Path()) != nil
}

// unreached returns the declared functions that no root of the packages
// keep accepts reaches.
func (c *census) unreached(keep func(path string) bool) []censusDecl {
	var roots []*types.Func
	for path, r := range c.inits {
		if keep(path) {
			roots = append(roots, r...)
		}
	}
	reached := c.reach(roots...)
	var out []censusDecl
	for _, d := range c.decls {
		if !reached[d.fn] {
			out = append(out, d)
		}
	}
	return out
}

// reach returns every function the given nodes reach.
func (c *census) reach(from ...*types.Func) map[*types.Func]bool {
	reached := map[*types.Func]bool{}
	flowed := map[types.Type]bool{}
	work := slices.Clone(from)
	for len(work) > 0 {
		fn := work[len(work)-1]
		work = work[:len(work)-1]
		if reached[fn] {
			continue
		}
		reached[fn] = true
		work = append(work, c.calls[fn]...)
		for _, call := range c.icall[fn] {
			work = append(work, c.implementers(call)...)
		}
		for _, t := range c.flows[fn] {
			work = append(work, c.flowMethods(t, flowed)...)
		}
	}
	return reached
}

// implementers returns the method every tree type implementing call's
// interface runs for it.
func (c *census) implementers(call ifaceCall) []*types.Func {
	if m, ok := c.impls[call]; ok {
		return m
	}
	var methods []*types.Func
	for _, n := range c.named {
		if types.Implements(n, call.iface) || types.Implements(types.NewPointer(n), call.iface) {
			if f, ok := lookupMethod(n, call.pkg, call.name); ok {
				methods = append(methods, f)
			}
		}
	}
	c.impls[call] = methods
	return methods
}

// flowMethods marks t, and what a value of it holds, as handed to the
// standard library, and returns the methods by which each newly marked
// type satisfies a standard-library interface.
func (c *census) flowMethods(t types.Type, flowed map[types.Type]bool) []*types.Func {
	var methods []*types.Func
	var visit func(t types.Type)
	visit = func(t types.Type) {
		if flowed[t] {
			return
		}
		flowed[t] = true
		switch u := t.(type) {
		case *types.Pointer:
			visit(u.Elem())
		case *types.Slice:
			visit(u.Elem())
		case *types.Array:
			visit(u.Elem())
		case *types.Map:
			visit(u.Key())
			visit(u.Elem())
		case *types.Named:
			if !c.inTree(u) {
				return
			}
			for _, it := range c.stdIf {
				if types.Implements(u, it) || types.Implements(types.NewPointer(u), it) {
					for i := range it.NumMethods() {
						m := it.Method(i)
						if f, ok := lookupMethod(u, m.Pkg(), m.Name()); ok {
							methods = append(methods, f)
						}
					}
				}
			}
			if s, ok := u.Underlying().(*types.Struct); ok {
				for i := range s.NumFields() {
					if s.Field(i).Exported() {
						visit(s.Field(i).Type())
					}
				}
			}
		}
	}
	visit(t)
	return methods
}

// lookupMethod returns the concrete method of n or *n named name.
func lookupMethod(n *types.Named, pkg *types.Package, name string) (*types.Func, bool) {
	obj, _, _ := types.LookupFieldOrMethod(n, true, pkg, name)
	f, ok := obj.(*types.Func)
	if !ok || ifaceOf(f) != nil {
		return nil, false
	}
	return f.Origin(), true
}

// testReached is what one test reaches: functions and read fields, by
// census key.
type testReached struct {
	funcs, fields map[string]bool
}

// testReach type-checks the tests of every tree package whose test files
// declare a test in names, and returns what each such test reaches.
func (c *census) testReach(names map[string]bool) map[string]testReached {
	byTest := map[string]testReached{}
	for _, path := range slices.Sorted(maps.Keys(c.pkgs)) {
		p := c.pkgs[path]
		if c.tree(path).client {
			continue
		}
		tests, err := c.parseDir(c.dir(path), true)
		if err != nil {
			c.t.Fatal(err)
		}
		internal, external := []*ast.File{}, []*ast.File{}
		wanted := false
		for _, f := range tests {
			if f.Name.Name == p.pkg.Name() {
				internal = append(internal, f)
			} else {
				external = append(external, f)
			}
			for _, decl := range f.Decls {
				if fd, ok := decl.(*ast.FuncDecl); ok && fd.Recv == nil && names[fd.Name.Name] {
					wanted = true
				}
			}
		}
		if !wanted {
			continue
		}
		// In-package test files see their package's unexported names, so
		// the package is checked again with them; its objects are new, so
		// what a test reaches is compared by census key. External test
		// files are a package of their own.
		var starts []*types.Func
		for _, pkgTests := range []struct {
			path  string
			files []*ast.File
		}{{path, append(slices.Clone(p.files), internal...)}, {path + "_test", external}} {
			if len(pkgTests.files) == 0 {
				continue
			}
			pkg, _ := c.check(pkgTests.path, pkgTests.files, false)
			for _, f := range pkgTests.files {
				for _, decl := range f.Decls {
					if fd, ok := decl.(*ast.FuncDecl); ok && fd.Recv == nil && names[fd.Name.Name] {
						starts = append(starts, pkg.Scope().Lookup(fd.Name.Name).(*types.Func))
					}
				}
			}
		}
		for _, start := range starts {
			r, ok := byTest[start.Name()]
			if !ok {
				r = testReached{map[string]bool{}, map[string]bool{}}
				byTest[start.Name()] = r
			}
			reached := c.reach(start)
			for fn := range reached {
				if fn.Name() != "" {
					r.funcs[censusKey(fn)] = true
				}
			}
			read := c.reads(reached)
			for _, f := range c.fields {
				if read[f.pos] {
					r.fields[f.key] = true
				}
			}
		}
	}
	return byTest
}

// censusKey names a function "<pkg>.<Func>" or "<pkg>.<Recv>.<Method>",
// <pkg> being the last element of its package's import path.
func censusKey(fn *types.Func) string {
	path := fn.Pkg().Path()
	key := path[strings.LastIndex(path, "/")+1:] + "."
	if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
		t := recv.Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		key += t.(*types.Named).Obj().Name() + "."
	}
	return key + fn.Name()
}
