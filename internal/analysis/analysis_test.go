package analysis

import (
	"bufio"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"
)

// fixtureConfig maps the default policy onto the fixture tree: each rule
// gets the fixture package exercising it, the one named after the rule
// unless listed here.
func fixtureConfig() Config {
	cfg := DefaultConfig()
	for _, rule := range Rules() {
		cfg.Scopes[rule] = RuleScope{Dirs: []string{rule}}
	}
	cfg.Scopes["wallclock"] = RuleScope{Dirs: []string{"sim"}}
	cfg.Scopes["seededrand"] = RuleScope{Dirs: []string{"randuse"}, IncludeTests: true}
	cfg.UnitExemptDirs = []string{"unitsafety/costmodel"}
	return cfg
}

var wantRe = regexp.MustCompile(`// want:([a-z,]+)`)

// wantMarkers scans the fixture sources for `// want:<rule>` markers and
// returns the expected "file:line:rule" set.
func wantMarkers(t *testing.T, root string) map[string]bool {
	t.Helper()
	want := map[string]bool{}
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") {
			return err
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		rel = filepath.ToSlash(rel)
		sc := bufio.NewScanner(f)
		for line := 1; sc.Scan(); line++ {
			m := wantRe.FindStringSubmatch(sc.Text())
			if m == nil {
				continue
			}
			for _, rule := range strings.Split(m[1], ",") {
				want[fmt.Sprintf("%s:%d:%s", rel, line, rule)] = true
			}
		}
		return sc.Err()
	})
	if err != nil {
		t.Fatal(err)
	}
	return want
}

// TestFixtures runs the suite over the fixture tree and requires the
// findings to match the // want markers exactly — no misses, no extras.
// The marker-free //lint:allow lines double as the suppression tests.
func TestFixtures(t *testing.T) {
	root := filepath.Join("testdata", "src")
	m, err := Load(root)
	if err != nil {
		t.Fatal(err)
	}
	if m.Path != "fixture" {
		t.Fatalf("module path = %q, want fixture", m.Path)
	}
	findings, _ := Analyze(m, fixtureConfig())

	got := map[string]bool{}
	for _, f := range findings {
		got[fmt.Sprintf("%s:%d:%s", f.File, f.Line, f.Rule)] = true
	}
	want := wantMarkers(t, root)
	if len(want) == 0 {
		t.Fatal("no want markers found; fixture tree missing?")
	}
	for key := range want {
		if !got[key] {
			t.Errorf("missing finding %s", key)
		}
	}
	for _, f := range findings {
		key := fmt.Sprintf("%s:%d:%s", f.File, f.Line, f.Rule)
		if !want[key] {
			t.Errorf("unexpected finding %s", f)
		}
	}
	if t.Failed() {
		var lines []string
		for _, f := range findings {
			lines = append(lines, f.String())
		}
		t.Logf("all findings:\n%s", strings.Join(lines, "\n"))
	}
}

// TestFixturesDetectViolations is the exit-code contract in miniature: a
// tree with violations must produce findings (mdf lint exits nonzero on
// any), and per-rule runs must catch their own rule.
func TestFixturesDetectViolations(t *testing.T) {
	m, err := Load(filepath.Join("testdata", "src"))
	if err != nil {
		t.Fatal(err)
	}
	for _, rule := range Rules() {
		cfg := fixtureConfig()
		cfg.Rules = []string{rule}
		findings, _ := Analyze(m, cfg)
		if len(findings) == 0 {
			t.Errorf("rule %s found nothing in its fixture", rule)
		}
		for _, f := range findings {
			if f.Rule != rule {
				t.Errorf("rule filter %s produced finding for %s: %s", rule, f.Rule, f)
			}
		}
	}
}

// repo is the repository's own tree, loaded and type-checked once for every
// test that walks it.
var repo struct {
	once sync.Once
	m    *Module
	err  error
}

func loadRepo(t *testing.T) *Module {
	t.Helper()
	repo.once.Do(func() { repo.m, repo.err = Load(filepath.Join("..", "..")) })
	if repo.err != nil {
		t.Fatal(repo.err)
	}
	if repo.m.Path != "metadataflow" {
		t.Fatalf("module path = %q, want metadataflow", repo.m.Path)
	}
	return repo.m
}

// TestRepoIsClean locks the acceptance criterion in place: the repository
// itself must stay free of findings under the default policy. If this test
// fails, fix the violation or justify it with a //lint:allow comment.
func TestRepoIsClean(t *testing.T) {
	findings, stale := Analyze(loadRepo(t), DefaultConfig())
	for _, f := range findings {
		t.Errorf("%s", f)
	}
	for _, s := range stale {
		t.Errorf("%s", s)
	}
}

// TestRepoTypeChecksClean requires every package of the repository to
// type-check without an error: a typed rule silently finds less in a package
// whose check failed, and nothing else reads TypeErrs.
func TestRepoTypeChecksClean(t *testing.T) {
	for _, pkg := range loadRepo(t).Packages {
		for _, err := range pkg.TypeErrs {
			t.Errorf("%s: %v", pkg.ImportPath, err)
		}
	}
}

// TestLoadMatchesBuild holds Load to the files the build compiles: of a
// kernel declared once in an _amd64.go file and once in a !amd64 one, the
// package holds exactly the file this platform builds, and type-checks.
func TestLoadMatchesBuild(t *testing.T) {
	m, err := Load(filepath.Join("testdata", "src"))
	if err != nil {
		t.Fatal(err)
	}
	pkg := m.byImportPath["fixture/buildtags"]
	if pkg == nil {
		t.Fatal("fixture/buildtags not loaded")
	}
	want := []string{"buildtags/kernel_other.go", "buildtags/width.go"}
	if runtime.GOARCH == "amd64" {
		want[0] = "buildtags/kernel_amd64.go"
	}
	var got []string
	for _, f := range pkg.Files {
		got = append(got, f.Path)
	}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("files = %v, want %v", got, want)
	}
	for _, err := range pkg.TypeErrs {
		t.Errorf("type error: %v", err)
	}
}

// The caller guard keeps internal/ free of code and knobs that exist only for
// their own tests. Go's internal rule means only this tree can reach a name
// under internal/, so one that no non-test file uses — in the module,
// examples/, cmd/ or benchmarks/ (which Load also walks) — is dead weight.
// Four checks share it: package-level names, methods, Config/Options fields
// and interfaces. Each names what it finds as "<pkg dir>.<name>", and each
// keeps an allow-list with one reason per entry.

// guard reports every dead key that is not allowed, and every allow-list
// entry that names no candidate or a candidate that is no longer dead: an
// allowance outlives its reason silently otherwise, as a stale //lint:allow
// would. dead maps each candidate key to whether it lacks a user.
func guard(t *testing.T, dead map[string]bool, allowed map[string]string, what string) {
	t.Helper()
	keys := make([]string, 0, len(dead))
	for key := range dead {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	for _, key := range keys {
		if dead[key] && allowed[key] == "" {
			t.Errorf("%s: %s", key, what)
		}
	}
	for key := range allowed {
		isDead, ok := dead[key]
		switch {
		case !ok:
			t.Errorf("allow-list entry %s names nothing", key)
		case !isDead:
			t.Errorf("allow-list entry %s is stale: the check no longer flags it", key)
		}
	}
}

// internalPackages returns the type-checked packages under internal/.
func internalPackages(m *Module) []*Package {
	var out []*Package
	for _, pkg := range m.Packages {
		if strings.HasPrefix(pkg.Dir, "internal/") && pkg.TypesPkg != nil {
			out = append(out, pkg)
		}
	}
	return out
}

// usedObjects returns every object a non-test file names, with the members
// of generic types mapped back to their origin.
func usedObjects(m *Module) map[types.Object]bool {
	used := map[types.Object]bool{}
	for _, pkg := range m.Packages {
		if pkg.Info == nil {
			continue
		}
		for _, obj := range pkg.Info.Uses {
			used[origin(obj)] = true
		}
	}
	return used
}

func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

// namedTypes returns every named, non-alias type the packages declare at
// package level.
func namedTypes(pkgs []*Package) []*types.Named {
	var out []*types.Named
	for _, pkg := range pkgs {
		scope := pkg.TypesPkg.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			if named, ok := tn.Type().(*types.Named); ok {
				out = append(out, named)
			}
		}
	}
	return out
}

// implements reports whether T or *T satisfies iface.
func implements(named *types.Named, iface *types.Interface) bool {
	return types.Implements(named, iface) || types.Implements(types.NewPointer(named), iface)
}

// TestInternalExportsHaveCallers is the guard's first check: an exported
// package-level name under internal/ needs a non-test user.
func TestInternalExportsHaveCallers(t *testing.T) {
	allowed := map[string]string{
		"internal/cluster.MustNew":           "test helper shared across packages",
		"internal/faults.MustGenerate":       "test helper shared across packages",
		"internal/graph.DFSMaintained":       "App. B closed form; collapsed_test.go checks it",
		"internal/graph.BFSMaintained":       "App. B closed form; collapsed_test.go checks it",
		"internal/graph.BFSChooseMaintained": "App. B closed form; collapsed_test.go checks it",
		"internal/graph.SimulateCollapsed":   "App. B simulation the closed forms are checked against",
		"internal/graph.PeakMaintained":      "App. B simulation the closed forms are checked against",
		"internal/vecmath.ExpPath":           "the math.Exp path vecmath's probe found; dnn's checksum test picks its pins by it",
		"internal/vecmath.OnEachPath":        "test helper shared across packages",
	}
	m := loadRepo(t)
	used := usedObjects(m)
	dead := map[string]bool{}
	for _, pkg := range internalPackages(m) {
		scope := pkg.TypesPkg.Scope()
		for _, name := range scope.Names() {
			if obj := scope.Lookup(name); obj.Exported() {
				dead[pkg.Dir+"."+name] = !used[obj]
			}
		}
	}
	guard(t, dead, allowed, "exported but no non-test file uses it")
}

// TestInternalMethodsHaveCallers is the guard's second check: an exported
// method of a type under internal/ needs a non-test file that selects it.
// Two kinds of method are exempt, since they are called without being
// named: those that satisfy an interface (the tree's, or one of the standard
// library's such as fmt.Stringer or error), and those of the types the root
// package re-exports, which are the library's public API.
func TestInternalMethodsHaveCallers(t *testing.T) {
	m := loadRepo(t)
	used := usedObjects(m)

	// ifaces indexes, by method name, every interface a method could be
	// called through: the named interfaces of the tree and of every package
	// it imports, the interface types its expressions carry (type assertions
	// among them), and the errors package's unnamed Unwrap contract.
	ifaces := map[string][]*types.Interface{}
	seenIface := map[*types.Interface]bool{}
	addIface := func(t types.Type) {
		iface, ok := t.Underlying().(*types.Interface)
		if !ok || seenIface[iface] || !iface.IsMethodSet() {
			return
		}
		seenIface[iface] = true
		for i := 0; i < iface.NumMethods(); i++ {
			name := iface.Method(i).Name()
			ifaces[name] = append(ifaces[name], iface)
		}
	}
	seenPkg := map[*types.Package]bool{}
	var addPkg func(p *types.Package)
	addPkg = func(p *types.Package) {
		if seenPkg[p] {
			return
		}
		seenPkg[p] = true
		for _, name := range p.Scope().Names() {
			if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok {
				addIface(tn.Type())
			}
		}
		for _, imp := range p.Imports() {
			addPkg(imp)
		}
	}
	for _, pkg := range m.Packages {
		if pkg.TypesPkg == nil {
			continue
		}
		addPkg(pkg.TypesPkg)
		for _, tv := range pkg.Info.Types {
			if tv.Type != nil {
				addIface(tv.Type)
			}
		}
	}
	unwrap, err := types.Eval(token.NewFileSet(), nil, token.NoPos, "interface{ Unwrap() error }")
	if err != nil {
		t.Fatal(err)
	}
	addIface(unwrap.Type)

	// public holds the types the root package re-exports.
	public := map[*types.Named]bool{}
	for _, pkg := range m.Packages {
		if pkg.Dir != "" || pkg.TypesPkg == nil {
			continue
		}
		scope := pkg.TypesPkg.Scope()
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok && tn.IsAlias() {
				if named, ok := types.Unalias(tn.Type()).(*types.Named); ok {
					public[named.Origin()] = true
				}
			}
		}
	}

	dead := map[string]bool{}
	for _, pkg := range internalPackages(m) {
		for _, named := range namedTypes([]*Package{pkg}) {
			if _, ok := named.Underlying().(*types.Interface); ok || public[named] {
				continue
			}
			for i := 0; i < named.NumMethods(); i++ {
				fn := named.Method(i)
				if !fn.Exported() {
					continue
				}
				viaIface := false
				for _, iface := range ifaces[fn.Name()] {
					if implements(named, iface) {
						viaIface = true
						break
					}
				}
				if !viaIface {
					dead[pkg.Dir+"."+named.Obj().Name()+"."+fn.Name()] = !used[fn]
				}
			}
		}
	}
	guard(t, dead, nil, "exported method but no non-test file selects it")
}

// TestConfigFieldsAreSet is the guard's third check: an exported field of a
// Config or Options struct under internal/ is a knob, and a knob that no
// non-test file outside its own package writes is a constant in disguise. A
// write is a composite-literal key, an assignment or increment, or a &x.F
// handed to a flag binding.
func TestConfigFieldsAreSet(t *testing.T) {
	allowed := map[string]string{
		"internal/analysis.Config.Scopes":         "the fixture tests scope every rule to testdata/src",
		"internal/analysis.Config.UnitExemptDirs": "the fixture tests scope the unit exemption to testdata/src",
	}
	m := loadRepo(t)

	// written holds the fields some non-test file outside their package sets.
	written := map[*types.Var]bool{}
	for _, pkg := range m.Packages {
		if pkg.Info == nil {
			continue
		}
		write := func(e ast.Expr) {
			sel, ok := ast.Unparen(e).(*ast.SelectorExpr)
			if !ok {
				return
			}
			if v, ok := pkg.Info.Uses[sel.Sel].(*types.Var); ok && v.IsField() && v.Pkg() != pkg.TypesPkg {
				written[v.Origin()] = true
			}
		}
		for _, f := range pkg.Files {
			if f.IsTest {
				continue
			}
			ast.Inspect(f.AST, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CompositeLit:
					typ := pkg.Info.TypeOf(n)
					if typ == nil {
						break
					}
					st, ok := typ.Underlying().(*types.Struct)
					if !ok || st.NumFields() == 0 || st.Field(0).Pkg() == pkg.TypesPkg {
						break
					}
					for i, elt := range n.Elts {
						kv, ok := elt.(*ast.KeyValueExpr)
						if !ok {
							written[st.Field(i).Origin()] = true
							continue
						}
						if v, ok := pkg.Info.Uses[kv.Key.(*ast.Ident)].(*types.Var); ok {
							written[v.Origin()] = true
						}
					}
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						write(lhs)
					}
				case *ast.IncDecStmt:
					write(n.X)
				case *ast.UnaryExpr:
					if n.Op == token.AND {
						write(n.X)
					}
				}
				return true
			})
		}
	}

	dead := map[string]bool{}
	for _, named := range namedTypes(internalPackages(m)) {
		name := named.Obj().Name()
		st, ok := named.Underlying().(*types.Struct)
		if !ok || !(strings.HasSuffix(name, "Config") || strings.HasSuffix(name, "Options")) {
			continue
		}
		dir := strings.TrimPrefix(named.Obj().Pkg().Path(), m.Path+"/")
		for i := 0; i < st.NumFields(); i++ {
			if fld := st.Field(i); fld.Exported() {
				dead[dir+"."+name+"."+fld.Name()] = !written[fld]
			}
		}
	}
	guard(t, dead, allowed, "settable, but no non-test file outside its package sets it")
}

// TestInterfacesHaveTwoImplementations is the guard's fourth check: an
// interface under internal/ with fewer than two non-test implementations is
// an indirection with nothing to choose between.
func TestInterfacesHaveTwoImplementations(t *testing.T) {
	allowed := map[string]string{
		"internal/scheduler.ScoreAware": "benchmarks/trace.go still forwards it; ROADMAP item 4 deletes both",
	}
	m := loadRepo(t)
	var all []*Package
	for _, pkg := range m.Packages {
		if pkg.TypesPkg != nil {
			all = append(all, pkg)
		}
	}
	concrete := namedTypes(all)
	dead := map[string]bool{}
	for _, pkg := range internalPackages(m) {
		for _, named := range namedTypes([]*Package{pkg}) {
			iface, ok := named.Underlying().(*types.Interface)
			if !ok || !iface.IsMethodSet() || iface.NumMethods() == 0 {
				continue
			}
			impls := 0
			for _, c := range concrete {
				if _, isIface := c.Underlying().(*types.Interface); !isIface && implements(c, iface) {
					impls++
				}
			}
			dead[pkg.Dir+"."+named.Obj().Name()] = impls < 2
		}
	}
	guard(t, dead, allowed, "interface with fewer than two non-test implementations")
}

// TestStaleAllows runs the suppression audit over the fixture tree: exactly
// the stalecheck directives — one for a clean line, one for a rule name
// that does not exist — are stale; every other fixture allow is
// load-bearing and must not appear.
func TestStaleAllows(t *testing.T) {
	m, err := Load(filepath.Join("testdata", "src"))
	if err != nil {
		t.Fatal(err)
	}
	_, stale := Analyze(m, fixtureConfig())
	var got []string
	for _, s := range stale {
		got = append(got, s.String())
	}
	want := []string{
		"stalecheck/stalecheck.go:8: stale //lint:allow locksafety: suppresses no finding",
		"stalecheck/stalecheck.go:14: stale //lint:allow locksafty: suppresses no finding",
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("stale allows:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

// TestStaleAllowsRespectRuleSubset: restricting the run with -rules must
// not condemn another rule's directive — its findings were never produced,
// so the directive may well be load-bearing. Unknown rule names can never
// suppress and stay stale regardless of the subset.
func TestStaleAllowsRespectRuleSubset(t *testing.T) {
	m, err := Load(filepath.Join("testdata", "src"))
	if err != nil {
		t.Fatal(err)
	}
	cfg := fixtureConfig()
	cfg.Rules = []string{"maporder"}
	_, stale := Analyze(m, cfg)
	var got []string
	for _, s := range stale {
		got = append(got, s.String())
	}
	want := []string{
		"stalecheck/stalecheck.go:14: stale //lint:allow locksafty: suppresses no finding",
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("stale allows under -rules maporder:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

// TestStaleAllowJSON pins the machine-readable schema `mdf lint -json
// -stale-allows` emits for audit entries.
func TestStaleAllowJSON(t *testing.T) {
	s := StaleAllow{File: "internal/engine/exec.go", Line: 7, Rule: "locksafety"}
	data, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	want := `{"file":"internal/engine/exec.go","line":7,"rule":"locksafety"}`
	if string(data) != want {
		t.Fatalf("Marshal = %s, want %s", data, want)
	}
}

// TestFindingString pins the diagnostic format the Makefile and editors
// parse.
func TestFindingString(t *testing.T) {
	f := Finding{File: "internal/engine/exec.go", Line: 42, Rule: "maporder", Msg: "boom"}
	want := "internal/engine/exec.go:42: [maporder] boom"
	if f.String() != want {
		t.Fatalf("String() = %q, want %q", f.String(), want)
	}
}

// TestFindingJSON pins the machine-readable schema `mdf lint -json` emits:
// one object per finding with exactly these field names.
func TestFindingJSON(t *testing.T) {
	f := Finding{File: "internal/engine/exec.go", Line: 42, Rule: "unitsafety", Msg: "boom"}
	data, err := json.Marshal(f)
	if err != nil {
		t.Fatal(err)
	}
	want := `{"file":"internal/engine/exec.go","line":42,"rule":"unitsafety","msg":"boom"}`
	if string(data) != want {
		t.Fatalf("Marshal = %s, want %s", data, want)
	}
}

// TestFindingsSorted checks the deterministic output order: a linter about
// determinism ought to report deterministically.
func TestFindingsSorted(t *testing.T) {
	m, err := Load(filepath.Join("testdata", "src"))
	if err != nil {
		t.Fatal(err)
	}
	findings, _ := Analyze(m, fixtureConfig())
	sorted := sort.SliceIsSorted(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return a.Rule < b.Rule
	})
	if !sorted {
		t.Fatal("findings are not sorted by file, line, rule")
	}
}
