package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"os"
	"path"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// docFiles are the documents TestDocsNameLiveCode holds to the tree,
// relative to the repository root. benchmarks/README.md joins them once it
// names only live commands (ROADMAP item 4).
var docFiles = []string{"README.md", "ARCHITECTURE.md", "DESIGN.md", "EXPERIMENTS.md"}

// inventoryHeading opens the section of ARCHITECTURE.md whose table is the
// package inventory: one row per directory of non-test Go, the directory in
// a code span in its first cell ("." for the root, "benchmarks" for the
// whole benchmark module).
const inventoryHeading = "## The layer cake"

// TestDocsNameLiveCode holds the docs to the live tree. Every code span of
// one of these shapes must resolve; a span of any other shape is prose:
//
//   - pkg.Name or pkg.Name.Member, pkg the name of a package of the tree or
//     of one it imports: a package-level object of that package (test files
//     included) and, if given, a field or method of it. Names with an
//     underscore are artifact names (`faults.partitions_rederived`), not Go;
//   - Type.Member, Type exported: some type of that name, in the tree or in
//     a package it imports, has that field or method. With an unexported
//     member, only a Type the tree declares is Go;
//   - a bare name in lower camelCase (`refreshReady`) or beginning Test,
//     Benchmark, Fuzz or Example (`*` a wildcard, a /subtest ignored): a name
//     some file of the tree declares — function, method, type, variable,
//     constant, field or parameter. A JSON key is quoted (`"paramKey"`) and
//     is prose;
//   - a path ending in .go, optionally :N or :N–M: a file of the tree whose
//     path ends so (a `*` is a wildcard), with at least N lines;
//   - `mdf <sub> ...`, in a code span or a line of a fenced block: a
//     subcommand of cmd/mdf's dispatch table, and each -flag after it, up to
//     a shell separator, one that subcommand registers.
//
// A trailing argument list (`Run.Result()`, `dataset.Values[T]`) and a
// leading `*` or `(*T).` are read past. Every "ROADMAP item N" in the docs
// and in Go comments must name an item ROADMAP.md lists. The inventory
// under inventoryHeading must list exactly the tree's package directories, in
// dependency order, and no other table of the docs may list packages.
func TestDocsNameLiveCode(t *testing.T) {
	m := loadRepo(t)
	ix := newDocIndex(t, m)
	items := roadmapItems(t, m.Root)
	for _, name := range docFiles {
		data, err := os.ReadFile(filepath.Join(m.Root, name))
		if err != nil {
			t.Fatal(err)
		}
		text := string(data)
		inline, fenced := codeSpans(text)
		for _, s := range inline {
			if msg := ix.resolve(s.text); msg != "" {
				t.Errorf("%s:%d: `%s`: %s", name, s.line, s.text, msg)
			}
		}
		for _, s := range fenced {
			if msg := ix.command(s.text); msg != "" {
				t.Errorf("%s:%d: %s: %s", name, s.line, strings.TrimSpace(s.text), msg)
			}
		}
		for _, ref := range roadmapRefRe.FindAllStringSubmatchIndex(text, -1) {
			if n := text[ref[2]:ref[3]]; !items[n] {
				t.Errorf("%s:%d: ROADMAP item %s: ROADMAP.md lists no such item", name, lineAt(text, ref[0]), n)
			}
		}
		start, end, _ := inventory(text)
		for _, row := range tableRows(text) {
			if name == "ARCHITECTURE.md" && row.offset >= start && row.offset < end {
				continue
			}
			if ix.dirs[row.first] {
				t.Errorf("%s:%d: a table lists package %s; the one inventory is ARCHITECTURE.md %q", name, row.line, row.first, inventoryHeading)
			}
		}
	}
	for _, pkg := range m.Packages {
		for _, f := range pkg.Files {
			for _, cg := range f.AST.Comments {
				for _, ref := range roadmapRefRe.FindAllStringSubmatch(cg.Text(), -1) {
					if !items[ref[1]] {
						t.Errorf("%s:%d: ROADMAP item %s: ROADMAP.md lists no such item", f.Path, f.line(cg.Pos()), ref[1])
					}
				}
			}
		}
	}
	checkInventory(t, m, ix.dirs)
}

var (
	roadmapRefRe = regexp.MustCompile(`ROADMAP\s+items?\s+(\d+)`)
	roadmapItem  = regexp.MustCompile(`^(\d+)\. \*\*`)
	qualifiedRe  = regexp.MustCompile(`^([a-z][a-z0-9]*)\.([A-Za-z][A-Za-z0-9]*)(?:\.([A-Za-z][A-Za-z0-9]*))?$`)
	typeMemberRe = regexp.MustCompile(`^([A-Z][A-Za-z0-9]*)\.([A-Za-z][A-Za-z0-9]*)$`)
	bareRe       = regexp.MustCompile(`^(?:[a-z][a-z0-9]*[A-Z]|(?:Test|Benchmark|Fuzz|Example)[A-Z0-9_*])[A-Za-z0-9_*]*$`)
	goFileRe     = regexp.MustCompile(`^([\w./*-]+\.go)(?::(\d+)(?:[–-]\d+)?)?$`)
	commandRe    = regexp.MustCompile(`(?:^|\s|cmd/)mdf\s+([a-z][a-z-]*)`)
	derefRe      = regexp.MustCompile(`^\(\*(\w+)\)\.`)
	// nextHeadingRe ends inventoryHeading's section: a heading of level 1 or 2.
	nextHeadingRe = regexp.MustCompile(`(?m)^#{1,2} `)
)

// roadmapItems returns the numbers of the items ROADMAP.md lists under
// "## Open items".
func roadmapItems(t *testing.T, root string) map[string]bool {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(root, "ROADMAP.md"))
	if err != nil {
		t.Fatal(err)
	}
	items := map[string]bool{}
	open := false
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(line, "## ") {
			open = line == "## Open items"
			continue
		}
		if m := roadmapItem.FindStringSubmatch(line); open && m != nil {
			items[m[1]] = true
		}
	}
	if len(items) == 0 {
		t.Fatal("ROADMAP.md lists no open items")
	}
	return items
}

// span is one code span of a document: its text and the line it starts on.
type span struct {
	text string
	line int
}

// codeSpans returns a markdown document's inline code spans, newlines folded
// to spaces, and the lines of its fenced blocks.
func codeSpans(text string) (inline, fenced []span) {
	lines := strings.SplitAfter(text, "\n")
	var prose strings.Builder
	var offsets []int // offsets[i]: line number of prose line i
	inFence := false
	for i, line := range lines {
		if strings.HasPrefix(strings.TrimSpace(line), "```") {
			inFence = !inFence
			prose.WriteString("\n") // a fence ends any open inline span
			offsets = append(offsets, i+1)
			continue
		}
		if inFence {
			fenced = append(fenced, span{line, i + 1})
			prose.WriteString("\n")
		} else {
			prose.WriteString(line)
		}
		offsets = append(offsets, i+1)
	}
	p := prose.String()
	for i := 0; i < len(p); {
		if p[i] != '`' {
			i++
			continue
		}
		n := 1
		for i+n < len(p) && p[i+n] == '`' {
			n++
		}
		fence := p[i : i+n]
		end := strings.Index(p[i+n:], fence)
		// A span ends at its matching run, and never crosses a blank line.
		if end < 0 || strings.Contains(p[i+n:i+n+end], "\n\n") {
			i += n
			continue
		}
		body := strings.TrimSpace(strings.ReplaceAll(p[i+n:i+n+end], "\n", " "))
		inline = append(inline, span{body, offsets[strings.Count(p[:i], "\n")]})
		i += n + end + n
	}
	return inline, fenced
}

func lineAt(text string, offset int) int { return strings.Count(text[:offset], "\n") + 1 }

// tableRow is one row of a markdown table: the single code span of its first
// cell ("" when the cell is not one), and where the row is.
type tableRow struct {
	first        string
	line, offset int
}

// tableRows returns the rows of every table outside fenced blocks.
func tableRows(text string) []tableRow {
	var rows []tableRow
	offset, inFence := 0, false
	for i, line := range strings.SplitAfter(text, "\n") {
		trimmed := strings.TrimSpace(line)
		if strings.HasPrefix(trimmed, "```") {
			inFence = !inFence
		}
		if !inFence && strings.HasPrefix(trimmed, "|") {
			cells := strings.Split(trimmed, "|")
			first := ""
			if len(cells) > 2 {
				c := strings.TrimSpace(cells[1])
				if len(c) > 2 && c[0] == '`' && c[len(c)-1] == '`' && strings.Count(c, "`") == 2 {
					first = c[1 : len(c)-1]
				}
			}
			rows = append(rows, tableRow{first, i + 1, offset})
		}
		offset += len(line)
	}
	return rows
}

// inventory returns the byte range of the inventory section, from its
// heading to the next heading of its level or above, and whether text has it.
func inventory(text string) (start, end int, ok bool) {
	start = strings.Index(text, "\n"+inventoryHeading+"\n")
	if start < 0 {
		return 0, 0, false
	}
	body := start + len(inventoryHeading) + 2
	if next := nextHeadingRe.FindStringIndex(text[body:]); next != nil {
		return start, body + next[0], true
	}
	return start, len(text), true
}

// checkInventory requires the inventory's rows to be the tree's package
// directories — every directory that holds non-test Go outside testdata, the
// benchmark module as one — in dependency order: a row's non-test files
// import only packages of rows below it.
func checkInventory(t *testing.T, m *Module, tree map[string]bool) {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(m.Root, "ARCHITECTURE.md"))
	if err != nil {
		t.Fatal(err)
	}
	text := string(data)
	start, end, ok := inventory(text)
	if !ok {
		t.Fatalf("ARCHITECTURE.md has no %q section", inventoryHeading)
	}
	listed := map[string]int{} // directory → line
	rank := map[string]int{}   // directory → position in the table
	for _, row := range tableRows(text) {
		if row.first != "" && row.offset >= start && row.offset < end {
			if prev, dup := listed[row.first]; dup {
				t.Errorf("ARCHITECTURE.md:%d: package %s listed again (first at line %d)", row.line, row.first, prev)
			}
			listed[row.first] = row.line
			rank[row.first] = len(rank)
		}
	}
	upward := map[[2]string]string{} // (importer, imported) → a file that imports it
	for _, pkg := range m.Packages {
		from := inventoryDir(pkg.Dir)
		for _, f := range pkg.Files {
			if f.IsTest {
				continue
			}
			for _, path := range f.Imports {
				if path != m.Path && !strings.HasPrefix(path, m.Path+"/") {
					continue
				}
				to := inventoryDir(strings.TrimPrefix(strings.TrimPrefix(path, m.Path), "/"))
				rf, okFrom := rank[from]
				rt, okTo := rank[to]
				if key := [2]string{from, to}; okFrom && okTo && rt <= rf && to != from && upward[key] == "" {
					upward[key] = f.Path
				}
			}
		}
	}
	var lines []string
	for key, file := range upward {
		lines = append(lines, fmt.Sprintf("%s imports %s, which the inventory lists above %s", file, key[1], key[0]))
	}
	sort.Strings(lines)
	for _, line := range lines {
		t.Error(line)
	}
	for _, dir := range sortedKeys(tree) {
		if _, ok := listed[dir]; !ok {
			t.Errorf("ARCHITECTURE.md %q: no row for package directory %s", inventoryHeading, dir)
		}
	}
	for dir, line := range listed {
		if !tree[dir] {
			t.Errorf("ARCHITECTURE.md:%d: inventory row %s is no package directory of the tree", line, dir)
		}
	}
}

// inventoryDir is the inventory row of a package directory.
func inventoryDir(dir string) string {
	switch {
	case dir == "":
		return "."
	case dir == "benchmarks" || strings.HasPrefix(dir, "benchmarks/"):
		return "benchmarks"
	}
	return dir
}

func sortedKeys(set map[string]bool) []string {
	keys := make([]string, 0, len(set))
	for k := range set {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// docIndex is what the docs' code spans are resolved against.
type docIndex struct {
	m *Module
	// byName maps a package name to the tree's packages of that name, and
	// std to the packages they import from outside the module.
	byName map[string][]*Package
	std    map[string][]*types.Package
	// types maps a type name to every type of that name in the tree and
	// its imports.
	types map[string][]*types.TypeName
	// testDecls holds, per package directory, the names test files declare
	// at package level, and testMembers the methods and struct fields they
	// declare, as "Type.Member".
	testDecls, testMembers map[string]map[string]bool
	// declared holds every name a file of the tree declares, for bare names.
	declared map[string]bool
	// goFiles are the paths of the tree's .go files, with their line counts.
	goFiles map[string]int
	// flags maps each subcommand of cmd/mdf's dispatch table to the flags
	// it registers.
	flags map[string]map[string]bool
	// dirs are the package directories the inventory must list.
	dirs map[string]bool
}

func newDocIndex(t *testing.T, m *Module) *docIndex {
	t.Helper()
	ix := &docIndex{
		m:           m,
		byName:      map[string][]*Package{},
		std:         map[string][]*types.Package{},
		types:       map[string][]*types.TypeName{},
		testDecls:   map[string]map[string]bool{},
		testMembers: map[string]map[string]bool{},
		goFiles:     map[string]int{},
		declared:    map[string]bool{},
		dirs:        map[string]bool{},
	}
	seen := map[*types.Package]bool{}
	var addTypes func(p *types.Package, std bool)
	addTypes = func(p *types.Package, std bool) {
		if seen[p] {
			return
		}
		seen[p] = true
		if std {
			ix.std[p.Name()] = append(ix.std[p.Name()], p)
		}
		for _, name := range p.Scope().Names() {
			if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok {
				ix.types[name] = append(ix.types[name], tn)
			}
		}
		for _, imp := range p.Imports() {
			if _, inTree := m.byImportPath[imp.Path()]; !inTree {
				addTypes(imp, true)
			}
		}
	}
	for _, pkg := range m.Packages {
		if pkg.Name != "" {
			ix.byName[pkg.Name] = append(ix.byName[pkg.Name], pkg)
		}
		if pkg.TypesPkg != nil {
			addTypes(pkg.TypesPkg, false)
		}
		decls, members := map[string]bool{}, map[string]bool{}
		ix.testDecls[pkg.Dir], ix.testMembers[pkg.Dir] = decls, members
		for _, f := range pkg.Files {
			ast.Inspect(f.AST, func(n ast.Node) bool {
				var names []*ast.Ident
				switch n := n.(type) {
				case *ast.FuncDecl:
					names = []*ast.Ident{n.Name}
				case *ast.TypeSpec:
					names = []*ast.Ident{n.Name}
				case *ast.ValueSpec:
					names = n.Names
				case *ast.Field:
					names = n.Names
				}
				for _, id := range names {
					ix.declared[id.Name] = true
				}
				return true
			})
			if !f.IsTest {
				ix.dirs[inventoryDir(pkg.Dir)] = true
				continue
			}
			testDeclsOf(f.AST, decls, members)
		}
	}
	// Every .go file on disk, not only those Load parses: a doc may name a
	// file this platform does not build, or a fixture under testdata.
	err := filepath.WalkDir(m.Root, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && p != m.Root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(p, ".go") {
			return nil
		}
		data, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(m.Root, p)
		ix.goFiles[filepath.ToSlash(rel)] = strings.Count(string(data), "\n")
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	ix.flags = commandFlags(t, m)
	return ix
}

// testDeclsOf records a test file's package-level names, and its methods
// and struct fields as "Type.Member".
func testDeclsOf(f *ast.File, decls, members map[string]bool) {
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil {
				decls[d.Name.Name] = true
				continue
			}
			recv := d.Recv.List[0].Type
			if star, ok := recv.(*ast.StarExpr); ok {
				recv = star.X
			}
			if idx, ok := recv.(*ast.IndexExpr); ok {
				recv = idx.X
			}
			if id, ok := recv.(*ast.Ident); ok {
				members[id.Name+"."+d.Name.Name] = true
			}
		case *ast.GenDecl:
			for _, s := range d.Specs {
				switch s := s.(type) {
				case *ast.TypeSpec:
					decls[s.Name.Name] = true
					if st, ok := s.Type.(*ast.StructType); ok {
						for _, fld := range st.Fields.List {
							for _, n := range fld.Names {
								members[s.Name.Name+"."+n.Name] = true
							}
						}
					}
				case *ast.ValueSpec:
					for _, n := range s.Names {
						decls[n.Name] = true
					}
				}
			}
		}
	}
}

// flagMethods are the flag.FlagSet methods that register a flag; the name is
// the first argument, the second for the …Var ones.
var flagMethods = map[string]bool{
	"Bool": true, "BoolVar": true, "BoolFunc": true, "Duration": true, "DurationVar": true,
	"Float64": true, "Float64Var": true, "Func": true, "Int": true, "IntVar": true,
	"Int64": true, "Int64Var": true, "String": true, "StringVar": true, "TextVar": true,
	"Uint": true, "UintVar": true, "Uint64": true, "Uint64Var": true, "Var": true,
}

// commandFlags reads cmd/mdf's dispatch table, subcommands, and returns each
// subcommand's flags: those its function, and every function of the package
// it reaches, register on a flag.FlagSet.
func commandFlags(t *testing.T, m *Module) map[string]map[string]bool {
	t.Helper()
	pkg := m.byImportPath[m.Path+"/cmd/mdf"]
	if pkg == nil || pkg.Info == nil {
		t.Fatal("cmd/mdf not loaded")
	}
	registers := map[*types.Func]map[string]bool{}
	calls := map[*types.Func][]*types.Func{}
	var table *ast.CompositeLit
	for _, f := range pkg.Files {
		if f.IsTest {
			continue
		}
		for _, d := range f.AST.Decls {
			switch d := d.(type) {
			case *ast.GenDecl:
				for _, s := range d.Specs {
					if vs, ok := s.(*ast.ValueSpec); ok && len(vs.Names) == 1 && vs.Names[0].Name == "subcommands" && len(vs.Values) == 1 {
						table, _ = vs.Values[0].(*ast.CompositeLit)
					}
				}
			case *ast.FuncDecl:
				fn, ok := pkg.Info.Defs[d.Name].(*types.Func)
				if !ok || d.Body == nil {
					continue
				}
				names := map[string]bool{}
				registers[fn] = names
				ast.Inspect(d.Body, func(n ast.Node) bool {
					switch n := n.(type) {
					case *ast.CallExpr:
						sel, ok := n.Fun.(*ast.SelectorExpr)
						if !ok {
							break
						}
						s := pkg.Info.Selections[sel]
						if s == nil || types.TypeString(s.Recv(), nil) != "*flag.FlagSet" || !flagMethods[sel.Sel.Name] {
							break
						}
						arg := 0
						if strings.HasSuffix(sel.Sel.Name, "Var") {
							arg = 1
						}
						if lit, ok := n.Args[arg].(*ast.BasicLit); ok && lit.Kind == token.STRING {
							if name, err := strconv.Unquote(lit.Value); err == nil {
								names[name] = true
							}
						}
					case *ast.Ident:
						if callee, ok := pkg.Info.Uses[n].(*types.Func); ok && callee.Pkg() == pkg.TypesPkg {
							calls[fn] = append(calls[fn], callee)
						}
					}
					return true
				})
			}
		}
	}
	if table == nil {
		t.Fatal("cmd/mdf declares no subcommands table")
	}
	out := map[string]map[string]bool{}
	for _, elt := range table.Elts {
		row, ok := elt.(*ast.CompositeLit)
		if !ok || len(row.Elts) == 0 {
			continue
		}
		lit, ok := row.Elts[0].(*ast.BasicLit)
		id, ok2 := row.Elts[len(row.Elts)-1].(*ast.Ident)
		if !ok || !ok2 {
			t.Fatalf("cmd/mdf subcommands row %s is not {name, …, func}", types.ExprString(row))
		}
		name, err := strconv.Unquote(lit.Value)
		fn, isFunc := pkg.Info.Uses[id].(*types.Func)
		if err != nil || !isFunc {
			t.Fatalf("cmd/mdf subcommands row %s is not {name, …, func}", types.ExprString(row))
		}
		flags := map[string]bool{}
		reached := map[*types.Func]bool{}
		var walk func(*types.Func)
		walk = func(fn *types.Func) {
			if reached[fn] {
				return
			}
			reached[fn] = true
			for f := range registers[fn] {
				flags[f] = true
			}
			for _, c := range calls[fn] {
				walk(c)
			}
		}
		walk(fn)
		out[name] = flags
	}
	return out
}

// resolve checks one inline code span and returns why it does not resolve,
// or "".
func (ix *docIndex) resolve(s string) string {
	if commandRe.MatchString(s) {
		return ix.command(s)
	}
	if i := strings.IndexAny(s, "(["); i > 0 && (strings.HasSuffix(s, ")") || strings.HasSuffix(s, "]")) {
		s = s[:i]
	}
	s = derefRe.ReplaceAllString(strings.TrimLeft(s, "*&"), "$1.")
	if strings.ContainsAny(s, " \t") {
		return ""
	}
	if m := goFileRe.FindStringSubmatch(s); m != nil {
		return ix.goFile(m[1], m[2])
	}
	if m := qualifiedRe.FindStringSubmatch(s); m != nil {
		return ix.qualified(m[1], m[2], m[3])
	}
	if m := typeMemberRe.FindStringSubmatch(s); m != nil {
		return ix.typeMember(m[1], m[2])
	}
	if name, _, _ := strings.Cut(s, "/"); bareRe.MatchString(name) {
		for decl := range ix.declared {
			if ok, _ := path.Match(name, decl); ok {
				return ""
			}
		}
		return "no file of the tree declares it"
	}
	return ""
}

// goFile resolves a .go path, with the line count it must reach, against
// the tree's files whose last path elements match it.
func (ix *docIndex) goFile(name, line string) string {
	need, _ := strconv.Atoi(line)
	depth := strings.Count(name, "/") + 1
	for p, lines := range ix.goFiles {
		parts := strings.Split(p, "/")
		if len(parts) < depth {
			continue
		}
		if ok, _ := path.Match(name, strings.Join(parts[len(parts)-depth:], "/")); ok && lines >= need {
			return ""
		}
	}
	if need > 0 {
		return fmt.Sprintf("no such file with %d lines", need)
	}
	return "no such file"
}

// qualified resolves pkg.name[.member]; a pkg that names no package of the
// tree or of its imports is not Go.
func (ix *docIndex) qualified(pkgName, name, member string) string {
	pkgs, std := ix.byName[pkgName], ix.std[pkgName]
	if len(pkgs) == 0 && len(std) == 0 {
		return ""
	}
	for _, pkg := range pkgs {
		var obj types.Object
		if pkg.TypesPkg != nil {
			obj = pkg.TypesPkg.Scope().Lookup(name)
		}
		if obj == nil && !ix.testDecls[pkg.Dir][name] {
			continue
		}
		if member == "" || ix.testMembers[pkg.Dir][name+"."+member] || (obj != nil && hasMember(obj, member)) {
			return ""
		}
	}
	for _, p := range std {
		if obj := p.Scope().Lookup(name); obj != nil && (member == "" || hasMember(obj, member)) {
			return ""
		}
	}
	if member != "" {
		return fmt.Sprintf("package %s has no %s with a member %s", pkgName, name, member)
	}
	return fmt.Sprintf("package %s declares no %s", pkgName, name)
}

// typeMember resolves Type.Member against every type of that name.
func (ix *docIndex) typeMember(typ, member string) string {
	inTree := false
	for _, tn := range ix.types[typ] {
		if hasMember(tn, member) {
			return ""
		}
		inTree = inTree || strings.HasPrefix(tn.Pkg().Path()+"/", ix.m.Path+"/")
	}
	for dir, members := range ix.testMembers {
		if members[typ+"."+member] {
			return ""
		}
		inTree = inTree || ix.testDecls[dir][typ]
	}
	if !inTree && !token.IsExported(member) {
		return ""
	}
	return fmt.Sprintf("no type %s has a member %s", typ, member)
}

// hasMember reports whether the type obj declares, or the type of the
// variable obj, has a field or method of that name.
func hasMember(obj types.Object, member string) bool {
	switch obj.(type) {
	case *types.TypeName, *types.Var:
		found, _, _ := types.LookupFieldOrMethod(types.Unalias(obj.Type()), true, obj.Pkg(), member)
		return found != nil
	}
	return false
}

// command checks every `mdf <sub> [flags]` in s.
func (ix *docIndex) command(s string) string {
	var problems []string
	for _, loc := range commandRe.FindAllStringSubmatchIndex(s, -1) {
		sub := s[loc[2]:loc[3]]
		flags, ok := ix.flags[sub]
		if !ok {
			problems = append(problems, fmt.Sprintf("mdf has no subcommand %q", sub))
			continue
		}
		args := s[loc[3]:]
		if next := commandRe.FindStringIndex(args); next != nil {
			args = args[:next[0]]
		}
		if cut := strings.IndexAny(args, "|;&>#`"); cut >= 0 {
			args = args[:cut]
		}
		for _, word := range strings.Fields(args) {
			word = strings.Trim(word, "[](){},")
			if len(word) < 2 || word[0] != '-' {
				continue
			}
			name, _, _ := strings.Cut(strings.TrimLeft(word, "-"), "=")
			if name == "" || name[0] < 'a' || name[0] > 'z' {
				continue
			}
			if !flags[name] {
				problems = append(problems, fmt.Sprintf("mdf %s has no flag -%s", sub, name))
			}
		}
	}
	return strings.Join(problems, "; ")
}
