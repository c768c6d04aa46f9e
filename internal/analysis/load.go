package analysis

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// File is one parsed source file.
type File struct {
	// Path is the file path relative to the module root, slash-separated.
	Path string
	// AST is the parsed file (with comments).
	AST *ast.File
	// IsTest reports a _test.go file.
	IsTest bool
	// Imports maps the local name of each import to its path. The local
	// name is the alias when one is given, otherwise the path's last
	// element (good enough without compiling the imported package).
	Imports map[string]string
	// Pkg is the owning package.
	Pkg *Package

	fset *token.FileSet
	// allows maps a source line to the set of rules a //lint:allow comment
	// on that line suppresses.
	allows map[int]map[string]bool
}

// line returns the source line of a node position.
func (f *File) line(pos token.Pos) int { return f.fset.Position(pos).Line }

// Package is one directory of source files.
type Package struct {
	// Dir is the package directory relative to the module root ("" for the
	// root package itself), slash-separated.
	Dir string
	// ImportPath is the package's import path within the module.
	ImportPath string
	// Name is the package name from the package clauses.
	Name string
	// Files are the parsed sources, sorted by path.
	Files []*File

	// TypesPkg and Info hold the go/types resolution of the package's
	// non-test files, populated by typeCheck. Info may be partially filled
	// when the check hit errors; TypeErrs then records why.
	TypesPkg *types.Package
	Info     *types.Info
	TypeErrs []error

	typesChecked bool
}

// Module is a parsed source tree.
type Module struct {
	// Root is the absolute directory Load started from.
	Root string
	// Path is the module path from go.mod ("" when none was found).
	Path string
	// Packages are the parsed packages sorted by directory.
	Packages []*Package

	fset         *token.FileSet
	byImportPath map[string]*Package
}

// allowRe matches a //lint:allow directive. Like //go:build, the directive
// must open the comment — prose that merely mentions `//lint:allow` (doc
// comments, this line) is not a directive and must not feed the
// stale-suppression audit.
var allowRe = regexp.MustCompile(`^//\s*lint:allow\s+([a-zA-Z0-9_,\-]+)`)

// skipDirs are directory names never descended into.
var skipDirs = map[string]bool{"testdata": true, "vendor": true, ".git": true}

// Load parses every .go file under root that the build compiles on this
// platform (go/build's file-name and //go:build rules) into a Module. Files
// that do not parse are reported as errors: the linter must not silently
// skip code.
func Load(root string) (*Module, error) {
	abs, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	m := &Module{Root: abs, byImportPath: map[string]*Package{}}
	m.Path = readModulePath(filepath.Join(abs, "go.mod"))

	byDir := map[string]*Package{}
	fset := token.NewFileSet()
	m.fset = fset
	walkErr := filepath.WalkDir(abs, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != abs && (skipDirs[name] || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		// Only what the build compiles: a file whose name suffix or
		// //go:build line excludes it from this platform would declare its
		// names a second time beside the file that replaces it.
		if ok, err := build.Default.MatchFile(filepath.Dir(path), d.Name()); err != nil {
			return fmt.Errorf("analysis: %w", err)
		} else if !ok {
			return nil
		}
		rel, err := filepath.Rel(abs, path)
		if err != nil {
			return err
		}
		rel = filepath.ToSlash(rel)
		parsed, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			return fmt.Errorf("analysis: %w", err)
		}
		dir := filepath.ToSlash(filepath.Dir(rel))
		if dir == "." {
			dir = ""
		}
		pkg, ok := byDir[dir]
		if !ok {
			importPath := m.Path
			if dir != "" {
				if importPath != "" {
					importPath += "/"
				}
				importPath += dir
			}
			pkg = &Package{Dir: dir, ImportPath: importPath}
			byDir[dir] = pkg
			m.byImportPath[importPath] = pkg
		}
		if pkg.Name == "" && !strings.HasSuffix(parsed.Name.Name, "_test") {
			pkg.Name = parsed.Name.Name
		}
		f := &File{
			Path:    rel,
			AST:     parsed,
			IsTest:  strings.HasSuffix(rel, "_test.go"),
			Imports: importTable(parsed),
			Pkg:     pkg,
			fset:    fset,
			allows:  allowTable(fset, parsed),
		}
		pkg.Files = append(pkg.Files, f)
		return nil
	})
	if walkErr != nil {
		return nil, walkErr
	}
	for _, pkg := range byDir {
		sort.Slice(pkg.Files, func(i, j int) bool { return pkg.Files[i].Path < pkg.Files[j].Path })
		m.Packages = append(m.Packages, pkg)
	}
	sort.Slice(m.Packages, func(i, j int) bool { return m.Packages[i].Dir < m.Packages[j].Dir })
	m.typeCheck()
	return m, nil
}

// readModulePath extracts the module path from a go.mod file, or "".
func readModulePath(path string) string {
	data, err := os.ReadFile(path)
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.Trim(strings.TrimSpace(rest), `"`)
		}
	}
	return ""
}

// importTable maps each import's local name to its path.
func importTable(f *ast.File) map[string]string {
	out := map[string]string{}
	for _, imp := range f.Imports {
		path, err := strconv.Unquote(imp.Path.Value)
		if err != nil {
			continue
		}
		name := path
		if i := strings.LastIndex(path, "/"); i >= 0 {
			name = path[i+1:]
		}
		if imp.Name != nil {
			name = imp.Name.Name
			if name == "_" || name == "." {
				continue
			}
		}
		out[name] = path
	}
	return out
}

// allowTable collects the //lint:allow directives of a file by line.
func allowTable(fset *token.FileSet, f *ast.File) map[int]map[string]bool {
	out := map[int]map[string]bool{}
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			match := allowRe.FindStringSubmatch(c.Text)
			if match == nil {
				continue
			}
			line := fset.Position(c.Pos()).Line
			rules := out[line]
			if rules == nil {
				rules = map[string]bool{}
				out[line] = rules
			}
			for _, r := range strings.Split(match[1], ",") {
				rules[strings.TrimSpace(r)] = true
			}
		}
	}
	return out
}

// suppressingLine returns the line of the //lint:allow comment covering the
// finding — the finding's own line or the line directly above — and whether
// one exists. The line identifies the directive for the stale-allow audit.
func (m *Module) suppressingLine(fd Finding) (int, bool) {
	for _, pkg := range m.Packages {
		for _, f := range pkg.Files {
			if f.Path != fd.File {
				continue
			}
			for _, line := range []int{fd.Line, fd.Line - 1} {
				if rules, ok := f.allows[line]; ok && rules[fd.Rule] {
					return line, true
				}
			}
			return 0, false
		}
	}
	return 0, false
}
