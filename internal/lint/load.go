package lint

import (
	"fmt"
	"go/ast"
	"go/build/constraint"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// A Package is one typechecked package of the tree under analysis.
// Files holds only non-test sources: analyzers see the shipped code.
type Package struct {
	Path  string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

var moduleRx = regexp.MustCompile(`(?m)^module\s+(\S+)`)

// LoadModule parses and typechecks every non-test package under the
// module rooted at root (located by its go.mod), returning packages in
// dependency order. Standard-library imports are typechecked from
// GOROOT source, so no compiled export data or network is needed.
func LoadModule(root string) ([]*Package, error) {
	mod, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	m := moduleRx.FindSubmatch(mod)
	if m == nil {
		return nil, fmt.Errorf("lint: no module line in %s/go.mod", root)
	}
	modPath := string(m[1])

	dirs := map[string]string{} // import path -> dir
	err = filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		dir := filepath.Dir(path)
		rel, rerr := filepath.Rel(root, dir)
		if rerr != nil {
			return rerr
		}
		imp := modPath
		if rel != "." {
			imp = modPath + "/" + filepath.ToSlash(rel)
		}
		dirs[imp] = dir
		return nil
	})
	if err != nil {
		return nil, err
	}
	return loadTree(dirs, modPath)
}

// LoadDirs typechecks a GOPATH-style fixture tree: every directory
// under srcRoot that contains .go files becomes a package whose import
// path is its path relative to srcRoot ("a", "core", ...). Used by
// linttest; _test.go files are ignored just as in LoadModule.
func LoadDirs(srcRoot string) ([]*Package, error) {
	dirs := map[string]string{}
	err := filepath.WalkDir(srcRoot, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		dir := filepath.Dir(path)
		rel, rerr := filepath.Rel(srcRoot, dir)
		if rerr != nil {
			return rerr
		}
		dirs[filepath.ToSlash(rel)] = dir
		return nil
	})
	if err != nil {
		return nil, err
	}
	return loadTree(dirs, "")
}

// loadTree parses every package in dirs, orders them so intra-tree
// imports come first, and typechecks the lot with one shared FileSet
// and source importer.
func loadTree(dirs map[string]string, modPath string) ([]*Package, error) {
	fset := token.NewFileSet()
	type parsed struct {
		path    string
		files   []*ast.File
		imports []string
	}
	byPath := map[string]*parsed{}
	for imp, dir := range dirs {
		entries, err := os.ReadDir(dir)
		if err != nil {
			return nil, err
		}
		p := &parsed{path: imp}
		for _, e := range entries {
			name := e.Name()
			if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments)
			if err != nil {
				return nil, err
			}
			if excludedByBuildTags(f) {
				continue
			}
			p.files = append(p.files, f)
			for _, spec := range f.Imports {
				ipath, _ := strconv.Unquote(spec.Path.Value)
				p.imports = append(p.imports, ipath)
			}
		}
		if len(p.files) > 0 {
			byPath[imp] = p
		}
	}

	// Topological order over intra-tree imports (DFS; the go toolchain
	// already guarantees acyclicity for code that builds).
	var order []*parsed
	state := map[string]int{} // 0 unvisited, 1 visiting, 2 done
	var visit func(p *parsed)
	visit = func(p *parsed) {
		if state[p.path] != 0 {
			return
		}
		state[p.path] = 1
		for _, imp := range p.imports {
			if dep, ok := byPath[imp]; ok {
				visit(dep)
			}
		}
		state[p.path] = 2
		order = append(order, p)
	}
	paths := make([]string, 0, len(byPath))
	for p := range byPath {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for _, p := range paths {
		visit(byPath[p])
	}

	loaded := map[string]*Package{}
	imp := &treeImporter{loaded: loaded, std: importer.ForCompiler(fset, "source", nil)}
	var out []*Package
	for _, p := range order {
		info := &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
			Implicits:  map[ast.Node]types.Object{},
			Scopes:     map[ast.Node]*types.Scope{},
		}
		conf := types.Config{Importer: imp}
		tpkg, err := conf.Check(p.path, fset, p.files, info)
		if err != nil {
			return nil, fmt.Errorf("lint: typecheck %s: %w", p.path, err)
		}
		pkg := &Package{Path: p.path, Fset: fset, Files: p.files, Types: tpkg, Info: info}
		loaded[p.path] = pkg
		out = append(out, pkg)
	}
	return out, nil
}

// excludedByBuildTags reports whether a //go:build line rules the file
// out on the analyzer's own platform. Platform-variant files (the mmapx
// unix/fallback pair) would otherwise typecheck as duplicate
// declarations in one package.
func excludedByBuildTags(f *ast.File) bool {
	for _, cg := range f.Comments {
		if cg.Pos() >= f.Package {
			break
		}
		for _, c := range cg.List {
			if !constraint.IsGoBuild(c.Text) {
				continue
			}
			expr, err := constraint.Parse(c.Text)
			if err != nil {
				return false
			}
			return !expr.Eval(func(tag string) bool {
				switch tag {
				case runtime.GOOS, runtime.GOARCH:
					return true
				case "unix":
					// The GOOSes the go tool treats as unix and that this
					// repo could plausibly run on.
					switch runtime.GOOS {
					case "linux", "darwin", "freebsd", "netbsd", "openbsd", "dragonfly", "solaris", "illumos", "aix":
						return true
					}
					return false
				}
				return strings.HasPrefix(tag, "go1") // language version tags
			})
		}
	}
	return false
}

// treeImporter resolves intra-tree imports from the packages already
// typechecked this run (dependency order guarantees availability) and
// everything else — the standard library — from GOROOT source.
type treeImporter struct {
	loaded map[string]*Package
	std    types.Importer
}

func (i *treeImporter) Import(path string) (*types.Package, error) {
	if p, ok := i.loaded[path]; ok {
		return p.Types, nil
	}
	return i.std.Import(path)
}
