// Package lint is a self-contained static-analysis framework in the
// style of golang.org/x/tools/go/analysis, built only on the standard
// library (the build environment is offline, so x/tools itself is not
// available). It typechecks the module with go/types using the source
// importer and runs a registered suite of analyzers over every
// package; cmd/xpqlint is the command-line driver and
// internal/lint/linttest replays analysistest-style fixtures with
// `// want "regexp"` expectations.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
	"strings"
)

// An Analyzer describes one invariant checker. Run inspects a single
// typechecked package through its Pass and reports diagnostics; the
// return value is unused (kept for symmetry with go/analysis so the
// analyzers port forward if x/tools ever lands in the build image).
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass) (any, error)
}

// A Pass is one (analyzer, package) unit of work.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	diags *[]Diagnostic
}

// A Diagnostic is one finding, with its position already resolved so
// results can be sorted and printed without the originating FileSet.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s (%s)", d.Pos, d.Message, d.Analyzer)
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// TypeOf returns the type of e, or nil if unknown.
func (p *Pass) TypeOf(e ast.Expr) types.Type {
	if t := p.TypesInfo.TypeOf(e); t != nil {
		return t
	}
	return nil
}

// PathHasSuffix reports whether the package's import path equals
// suffix or ends in "/"+suffix. Analyzers use it so the same config
// matches both real module packages ("repro/internal/store") and the
// short fixture paths linttest loads ("store").
func (p *Pass) PathHasSuffix(suffix string) bool {
	return PathHasSuffix(p.Pkg.Path(), suffix)
}

// PathHasSuffix is the package-level form of Pass.PathHasSuffix, for
// matching import paths of *other* packages (e.g. the package that
// defines a type under scrutiny).
func PathHasSuffix(path, suffix string) bool {
	return path == suffix || strings.HasSuffix(path, "/"+suffix)
}

// ignoreRx matches suppression directives:
//
//	// xpqlint:ignore <analyzer> <reason>
//
// placed on the flagged line or the line above it. The reason is
// mandatory — a bare ignore keeps firing.
var ignoreRx = regexp.MustCompile(`//\s*xpqlint:ignore\s+([a-z]+)\s+\S`)

// suppressed filters diags, dropping any whose position is covered by
// an xpqlint:ignore directive for that analyzer in files.
func suppress(fset *token.FileSet, files []*ast.File, diags []Diagnostic) []Diagnostic {
	// (file, line) pairs holding an ignore directive, per analyzer.
	type key struct {
		file string
		line int
		name string
	}
	ignores := map[key]bool{}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := ignoreRx.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := fset.Position(c.Pos())
				ignores[key{pos.Filename, pos.Line, m[1]}] = true
				ignores[key{pos.Filename, pos.Line + 1, m[1]}] = true
			}
		}
	}
	if len(ignores) == 0 {
		return diags
	}
	kept := diags[:0]
	for _, d := range diags {
		if !ignores[key{d.Pos.Filename, d.Pos.Line, d.Analyzer}] {
			kept = append(kept, d)
		}
	}
	return kept
}

// Run applies every analyzer to every package and returns the merged
// findings in (file, line, column, analyzer) order.
func Run(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	var all []Diagnostic
	for _, pkg := range pkgs {
		var diags []Diagnostic
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer:  a,
				Fset:      pkg.Fset,
				Files:     pkg.Files,
				Pkg:       pkg.Types,
				TypesInfo: pkg.Info,
				diags:     &diags,
			}
			if _, err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.Path, err)
			}
		}
		all = append(all, suppress(pkg.Fset, pkg.Files, diags)...)
	}
	sort.Slice(all, func(i, j int) bool {
		a, b := all[i], all[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return all, nil
}
