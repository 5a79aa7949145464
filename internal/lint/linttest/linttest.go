// Package linttest replays analyzer fixtures the way
// golang.org/x/tools/go/analysis/analysistest does: fixture packages
// live under the analyzer's testdata/src/<pkg>, and every expected
// diagnostic is declared in-line with a trailing
//
//	// want "regexp"
//
// comment (several per line allowed). Run fails the test on any
// unmatched expectation and any unexpected diagnostic, so fixtures
// prove both that an analyzer fires (positive cases) and that it stays
// quiet (negative cases).
package linttest

import (
	"go/token"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"repro/internal/lint"
)

var wantRx = regexp.MustCompile(`//\s*want\s+(.*)`)

type expectation struct {
	rx      *regexp.Regexp
	raw     string
	matched bool
}

// Run loads testdata/src under dir, typechecks every fixture package
// found there, runs analyzer over the packages named by pkgs, and
// diffs the diagnostics against the fixtures' want comments.
func Run(t *testing.T, dir string, analyzer *lint.Analyzer, pkgs ...string) {
	t.Helper()
	srcRoot := filepath.Join(dir, "testdata", "src")
	all, err := lint.LoadDirs(srcRoot)
	if err != nil {
		t.Fatalf("loading fixtures under %s: %v", srcRoot, err)
	}
	want := map[string]bool{}
	for _, p := range pkgs {
		want[p] = true
	}
	var selected []*lint.Package
	for _, p := range all {
		if want[p.Path] {
			selected = append(selected, p)
			delete(want, p.Path)
		}
	}
	for missing := range want {
		t.Fatalf("fixture package %q not found under %s", missing, srcRoot)
	}

	diags, err := lint.Run(selected, []*lint.Analyzer{analyzer})
	if err != nil {
		t.Fatalf("running %s: %v", analyzer.Name, err)
	}

	// Collect expectations keyed by file:line.
	expects := map[string][]*expectation{}
	for _, p := range selected {
		for _, f := range p.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					m := wantRx.FindStringSubmatch(c.Text)
					if m == nil {
						continue
					}
					key := posKey(p.Fset.Position(c.Pos()))
					for _, raw := range splitWants(m[1]) {
						rx, err := regexp.Compile(raw)
						if err != nil {
							t.Fatalf("%s: bad want pattern %q: %v", key, raw, err)
						}
						expects[key] = append(expects[key], &expectation{rx: rx, raw: raw})
					}
				}
			}
		}
	}

	for _, d := range diags {
		key := posKey(d.Pos)
		found := false
		for _, e := range expects[key] {
			if !e.matched && e.rx.MatchString(d.Message) {
				e.matched = true
				found = true
				break
			}
		}
		if !found {
			t.Errorf("unexpected diagnostic at %s: %s", key, d.Message)
		}
	}
	for key, es := range expects {
		for _, e := range es {
			if !e.matched {
				t.Errorf("%s: no diagnostic matching %q", key, e.raw)
			}
		}
	}
}

func posKey(p token.Position) string {
	return filepath.Base(p.Filename) + ":" + strconv.Itoa(p.Line)
}

// splitWants parses the quoted regexps after a want marker:
// `"a" "b"` -> ["a", "b"].
func splitWants(s string) []string {
	var out []string
	for {
		s = strings.TrimSpace(s)
		if len(s) == 0 || s[0] != '"' {
			return out
		}
		end := 1
		for end < len(s) {
			if s[end] == '\\' {
				end += 2
				continue
			}
			if s[end] == '"' {
				break
			}
			end++
		}
		if end >= len(s) {
			return out
		}
		raw, err := strconv.Unquote(s[:end+1])
		if err == nil {
			out = append(out, raw)
		}
		s = s[end+1:]
	}
}
