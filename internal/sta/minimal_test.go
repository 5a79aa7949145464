package sta_test

import (
	"bufio"
	"math/rand"
	"os"
	"strings"
	"testing"

	"repro/internal/asta"
	"repro/internal/compile"
	"repro/internal/tree"
	"repro/internal/xmark"
	"repro/internal/xpath"
)

// minimalAsBuilt reports whether the TDSTA ToTDSTA builds for p has as
// many states as its minimization (Theorem A.1), the precondition of
// Theorem 3.1 that no request re-establishes.
func minimalAsBuilt(t *testing.T, query string, names *tree.LabelTable) bool {
	t.Helper()
	p, err := xpath.Parse(query)
	if err != nil {
		t.Fatalf("%s: %v", query, err)
	}
	aut, err := compile.ToTDSTA(p, names)
	if err != nil {
		t.Fatalf("%s: %v", query, err)
	}
	if min := aut.MinimizeTopDown(); min.NumStates != aut.NumStates {
		t.Errorf("%s: %d states as built, %d minimized\nbuilt:\n%s\nminimal:\n%s",
			query, aut.NumStates, min.NumStates, aut.String(names), min.String(names))
		return false
	}
	return true
}

// randomTDSTAPath returns a path CheckTDSTA accepts: 1 to 63 steps
// (mostly few), child steps before descendant steps, each testing * or
// a name. On half the paths a name is now and then one the table lacks.
func randomTDSTAPath(rng *rand.Rand) string {
	n := 1 + rng.Intn(8)
	if rng.Intn(2) == 0 {
		n = 1 + rng.Intn(63)
	}
	children := rng.Intn(n + 1)
	absent := rng.Intn(2) == 0
	var sb strings.Builder
	for i := range n {
		if i < children {
			sb.WriteString("/")
		} else {
			sb.WriteString("//")
		}
		switch r := rng.Intn(16); {
		case r < 4:
			sb.WriteString("*")
		case r == 4 && absent:
			sb.WriteString("zzz")
		default:
			sb.WriteString([]string{"a", "b", "c"}[r%3])
		}
	}
	return sb.String()
}

// TestTDSTAMinimalAsBuilt: determinization yields the minimal TDSTA,
// on 20 000 generated paths over a table with an attribute name (which
// * excludes) and on every query the work ledger runs on the TDSTA.
func TestTDSTAMinimalAsBuilt(t *testing.T) {
	names := tree.NewLabelTable()
	for _, n := range []string{"#doc", "#text", "a", "b", "c", "@x"} {
		names.Intern(n)
	}
	rng := rand.New(rand.NewSource(57))
	for failed, i := 0, 0; i < 20000 && failed < 5; i++ {
		if !minimalAsBuilt(t, randomTDSTAPath(rng), names) {
			failed++
		}
	}

	queries, tdsta := ledgerQueries(t)
	xm, shapes := xmarkNames(), 0
	for _, q := range queries {
		if tdsta[q] {
			minimalAsBuilt(t, q, xm)
			shapes++
		}
	}
	if shapes == 0 {
		t.Error("no topdown-det row in the work ledger")
	}
}

// xmarkNames returns the label table of the work ledger's documents.
func xmarkNames() *tree.LabelTable {
	return xmark.Generate(xmark.Config{Scale: 0.01, Seed: 1}).Names()
}

// ledgerQueries returns the queries of the work ledger's rows, each
// once, paper queries by their text, and the set of those it runs on
// the TDSTA.
func ledgerQueries(t *testing.T) (queries []string, tdsta map[string]bool) {
	t.Helper()
	byID := make(map[string]string)
	for _, q := range xmark.Queries() {
		byID[q.ID] = q.XPath
	}
	f, err := os.Open("../../testdata/work.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	tdsta = make(map[string]bool)
	seen := make(map[string]bool)
	for sc := bufio.NewScanner(f); sc.Scan(); {
		fields := strings.Fields(sc.Text())
		if len(fields) < 3 || fields[0] == "#" || fields[0] == "http" {
			continue
		}
		query := fields[1]
		if q, ok := byID[query]; ok {
			query = q
		}
		if !seen[query] {
			seen[query] = true
			queries = append(queries, query)
		}
		if fields[2] == "topdown-det" {
			tdsta[query] = true
		}
	}
	return queries, tdsta
}

// TestCompiledLoops: the compiler loops a state on ↓1 q ∨ ↓2 q or on
// ↓2 q (compile.searchState) and on nothing else, so no ASTA state
// loops on its first child alone and no TDSTA has a non-selecting
// (q, q⊤) transition: neither run needs the left-path jump (lt) of
// Definition 3.2, and neither has one. It checks the paper's queries,
// the work ledger's and the paths TestTDSTAMinimalAsBuilt generates. A
// query that compiles to another loop fails here, where without the
// test both runs would visit every node the loop passes.
func TestCompiledLoops(t *testing.T) {
	loops, tdstas := 0, 0
	check := func(query string, names *tree.LabelTable) {
		p, err := xpath.Parse(query)
		if err != nil {
			t.Fatalf("%s: %v", query, err)
		}
		if compile.CheckASTA(p) != nil {
			return
		}
		a := compile.BuildASTA(p, names)
		for i := range a.Trans {
			tr := &a.Trans[i]
			if d1, d2 := tr.Downs(); !(d1 | d2).Has(tr.From) {
				continue
			}
			loops++
			if !compiledLoop(tr.Phi, tr.From) {
				t.Errorf("%s: q%d loops on %s, neither ↓1 q ∨ ↓2 q nor ↓2 q", query, tr.From, tr.Phi)
			}
		}
		if compile.CheckTDSTA(p) != nil {
			return
		}
		tdstas++
		aut := compile.DeterminizeTopDown(a)
		for _, tr := range aut.Trans {
			if !tr.Selecting && tr.Dest.Left == tr.From && tr.Dest.Right != tr.From && aut.IsTopDownUniversal(tr.Dest.Right) {
				t.Errorf("%s: q%d, %s -> (q%d, q%d) loops on the first child alone\n%s",
					query, tr.From, tr.Guard.String(names), tr.Dest.Left, tr.Dest.Right, aut.String(names))
			}
		}
	}
	xm := xmarkNames()
	for _, q := range xmark.Queries() {
		check(q.XPath, xm)
	}
	queries, _ := ledgerQueries(t)
	for _, q := range queries {
		check(q, xm)
	}
	names := tree.NewLabelTable()
	for _, n := range []string{"a", "b", "c", "@x"} {
		names.Intern(n)
	}
	rng := rand.New(rand.NewSource(57))
	for i := 0; i < 20000 && !t.Failed(); i++ {
		check(randomTDSTAPath(rng), names)
	}
	if loops == 0 || tdstas == 0 {
		t.Errorf("checked %d loops and %d TDSTAs", loops, tdstas)
	}
}

// compiledLoop reports whether phi, a formula of q's, is one of the two
// loops the compiler emits: ↓1 q ∨ ↓2 q (either way round) or ↓2 q.
func compiledLoop(phi *asta.Formula, q asta.State) bool {
	down := func(f *asta.Formula, child int8) bool {
		return f.Kind == asta.FDown && f.Q == q && f.Child == child
	}
	return down(phi, 2) || phi.Kind == asta.FOr &&
		(down(phi.Left, 1) && down(phi.Right, 2) || down(phi.Left, 2) && down(phi.Right, 1))
}
