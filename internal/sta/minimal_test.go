package sta_test

import (
	"bufio"
	"math/rand"
	"os"
	"strings"
	"testing"

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

	byID := make(map[string]string)
	for _, q := range xmark.Queries() {
		byID[q.ID] = q.XPath
	}
	xm := xmark.Generate(xmark.Config{Scale: 0.01, Seed: 1}).Names()
	f, err := os.Open("../../testdata/work.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	shapes := 0
	for sc := bufio.NewScanner(f); sc.Scan(); {
		fields := strings.Fields(sc.Text())
		if len(fields) < 3 || fields[2] != "topdown-det" {
			continue
		}
		query := fields[1]
		if q, ok := byID[query]; ok {
			query = q
		}
		minimalAsBuilt(t, query, xm)
		shapes++
	}
	if shapes == 0 {
		t.Error("no topdown-det row in the work ledger")
	}
}
