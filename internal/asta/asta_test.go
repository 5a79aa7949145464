package asta_test

import (
	"fmt"
	"testing"
	"testing/quick"

	"repro/internal/asta"
	"repro/internal/compile"
	"repro/internal/index"
	"repro/internal/stepwise"
	"repro/internal/tgen"
	"repro/internal/tree"
	"repro/internal/xpath"
)

// queryBattery exercises every construct of the fragment; correctness of
// each evaluation strategy is judged against the independent step-wise
// evaluator.
var queryBattery = []string{
	"/a",
	"//a",
	"//a//b",
	"//a/b",
	"/a/b/c",
	"/a/*",
	"//*",
	"//a[b]",
	"//a[.//b]",
	"//a[b and c]",
	"//a[b or c]",
	"//a[not(b)]",
	"//a[not(.//b)]",
	"//a[b][c]",
	"//a//b[c]",
	"/a//b[c]",
	"//a[.//b and .//c]//d",
	"//a[.//b or .//c]//d",
	"//a[b and (c or d)]",
	"//a[not(b or not(c))]",
	"//a/following-sibling::b",
	"//a[following-sibling::b]",
	"//a[.//b[c or d]]",
	"//node()",
	"//text()",
	"//a/text()",
	"//a[.]",
	"//a[.//b]//b",
	"//a[not(.//b) and c]",
	"//*//*",
	"//*[b]//c",
}

var allModes = []struct {
	name string
	opt  asta.Options
}{
	{"naive", asta.Options{}},
	{"jump", asta.Options{Jump: true}},
	{"memo", asta.Options{Memo: true}},
	{"opt", asta.Options{Jump: true, Memo: true}},
	{"naive+ip", asta.Options{InfoProp: true}},
	{"jump+ip", asta.Options{Jump: true, InfoProp: true}},
	{"memo+ip", asta.Options{Memo: true, InfoProp: true}},
	{"opt+ip", asta.Options{Jump: true, Memo: true, InfoProp: true}},
}

func sameNodes(a, b []tree.NodeID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestAllStrategiesAgainstStepwise is the central correctness property:
// every evaluation strategy selects exactly the node set of the
// independent step-wise oracle, on random documents, for every query of
// the battery.
func TestAllStrategiesAgainstStepwise(t *testing.T) {
	paths := make([]*xpath.Path, len(queryBattery))
	for i, q := range queryBattery {
		paths[i] = xpath.MustParse(q)
	}
	f := func(seed int64) bool {
		d := tgen.Random(seed, tgen.Config{
			Labels:   []string{"a", "b", "c", "d"},
			MaxNodes: 120,
			TextProb: 0.1,
		})
		ix := index.New(d)
		for qi, p := range paths {
			want := stepwise.Eval(d, p, stepwise.Default()).Selected
			aut, err := compile.ToASTA(p, d.Names())
			if err != nil {
				t.Logf("compile %q: %v", queryBattery[qi], err)
				return false
			}
			for _, m := range allModes {
				got := aut.Eval(d, ix, m.opt)
				if !sameNodes(got.Selected, want) {
					t.Logf("seed=%d query=%q mode=%s\n got=%v\nwant=%v",
						seed, queryBattery[qi], m.name, got.Selected, want)
					return false
				}
				if got.Accepted != (len(want) > 0) {
					t.Logf("seed=%d query=%q mode=%s acceptance mismatch", seed, queryBattery[qi], m.name)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Error(err)
	}
}

func TestExample41Shape(t *testing.T) {
	// Example 4.1: A_//a//b[c] has three search states (plus the
	// initial #doc state) and the exact transition shapes of the paper.
	lt := tree.NewLabelTable()
	lt.Intern("a")
	lt.Intern("b")
	lt.Intern("c")
	aut, err := compile.Compile("//a//b[c]", lt)
	if err != nil {
		t.Fatal(err)
	}
	if aut.NumStates != 4 {
		t.Errorf("states = %d, want 4 (init + one per step)", aut.NumStates)
	}
	// qI: 1 transition; each search state: match + recursion.
	if len(aut.Trans) != 7 {
		t.Errorf("transitions = %d, want 7:\n%s", len(aut.Trans), aut.String(lt))
	}
	selecting := 0
	for _, tr := range aut.Trans {
		if tr.Selecting {
			selecting++
		}
	}
	if selecting != 1 {
		t.Errorf("selecting transitions = %d, want 1", selecting)
	}
}

func TestKnownAnswers(t *testing.T) {
	// <r><a><b><c/></b><b/></a><b/><a/></r>
	b := tree.NewBuilder()
	b.Open("r")
	b.Open("a")
	b.Open("b")
	b.Open("c")
	b.Close()
	b.Close()
	b.Open("b")
	b.Close()
	b.Close()
	b.Open("b")
	b.Close()
	b.Open("a")
	b.Close()
	b.Close()
	d := b.MustFinish()
	ix := index.New(d)
	// Node ids: 0=#doc 1=r 2=a 3=b 4=c 5=b 6=b 7=a
	cases := []struct {
		query string
		want  []tree.NodeID
	}{
		{"/r", []tree.NodeID{1}},
		{"//a", []tree.NodeID{2, 7}},
		{"//a//b", []tree.NodeID{3, 5}},
		{"//b", []tree.NodeID{3, 5, 6}},
		{"//a//b[c]", []tree.NodeID{3}},
		{"//a[.//c]", []tree.NodeID{2}},
		{"//a[not(.//c)]", []tree.NodeID{7}},
		{"/r/b", []tree.NodeID{6}},
		{"//b[not(c)]", []tree.NodeID{5, 6}},
		{"//a/following-sibling::b", []tree.NodeID{6}},
		{"//c", []tree.NodeID{4}},
		{"/r/a/b/c", []tree.NodeID{4}},
		{"//x", nil},
	}
	for _, tc := range cases {
		aut, err := compile.Compile(tc.query, d.Names())
		if err != nil {
			t.Errorf("%q: %v", tc.query, err)
			continue
		}
		for _, m := range allModes {
			got := aut.Eval(d, ix, m.opt)
			if !sameNodes(got.Selected, tc.want) {
				t.Errorf("%q (%s) = %v, want %v", tc.query, m.name, got.Selected, tc.want)
			}
		}
		// Stepwise agrees too.
		sw, err := stepwise.EvalString(d, tc.query, stepwise.Default())
		if err != nil {
			t.Fatal(err)
		}
		if !sameNodes(sw.Selected, tc.want) {
			t.Errorf("stepwise %q = %v, want %v", tc.query, sw.Selected, tc.want)
		}
	}
}

// TestJumpVisitsFewer checks the headline claim: the jumping evaluator
// touches far fewer nodes than the naive one on selective queries.
func TestJumpVisitsFewer(t *testing.T) {
	// Large document with a small a(b) island among noise.
	bld := tree.NewBuilder()
	bld.Open("r")
	for i := 0; i < 2000; i++ {
		bld.Open("x")
		bld.Open("y")
		bld.Close()
		bld.Close()
	}
	bld.Open("a")
	bld.Open("b")
	bld.Close()
	bld.Close()
	bld.Close()
	d := bld.MustFinish()
	ix := index.New(d)
	aut, err := compile.Compile("//a//b", d.Names())
	if err != nil {
		t.Fatal(err)
	}
	naive := aut.Eval(d, nil, asta.Options{})
	jump := aut.Eval(d, ix, asta.Options{Jump: true})
	if !sameNodes(naive.Selected, jump.Selected) || len(jump.Selected) != 1 {
		t.Fatalf("selection mismatch: %v vs %v", naive.Selected, jump.Selected)
	}
	if naive.Visited != d.NumNodes() {
		t.Errorf("naive should visit all %d nodes, visited %d", d.NumNodes(), naive.Visited)
	}
	if jump.Visited > 10 {
		t.Errorf("jumping visited %d nodes, want <= 10 on a %d-node document",
			jump.Visited, d.NumNodes())
	}
}

// TestMemoAmortizesQ: with memoization, the number of memoized
// configurations is small and independent of document size.
func TestMemoAmortizesQ(t *testing.T) {
	small := tgen.Random(1, tgen.Config{Labels: []string{"a", "b", "c"}, MaxNodes: 200})
	big := tgen.Random(1, tgen.Config{Labels: []string{"a", "b", "c"}, MaxNodes: 4000})
	for _, q := range []string{"//a//b", "//a[.//b]//c"} {
		autS, err := compile.Compile(q, small.Names())
		if err != nil {
			t.Fatal(err)
		}
		autB, err := compile.Compile(q, big.Names())
		if err != nil {
			t.Fatal(err)
		}
		rs := autS.Eval(small, nil, asta.Options{Memo: true})
		rb := autB.Eval(big, nil, asta.Options{Memo: true})
		if rb.MemoEntries > 4*rs.MemoEntries+16 {
			t.Errorf("%q: memo entries grew with document size: %d -> %d",
				q, rs.MemoEntries, rb.MemoEntries)
		}
		if rb.MemoHits < big.NumNodes()/2 {
			t.Errorf("%q: expected most nodes served from memo, hits=%d nodes=%d",
				q, rb.MemoHits, big.NumNodes())
		}
	}
}

// TestInfoPropReducesWork: with information propagation, predicates stop
// at the first witness, reducing second-child state sets.
func TestInfoPropReducesWork(t *testing.T) {
	// b with many c children: [c] needs only the first.
	bld := tree.NewBuilder()
	bld.Open("a")
	bld.Open("b")
	for i := 0; i < 500; i++ {
		bld.Open("c")
		bld.Close()
	}
	bld.Close()
	bld.Close()
	d := bld.MustFinish()
	aut, err := compile.Compile("//a//b[c]", d.Names())
	if err != nil {
		t.Fatal(err)
	}
	plain := aut.Eval(d, nil, asta.Options{})
	ip := aut.Eval(d, nil, asta.Options{InfoProp: true})
	if !sameNodes(plain.Selected, ip.Selected) {
		t.Fatalf("info propagation changed the result")
	}
	// Both visit all nodes (no jumping), but the point of info
	// propagation is visible with jumping: the c-scan stops early.
	ix := index.New(d)
	jump := aut.Eval(d, ix, asta.Options{Jump: true})
	jumpIP := aut.Eval(d, ix, asta.Options{Jump: true, InfoProp: true})
	if !sameNodes(jump.Selected, jumpIP.Selected) {
		t.Fatalf("info propagation + jump changed the result")
	}
	if jumpIP.Visited > jump.Visited {
		t.Errorf("info propagation increased visits: %d > %d", jumpIP.Visited, jump.Visited)
	}
}

func TestStateSetOps(t *testing.T) {
	var s asta.StateSet
	s = s.With(3).With(5)
	if !s.Has(3) || !s.Has(5) || s.Has(4) {
		t.Errorf("membership wrong")
	}
	var got []asta.State
	s.Each(func(q asta.State) { got = append(got, q) })
	if len(got) != 2 || got[0] != 3 || got[1] != 5 {
		t.Errorf("Each order wrong: %v", got)
	}
	if s.String() != "{q3,q5}" {
		t.Errorf("String = %q", s.String())
	}
	if !asta.StateSet(0).IsEmpty() {
		t.Errorf("empty set not empty")
	}
}

func TestFormulaStringAndSize(t *testing.T) {
	f := asta.And(asta.Or(asta.Down1(1), asta.Down2(2)), asta.Not(asta.True()))
	if f.Size() != 6 {
		t.Errorf("Size = %d, want 6", f.Size())
	}
	if s := f.String(); s == "" {
		t.Errorf("empty String")
	}
}

func TestTooManyStates(t *testing.T) {
	a := &asta.ASTA{NumStates: asta.MaxStates + 1}
	if _, err := a.Finalize(); err == nil {
		t.Error("Finalize should reject >64 states")
	}
}

func TestCompileErrors(t *testing.T) {
	lt := tree.NewLabelTable()
	for _, q := range []string{
		"a",        // relative top-level
		"//a[/b]",  // absolute predicate path
		"//a[\x00", // parse error
	} {
		if _, err := compile.Compile(q, lt); err == nil {
			t.Errorf("Compile(%q) should fail", q)
		}
	}
}

func TestSelectingLabelsAndMarking(t *testing.T) {
	lt := tree.NewLabelTable()
	a := lt.Intern("a")
	lt.Intern("b")
	aut, err := compile.Compile("//a//b[c]", lt)
	if err != nil {
		t.Fatal(err)
	}
	marking := 0
	for q := asta.State(0); int(q) < aut.NumStates; q++ {
		if aut.Marking(q) {
			marking++
		}
	}
	// qI, q_a and q_b can mark (they reach the selecting transition);
	// the predicate state q_c cannot.
	if marking != 3 {
		t.Errorf("marking states = %d, want 3", marking)
	}
	_ = a
}

func BenchmarkEvalNaive(b *testing.B) { benchEval(b, asta.Options{}) }
func BenchmarkEvalJump(b *testing.B)  { benchEval(b, asta.Options{Jump: true}) }
func BenchmarkEvalMemo(b *testing.B)  { benchEval(b, asta.Options{Memo: true}) }
func BenchmarkEvalOpt(b *testing.B)   { benchEval(b, asta.Opt()) }
func benchEval(b *testing.B, opt asta.Options) {
	d := tgen.Random(1, tgen.Config{Labels: []string{"a", "b", "c", "d", "e"}, MaxNodes: 50000})
	ix := index.New(d)
	aut, err := compile.Compile("//a//b[c]", d.Names())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := aut.Eval(d, ix, opt)
		if i == 0 && b.N > 0 {
			_ = fmt.Sprintf("%d", len(res.Selected))
		}
	}
}
