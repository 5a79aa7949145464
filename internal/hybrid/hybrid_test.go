package hybrid_test

import (
	"errors"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/hybrid"
	"repro/internal/index"
	"repro/internal/stepwise"
	"repro/internal/tgen"
	"repro/internal/tree"
	"repro/internal/xmark"
	"repro/internal/xpath"
)

// eval compiles p against d's label table and runs it over d.
func eval(d *tree.Document, ix *index.Index, p *xpath.Path) (hybrid.Result, error) {
	c, err := hybrid.Compile(p, d.Names())
	if err != nil {
		return hybrid.Result{}, err
	}
	return c.Eval(d, ix, nil), nil
}

// evalString parses query and runs the hybrid evaluator on it.
func evalString(d *tree.Document, ix *index.Index, query string) (hybrid.Result, error) {
	p, err := xpath.Parse(query)
	if err != nil {
		return hybrid.Result{}, err
	}
	return eval(d, ix, p)
}

var chainBattery = []string{
	"//a",
	"/a",
	"/a/b",
	"//a//b",
	"//a//b//c",
	"/a//b/c",
	"//a/b",
	"/a/b//c",
	"//a//a",
	"//a/b//c",
	"//b//a//c",
}

// deepBattery repeats labels and mixes axes, so that many ancestors can
// serve a step: the chains an upward check that backtracks blows up on,
// run over deep trees of two or three labels.
var deepBattery = []string{
	"//a//a//b",
	"/a/a//b/a",
	"//a/b//a/b",
	"//a//b//a//b//a//b",
	"//b/a/a//b/a",
	"/a//a/a//c//a",
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

// TestHybridAgainstStepwise: the hybrid strategy computes the same node
// sets as the oracle on random documents for every chain query — bushy
// ones over three labels, and deep ones (nesting up to 48) over two or
// three, where chains with repeated labels find many ancestors to match.
func TestHybridAgainstStepwise(t *testing.T) {
	check := func(seed int64, d *tree.Document, queries []string) bool {
		ix := index.New(d)
		for _, q := range queries {
			p := xpath.MustParse(q)
			want := stepwise.Eval(d, p, stepwise.Default()).Selected
			got, err := eval(d, ix, p)
			if err != nil {
				t.Logf("%q: %v", q, err)
				return false
			}
			if !sameNodes(got.Selected, want) {
				t.Logf("seed=%d %q: got %v want %v", seed, q, got.Selected, want)
				return false
			}
		}
		return true
	}
	bushy := func(seed int64) bool {
		return check(seed, tgen.Random(seed, tgen.Config{
			Labels:   []string{"a", "b", "c"},
			MaxNodes: 150,
		}), chainBattery)
	}
	deepest := 0
	deep := func(seed int64) bool {
		labels := []string{"a", "b"}
		if seed%2 == 0 {
			labels = append(labels, "c")
		}
		d := tgen.Random(seed, tgen.Config{
			Labels:      labels,
			MaxNodes:    400,
			MaxChildren: 2,
			MaxDepth:    48,
		})
		for v := tree.NodeID(1); int(v) < d.NumNodes(); v++ {
			depth := 0
			for a := v; a != d.Root(); a = d.Parent(a) {
				depth++
			}
			deepest = max(deepest, depth)
		}
		return check(seed, d, append(deepBattery, chainBattery...))
	}
	for _, f := range []func(int64) bool{bushy, deep} {
		if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
			t.Error(err)
		}
	}
	if deepest < 40 {
		t.Errorf("the deepest generated document nests %d levels, want at least 40", deepest)
	}
}

// TestHybridUpwardCheckIsOnePass: on <r><c/><c/> then d nested <a>
// around a <b/>, //c//a//a//a//a//a//b selects nothing, and an upward
// check that backtracks tries every way of placing the five a steps on
// the d ancestors before it finds that out (six million visits at
// d = 40). One walk up the path visits each ancestor once.
func TestHybridUpwardCheckIsOnePass(t *testing.T) {
	const depth = 250
	b := tree.NewBuilder()
	b.Open("r")
	for i := 0; i < 2; i++ {
		b.Open("c")
		b.Close()
	}
	for i := 0; i < depth; i++ {
		b.Open("a")
	}
	b.Open("b")
	b.Close()
	for i := 0; i < depth; i++ {
		b.Close()
	}
	b.Close()
	d := b.MustFinish()
	ix := index.New(d)
	for _, tc := range []struct {
		query    string
		selected int
	}{
		{"//c//a//a//a//a//a//b", 0},
		{"//r//a//a//a//a//a//b", 1},
		{"/r/a/a//a//a/a//b", 1},
	} {
		res, err := evalString(d, ix, tc.query)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Selected) != tc.selected || res.Visited > depth+10 {
			t.Errorf("%s: selected %d visiting %d nodes, want %d visiting at most %d", tc.query, len(res.Selected), res.Visited, tc.selected, depth+10)
		}
	}
}

// TestHybridRefusesLongChains: the upward check keeps a bit per step,
// so a chain has at most 64.
func TestHybridRefusesLongChains(t *testing.T) {
	d := tgen.Chain("a", 70)
	ix := index.New(d)
	for _, tc := range []struct {
		steps int
		ok    bool
	}{{64, true}, {65, false}} {
		q := strings.Repeat("/a", tc.steps)
		res, err := evalString(d, ix, q)
		if tc.ok && (err != nil || len(res.Selected) != 1) {
			t.Errorf("%d steps: %v selected, error %v, want the 64th a", tc.steps, res.Selected, err)
		}
		if !tc.ok && !errors.Is(err, hybrid.ErrUnsupported) {
			t.Errorf("%d steps: error %v, want ErrUnsupported", tc.steps, err)
		}
	}
}

func TestHybridPicksCheapestPivot(t *testing.T) {
	// Config A: 3 keywords among ~750 listitems — pivot must be the
	// keyword step (index 1).
	d := xmark.Fig5Configs()[0].Build(0.01)
	ix := index.New(d)
	res, err := evalString(d, ix, xmark.HybridQuery)
	if err != nil {
		t.Fatal(err)
	}
	if res.Pivot != 1 {
		t.Errorf("pivot = %d, want 1 (keyword)", res.Pivot)
	}
	if len(res.Selected) != 4 {
		t.Errorf("selected %d, want 4", len(res.Selected))
	}
	// The hybrid run should touch a tiny fraction of the document.
	if res.Visited > d.NumNodes()/10 {
		t.Errorf("hybrid visited %d of %d nodes", res.Visited, d.NumNodes())
	}
}

func TestHybridConfigBPivotIsEmph(t *testing.T) {
	d := xmark.Fig5Configs()[1].Build(0.01)
	ix := index.New(d)
	res, err := evalString(d, ix, xmark.HybridQuery)
	if err != nil {
		t.Fatal(err)
	}
	if res.Pivot != 2 {
		t.Errorf("pivot = %d, want 2 (emph: count 4)", res.Pivot)
	}
	if len(res.Selected) != 4 {
		t.Errorf("selected %d, want 4", len(res.Selected))
	}
	if res.Visited > 100 {
		t.Errorf("pure bottom-up run should touch ~a dozen nodes, visited %d", res.Visited)
	}
}

func TestHybridUnsupported(t *testing.T) {
	d := tgen.Star("r", "c", 3)
	ix := index.New(d)
	for _, q := range []string{
		"//a[b]",
		"//a/text()",
		"//*",
		"//a/following-sibling::b",
	} {
		_, err := evalString(d, ix, q)
		if !errors.Is(err, hybrid.ErrUnsupported) {
			t.Errorf("Eval(%q) err = %v, want ErrUnsupported", q, err)
		}
	}
}

func TestHybridMissingLabel(t *testing.T) {
	d := tgen.Star("r", "c", 3)
	ix := index.New(d)
	res, err := evalString(d, ix, "//zzz//c")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Selected) != 0 {
		t.Errorf("selected %v, want empty", res.Selected)
	}
}

func TestHybridOnXMark(t *testing.T) {
	d := xmark.Generate(xmark.Config{Scale: 0.01, Seed: 1})
	ix := index.New(d)
	for _, q := range []string{"//listitem//keyword", "//listitem//keyword//emph", "/site/regions"} {
		want, err := stepwise.EvalString(d, q, stepwise.Default())
		if err != nil {
			t.Fatal(err)
		}
		got, err := evalString(d, ix, q)
		if err != nil {
			t.Fatal(err)
		}
		if !sameNodes(got.Selected, want.Selected) {
			t.Errorf("%q: hybrid %d nodes, oracle %d", q, len(got.Selected), len(want.Selected))
		}
	}
}

// TestHybridNestedPivots pins the one case whose answer is not found in
// document order: pivot occurrences that nest. The keywords under the
// inner listitem are found twice, under the outer one first, and the one
// after the inner listitem before them again; the answer is still each
// node once, ascending. With the pivot on the last step nothing nests in
// the answer, and it is the occurrence order as it lies.
func TestHybridNestedPivots(t *testing.T) {
	b := tree.NewBuilder()
	b.Open("r")
	b.Open("listitem") // 2
	b.Open("keyword")  // 3
	b.Close()
	b.Open("listitem") // 4
	b.Open("keyword")  // 5
	b.Close()
	b.Open("keyword") // 6
	b.Close()
	b.Close()
	b.Open("keyword") // 7
	b.Close()
	b.Close()
	b.Open("keyword") // 8: under no listitem
	b.Close()
	b.Close()
	d := b.MustFinish()
	ix := index.New(d)
	for _, tc := range []struct {
		query string
		pivot int
		want  []tree.NodeID
	}{
		{"//listitem//keyword", 0, []tree.NodeID{3, 5, 6, 7}},
		{"//r//listitem", 0, []tree.NodeID{2, 4}},
		{"//keyword", 0, []tree.NodeID{3, 5, 6, 7, 8}},
	} {
		res, err := evalString(d, ix, tc.query)
		if err != nil {
			t.Fatal(err)
		}
		if res.Pivot != tc.pivot || !sameNodes(res.Selected, tc.want) {
			t.Errorf("%s: pivot %d selects %v, want pivot %d selecting %v", tc.query, res.Pivot, res.Selected, tc.pivot, tc.want)
		}
	}
}

func BenchmarkHybridConfigA(b *testing.B) {
	d := xmark.Fig5Configs()[0].Build(0.05)
	ix := index.New(d)
	c, err := hybrid.Compile(xpath.MustParse(xmark.HybridQuery), d.Names())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Eval(d, ix, nil)
	}
}
