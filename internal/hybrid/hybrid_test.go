package hybrid_test

import (
	"errors"
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
// sets as the oracle on random documents for every chain query.
func TestHybridAgainstStepwise(t *testing.T) {
	paths := make([]*xpath.Path, len(chainBattery))
	for i, q := range chainBattery {
		paths[i] = xpath.MustParse(q)
	}
	f := func(seed int64) bool {
		d := tgen.Random(seed, tgen.Config{
			Labels:   []string{"a", "b", "c"},
			MaxNodes: 150,
		})
		ix := index.New(d)
		for qi, p := range paths {
			want := stepwise.Eval(d, p, stepwise.Default()).Selected
			got, err := hybrid.Eval(d, ix, p)
			if err != nil {
				t.Logf("%q: %v", chainBattery[qi], err)
				return false
			}
			if !sameNodes(got.Selected, want) {
				t.Logf("seed=%d %q: got %v want %v", seed, chainBattery[qi], got.Selected, want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestHybridPicksCheapestPivot(t *testing.T) {
	// Config A: 3 keywords among ~750 listitems — pivot must be the
	// keyword step (index 1).
	d := xmark.Fig5Configs()[0].Build(0.01)
	ix := index.New(d)
	res, err := hybrid.EvalString(d, ix, xmark.HybridQuery)
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
	res, err := hybrid.EvalString(d, ix, xmark.HybridQuery)
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
		_, err := hybrid.EvalString(d, ix, q)
		if !errors.Is(err, hybrid.ErrUnsupported) {
			t.Errorf("EvalString(%q) err = %v, want ErrUnsupported", q, err)
		}
	}
	if _, err := hybrid.EvalString(d, ix, "//a["); err == nil {
		t.Error("parse error not propagated")
	}
}

func TestHybridMissingLabel(t *testing.T) {
	d := tgen.Star("r", "c", 3)
	ix := index.New(d)
	res, err := hybrid.EvalString(d, ix, "//zzz//c")
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
		got, err := hybrid.EvalString(d, ix, q)
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
		res, err := hybrid.EvalString(d, ix, tc.query)
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
	p := xpath.MustParse(xmark.HybridQuery)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := hybrid.Eval(d, ix, p); err != nil {
			b.Fatal(err)
		}
	}
}
