package stepwise_test

import (
	"testing"
	"testing/quick"

	"repro/internal/stepwise"
	"repro/internal/tgen"
	"repro/internal/tree"
	"repro/internal/xmlparse"
	"repro/internal/xpath"
)

func evalQ(t *testing.T, d *tree.Document, q string) []tree.NodeID {
	t.Helper()
	res, err := stepwise.EvalString(d, q, stepwise.Default())
	if err != nil {
		t.Fatalf("EvalString(%q): %v", q, err)
	}
	return res.Selected
}

func names(d *tree.Document, ns []tree.NodeID) []string {
	out := make([]string, len(ns))
	for i, v := range ns {
		out[i] = d.LabelName(v)
	}
	return out
}

func TestBasicAxes(t *testing.T) {
	d, err := xmlparse.ParseString(`<r><a><b/><c/></a><a><b/></a><b/></r>`)
	if err != nil {
		t.Fatal(err)
	}
	if got := evalQ(t, d, "/r/a"); len(got) != 2 {
		t.Errorf("/r/a = %v", names(d, got))
	}
	if got := evalQ(t, d, "//b"); len(got) != 3 {
		t.Errorf("//b = %v", names(d, got))
	}
	if got := evalQ(t, d, "/r/a/b"); len(got) != 2 {
		t.Errorf("/r/a/b = %v", names(d, got))
	}
	if got := evalQ(t, d, "//a[c]"); len(got) != 1 {
		t.Errorf("//a[c] = %v", names(d, got))
	}
	if got := evalQ(t, d, "//a[not(c)]"); len(got) != 1 {
		t.Errorf("//a[not(c)] = %v", names(d, got))
	}
	if got := evalQ(t, d, "//a/following-sibling::b"); len(got) != 1 {
		t.Errorf("following-sibling = %v", names(d, got))
	}
	if got := evalQ(t, d, "/r/*"); len(got) != 3 {
		t.Errorf("/r/* = %v", names(d, got))
	}
}

func TestAttributesAndText(t *testing.T) {
	d, err := xmlparse.ParseString(`<r><a x="1">hello</a><a/></r>`)
	if err != nil {
		t.Fatal(err)
	}
	if got := evalQ(t, d, "//a/@x"); len(got) != 1 || d.LabelName(got[0]) != "@x" {
		t.Errorf("//a/@x = %v", names(d, got))
	}
	if got := evalQ(t, d, "//a[@x]"); len(got) != 1 {
		t.Errorf("//a[@x] = %v", names(d, got))
	}
	if got := evalQ(t, d, "//a/text()"); len(got) != 1 {
		t.Errorf("//a/text() = %v", names(d, got))
	}
	// * and node() must not match the encoded attributes.
	if got := evalQ(t, d, "//a/*"); len(got) != 0 {
		t.Errorf("//a/* = %v, attributes leaked", names(d, got))
	}
	if got := evalQ(t, d, "/r/node()"); len(got) != 2 {
		t.Errorf("/r/node() = %v", names(d, got))
	}
}

func TestResultsSortedAndDeduped(t *testing.T) {
	f := func(seed int64) bool {
		d := tgen.Random(seed, tgen.Config{Labels: []string{"a", "b"}, MaxNodes: 150})
		for _, q := range []string{"//a//b", "//a//a", "//*//*", "//a[.//b]//b"} {
			res, err := stepwise.EvalString(d, q, stepwise.Default())
			if err != nil {
				return false
			}
			for i := 1; i < len(res.Selected); i++ {
				if res.Selected[i-1] >= res.Selected[i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// Property: staircase pruning never changes results, only effort.
func TestStaircaseEquivalence(t *testing.T) {
	f := func(seed int64) bool {
		d := tgen.Random(seed, tgen.Config{Labels: []string{"a", "b", "c"}, MaxNodes: 200})
		for _, q := range []string{"//a//b", "//a//a//a", "//a[.//b]//c"} {
			p := xpath.MustParse(q)
			with := stepwise.Eval(d, p, stepwise.Options{Staircase: true})
			without := stepwise.Eval(d, p, stepwise.Options{Staircase: false})
			if len(with.Selected) != len(without.Selected) {
				return false
			}
			for i := range with.Selected {
				if with.Selected[i] != without.Selected[i] {
					return false
				}
			}
			if with.Visited > without.Visited {
				return false // pruning must not increase work
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestStaircaseReducesWorkOnNestedContexts(t *testing.T) {
	// Deep a-chain: //a//a has n contexts, all nested; staircase
	// evaluates only the outermost subtree once.
	d := tgen.Chain("a", 200)
	p := xpath.MustParse("//a//a")
	with := stepwise.Eval(d, p, stepwise.Options{Staircase: true})
	without := stepwise.Eval(d, p, stepwise.Options{Staircase: false})
	if without.Visited < 10*with.Visited {
		t.Errorf("staircase saving too small: %d vs %d", with.Visited, without.Visited)
	}
}

func TestEmptyResults(t *testing.T) {
	d := tgen.Star("r", "c", 5)
	if got := evalQ(t, d, "//zzz"); got != nil {
		t.Errorf("//zzz = %v", got)
	}
	if got := evalQ(t, d, "/r/c[x]"); got != nil {
		t.Errorf("filtered all = %v", got)
	}
}

func TestParseErrorPropagates(t *testing.T) {
	d := tgen.Star("r", "c", 1)
	if _, err := stepwise.EvalString(d, "/r[", stepwise.Default()); err == nil {
		t.Error("expected parse error")
	}
}

func BenchmarkStepwiseDescendant(b *testing.B) {
	d := tgen.Random(1, tgen.Config{Labels: []string{"a", "b", "c", "d"}, MaxNodes: 50000})
	p := xpath.MustParse("//a//b[c]")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = stepwise.Eval(d, p, stepwise.Default())
	}
}
