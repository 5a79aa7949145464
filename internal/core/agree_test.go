package core_test

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/compile"
	"repro/internal/core"
	"repro/internal/hybrid"
	"repro/internal/tgen"
	"repro/internal/tree"
	"repro/internal/xmark"
	"repro/internal/xmlparse"
	"repro/internal/xpath"
)

// forced are the engines a request can force, each with the fragment
// test that decides whether it answers and the error it refuses with.
var forced = []struct {
	s     core.Strategy
	check func(*xpath.Path) error
	err   error
}{
	{core.Naive, compile.CheckASTA, compile.ErrUnsupported},
	{core.Jumping, compile.CheckASTA, compile.ErrUnsupported},
	{core.Memoized, compile.CheckASTA, compile.ErrUnsupported},
	{core.Optimized, compile.CheckASTA, compile.ErrUnsupported},
	{core.TopDownDet, compile.CheckTDSTA, compile.ErrUnsupported},
	{core.Hybrid, hybrid.CheckChain, hybrid.ErrUnsupported},
}

// agree evaluates q with Auto and every forced engine and compares each
// answer with the step-wise oracle's. An engine may refuse q only when
// its own check does, with its own error; Auto never refuses.
func agree(e *core.Engine, q string) error {
	p, err := xpath.Parse(q)
	if err != nil {
		return nil
	}
	want, err := e.QueryWith(q, core.Stepwise)
	if err != nil {
		return fmt.Errorf("stepwise: %v", err)
	}
	got, err := e.QueryWith(q, core.Auto)
	if err != nil {
		return fmt.Errorf("auto: %v", err)
	}
	if !sameNodes(got.Nodes, want.Nodes) {
		return fmt.Errorf("auto (%v) %v, stepwise %v", got.Strategy, got.Nodes, want.Nodes)
	}
	for _, f := range forced {
		got, err := e.QueryWith(q, f.s)
		cerr := f.check(p)
		switch {
		case err != nil && cerr == nil:
			return fmt.Errorf("%v refused a query its check accepts: %v", f.s, err)
		case err == nil && cerr != nil:
			return fmt.Errorf("%v answered a query its check refuses (%v)", f.s, cerr)
		case err != nil && (!errors.Is(err, f.err) || err.Error() != cerr.Error()):
			return fmt.Errorf("%v refused with %v, its check with %v", f.s, err, cerr)
		case err == nil && !sameNodes(got.Nodes, want.Nodes):
			return fmt.Errorf("%v %v, stepwise %v", f.s, got.Nodes, want.Nodes)
		}
	}
	return nil
}

// selfDoc numbers its nodes #doc 0, r 1, a 2, b 3, c 4, b 5.
const selfDoc = "<r><a><b><c/></b><b/></a></r>"

// TestSelfSteps: a `.` step ends a main path like any other step
// selects, and self::node() keeps the root, on every engine.
func TestSelfSteps(t *testing.T) {
	d, err := xmlparse.ParseString(selfDoc)
	if err != nil {
		t.Fatal(err)
	}
	e := core.New(d)
	for q, want := range map[string][]tree.NodeID{
		"//b/.":                  {3, 5},
		"//b/self::node()":       {3, 5},
		"/r/a/b/self::node()[c]": {3},
		"/./r":                   {1},
		"/.//b":                  {3, 5},
		"/.":                     {0},
	} {
		ans, err := e.QueryWith(q, core.Stepwise)
		if err != nil {
			t.Fatal(err)
		}
		if !sameNodes(ans.Nodes, want) {
			t.Errorf("%s: stepwise %v, want %v", q, ans.Nodes, want)
		}
		if err := agree(e, q); err != nil {
			t.Errorf("%s: %v", q, err)
		}
	}
}

// FuzzStrategiesAgree: over three random documents with text and
// attributes, Auto answers every query that parses as the step-wise
// oracle does, and each forced engine does too or refuses exactly what
// its fragment test refuses.
func FuzzStrategiesAgree(f *testing.F) {
	for _, q := range xmark.Queries() {
		f.Add(q.XPath)
	}
	for _, q := range []string{
		"//b/.", "//b/self::node()", "/r/a/b/self::node()[c]", "/./r", "/.//b",
		"/a/descendant::b/self::node()[c]",
		// Over the documents' labels, one or more for each of Auto's
		// four routes, and attribute steps.
		"/a//b/c", "/a/*//b", `//a[@b and c]//d`, "//b/parent::a",
		`//a[contains(., "v")]`, "//a/@b", "//*[@c]",
		// text() and node() steps, whose #text nodes the jumping
		// cursors find by scanning label bytes: both axes, after a name
		// and after *, in predicates, and the text of attributes.
		"//text()", "/a/text()", "//b//text()", "//*/text()", "/a//node()", "//*/node()",
		"//a[text()]", "//*[.//text()]/b", "//b[not(text())]//c", "//a/@b/text()", "//*[node() and text()]",
	} {
		f.Add(q)
	}
	var engines []*core.Engine
	for seed := int64(1); seed <= 3; seed++ {
		engines = append(engines, core.New(tgen.Random(seed, tgen.Config{MaxNodes: 80, TextProb: 0.2, AttrProb: 0.2})))
	}
	f.Fuzz(func(t *testing.T, q string) {
		if len(q) > 200 {
			return
		}
		for i, e := range engines {
			if err := agree(e, q); err != nil {
				t.Fatalf("document %d, %q: %v", i+1, q, err)
			}
		}
	})
}
