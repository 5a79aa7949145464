package core_test

import (
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/stepwise"
	"repro/internal/tgen"
	"repro/internal/tree"
	"repro/internal/xmark"
)

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

func TestQueryAgainstOracle(t *testing.T) {
	queries := []string{
		"//a", "//a//b", "/a/b", "//a[b]", "//a[.//b and not(c)]//c",
		"//a[b or c]", "//*[a]",
	}
	f := func(seed int64) bool {
		d := tgen.Random(seed, tgen.Config{Labels: []string{"a", "b", "c"}, MaxNodes: 200})
		e := core.New(d)
		for _, q := range queries {
			want, err := stepwise.EvalString(d, q, stepwise.Default())
			if err != nil {
				return false
			}
			got, err := e.Query(q)
			if err != nil {
				t.Logf("%q: %v", q, err)
				return false
			}
			if !sameNodes(got.Nodes, want.Selected) {
				t.Logf("seed=%d %q: got %v want %v", seed, q, got.Nodes, want.Selected)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestAllStrategiesAgree(t *testing.T) {
	d := xmark.Generate(xmark.Config{Scale: 0.005, Seed: 1})
	e := core.New(d)
	strategies := []core.Strategy{core.Naive, core.Jumping, core.Memoized, core.Optimized, core.Stepwise}
	for _, q := range xmark.Queries() {
		var ref []tree.NodeID
		for i, s := range strategies {
			ans, err := e.QueryWith(q.XPath, s)
			if err != nil {
				t.Fatalf("%s (%v): %v", q.ID, s, err)
			}
			if i == 0 {
				ref = ans.Nodes
				continue
			}
			if !sameNodes(ans.Nodes, ref) {
				t.Errorf("%s: %v selected %d nodes, %v selected %d",
					q.ID, s, len(ans.Nodes), strategies[0], len(ref))
			}
		}
	}
}

func TestAutoPicksHybridForRareLabel(t *testing.T) {
	// Config A: 3 keywords among thousands of listitems.
	d := xmark.Fig5Configs()[0].Build(0.02)
	e := core.New(d)
	ans, err := e.Query(xmark.HybridQuery)
	if err != nil {
		t.Fatal(err)
	}
	if ans.Strategy != core.Hybrid {
		t.Errorf("Auto chose %v, want hybrid", ans.Strategy)
	}
	if len(ans.Nodes) != 4 {
		t.Errorf("selected %d, want 4", len(ans.Nodes))
	}
	// Balanced counts: the route is a function of the query, not of
	// counts, so the chain runs on hybrid here too.
	d2 := xmark.Fig5Configs()[3].Build(0.02)
	e2 := core.New(d2)
	ans2, err := e2.Query(xmark.HybridQuery)
	if err != nil {
		t.Fatal(err)
	}
	if ans2.Strategy != core.Hybrid {
		t.Errorf("Auto chose %v on config D, want hybrid", ans2.Strategy)
	}
}

func TestForcedFragmentErrors(t *testing.T) {
	d := tgen.Star("r", "c", 3)
	e := core.New(d)
	if _, err := e.QueryWith("//c[x]", core.Hybrid); err == nil {
		t.Error("Hybrid on predicate query should fail")
	}
	if _, err := e.QueryWith("//c[x]", core.TopDownDet); err == nil {
		t.Error("TopDownDet on predicate query should fail")
	}
	if _, err := e.QueryWith("//c[x]", core.Auto); err != nil {
		t.Errorf("Auto should always work: %v", err)
	}
	if _, err := e.Query("//c["); err == nil {
		t.Error("parse error not reported")
	}
}

func TestTopDownDetStrategy(t *testing.T) {
	d := xmark.Generate(xmark.Config{Scale: 0.005, Seed: 2})
	e := core.New(d)
	want, _ := e.QueryWith("/site//keyword", core.Stepwise)
	got, err := e.QueryWith("/site//keyword", core.TopDownDet)
	if err != nil {
		t.Fatal(err)
	}
	if !sameNodes(got.Nodes, want.Nodes) {
		t.Errorf("TopDownDet selected %d, stepwise %d", len(got.Nodes), len(want.Nodes))
	}
	if got.Visited >= d.NumNodes() {
		t.Errorf("TopDownDet visited everything (%d)", got.Visited)
	}
}

func TestQueryCaching(t *testing.T) {
	d := tgen.Star("r", "c", 10)
	e := core.New(d)
	a1, err := e.QueryWith("//c", core.Optimized)
	if err != nil {
		t.Fatal(err)
	}
	a2, err := e.QueryWith("//c", core.Optimized)
	if err != nil {
		t.Fatal(err)
	}
	if !sameNodes(a1.Nodes, a2.Nodes) {
		t.Error("cached compilation changed results")
	}
}

func TestStrategyString(t *testing.T) {
	for s := core.Auto; s <= core.Stepwise; s++ {
		if s.String() == "" {
			t.Errorf("empty name for %d", int(s))
		}
	}
	if core.Strategy(99).String() != "Strategy(99)" {
		t.Error("unknown strategy rendering")
	}
}

// TestAutoFallsBackForExtensions: queries with backward axes or text
// functions run step-wise under Auto (the paper's black-box handling of
// XPath 1.0 features, §6), while explicit automata strategies error.
func TestAutoFallsBackForExtensions(t *testing.T) {
	d := xmark.Generate(xmark.Config{Scale: 0.003, Seed: 2})
	e := core.New(d)
	for _, q := range []string{
		"//keyword/ancestor::listitem",
		"//keyword/..",
		`//item[contains(location, "United")]`,
	} {
		ans, err := e.QueryWith(q, core.Auto)
		if err != nil {
			t.Fatalf("%q: %v", q, err)
		}
		if ans.Strategy != core.Stepwise {
			t.Errorf("%q: strategy %v, want stepwise fallback", q, ans.Strategy)
		}
		if _, err := e.QueryWith(q, core.Optimized); err == nil {
			t.Errorf("%q: explicit automata strategy should error", q)
		}
		// Cross-check one against a forward equivalent where possible.
	}
	// //keyword/ancestor::listitem must equal //listitem[.//keyword].
	back, err := e.Query("//keyword/ancestor::listitem")
	if err != nil {
		t.Fatal(err)
	}
	fwd, err := e.Query("//listitem[ .//keyword ]")
	if err != nil {
		t.Fatal(err)
	}
	if !sameNodes(back.Nodes, fwd.Nodes) {
		t.Errorf("backward-axis query disagrees with forward rewrite: %d vs %d nodes",
			len(back.Nodes), len(fwd.Nodes))
	}
}

// TestConcurrentQueries: the engine is safe under concurrent use.
func TestConcurrentQueries(t *testing.T) {
	d := xmark.Generate(xmark.Config{Scale: 0.003, Seed: 9})
	e := core.New(d)
	queries := []string{"//listitem//keyword", "/site/regions", "//person[address]"}
	var wg sync.WaitGroup
	errs := make(chan error, 32)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				if _, err := e.Query(queries[(g+i)%len(queries)]); err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
