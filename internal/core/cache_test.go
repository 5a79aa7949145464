package core

import (
	"testing"

	"repro/internal/index"
	"repro/internal/qcache"
	"repro/internal/xmlparse"
)

// TestEngineCacheSkipsRecompilation pins the LRU rewiring: repeated
// queries hit the compiled-automaton cache instead of recompiling, for
// both the ASTA strategies and the deterministic top-down path.
func TestEngineCacheSkipsRecompilation(t *testing.T) {
	d, err := xmlparse.ParseString("<r><a><b/></a><a><b/></a></r>")
	if err != nil {
		t.Fatal(err)
	}
	e := New(d)
	for i := 0; i < 4; i++ {
		if _, err := e.QueryWith("//a/b", Optimized); err != nil {
			t.Fatal(err)
		}
	}
	cs := e.cache.Stats()
	if cs.Misses != 1 || cs.Hits != 3 {
		t.Errorf("ASTA hits/misses = %d/%d, want 3/1", cs.Hits, cs.Misses)
	}

	// Naive/Jumping/Memoized share the Optimized entry: the compiled
	// automaton is strategy-independent.
	if _, err := e.QueryWith("//a/b", Naive); err != nil {
		t.Fatal(err)
	}
	if cs = e.cache.Stats(); cs.Hits != 4 {
		t.Errorf("hits after naive rerun = %d, want 4 (shared entry)", cs.Hits)
	}

	// A query in the TDSTA's fragment (child steps before descendant
	// steps) compiles once for every strategy: its entry holds the ASTA
	// and the minimized TDSTA.
	for _, s := range []Strategy{TopDownDet, TopDownDet, Optimized} {
		if _, err := e.QueryWith("/r/a//b", s); err != nil {
			t.Fatal(err)
		}
	}
	cs = e.cache.Stats()
	if cs.Misses != 2 || cs.Hits != 6 || cs.Size != 2 {
		t.Errorf("after tdsta hits/misses/size = %d/%d/%d, want 6/2/2", cs.Hits, cs.Misses, cs.Size)
	}
}

// TestEnginesShareCache pins the namespacing contract the service
// relies on: two engines over different documents can share one LRU
// without colliding on identical query text.
func TestEnginesShareCache(t *testing.T) {
	d1, _ := xmlparse.ParseString("<r><a><b/></a></r>")
	d2, _ := xmlparse.ParseString("<r><a><b/><b/></a></r>")
	shared := qcache.New(8)
	e1 := NewWithIndex(d1, index.New(d1), shared, "one\x00")
	e2 := NewWithIndex(d2, index.New(d2), shared, "two\x00")
	a1, err := e1.QueryWith("//b", Optimized)
	if err != nil {
		t.Fatal(err)
	}
	a2, err := e2.QueryWith("//b", Optimized)
	if err != nil {
		t.Fatal(err)
	}
	if len(a1.Nodes) != 1 || len(a2.Nodes) != 2 {
		t.Errorf("answers = %d/%d nodes, want 1/2", len(a1.Nodes), len(a2.Nodes))
	}
	if st := shared.Stats(); st.Size != 2 || st.Misses != 2 {
		t.Errorf("shared cache stats = %+v, want two independent entries", st)
	}
}

// TestAutoOutsideCompilesNothing: a query no automaton expresses is
// routed to the step-wise engine before anything compiles, so it
// neither misses nor fills the query cache.
func TestAutoOutsideCompilesNothing(t *testing.T) {
	d, err := xmlparse.ParseString("<r><b><a/></b><a/></r>")
	if err != nil {
		t.Fatal(err)
	}
	e := New(d)
	for i := 0; i < 3; i++ {
		ans, err := e.QueryWith("//a/parent::b", Auto)
		if err != nil {
			t.Fatal(err)
		}
		if ans.Strategy != Stepwise || len(ans.Nodes) != 1 {
			t.Fatalf("run %d: %v selected %v, want stepwise selecting one node", i, ans.Strategy, ans.Nodes)
		}
	}
	if cs := e.cache.Stats(); cs.Hits != 0 || cs.Misses != 0 || cs.Size != 0 {
		t.Errorf("cache after three Auto runs: %+v, want untouched", cs)
	}
}
