package core

import (
	"testing"

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
	cs := e.CacheStats()
	if cs.Misses != 1 || cs.Hits != 3 {
		t.Errorf("ASTA hits/misses = %d/%d, want 3/1", cs.Hits, cs.Misses)
	}

	// Naive/Jumping/Memoized share the Optimized entry: the compiled
	// automaton is strategy-independent.
	if _, err := e.QueryWith("//a/b", Naive); err != nil {
		t.Fatal(err)
	}
	if cs = e.CacheStats(); cs.Hits != 4 {
		t.Errorf("hits after naive rerun = %d, want 4 (shared entry)", cs.Hits)
	}

	// TopDownDet caches its minimized automaton under a separate kind
	// (its fragment wants child steps before descendant steps).
	for i := 0; i < 2; i++ {
		if _, err := e.QueryWith("/r/a//b", TopDownDet); err != nil {
			t.Fatal(err)
		}
	}
	cs = e.CacheStats()
	if cs.Misses != 2 || cs.Hits != 5 {
		t.Errorf("after tdsta hits/misses = %d/%d, want 5/2", cs.Hits, cs.Misses)
	}
}

// TestEnginesShareCache pins the namespacing contract the service
// relies on: two engines over different documents can share one LRU
// without colliding on identical query text.
func TestEnginesShareCache(t *testing.T) {
	d1, _ := xmlparse.ParseString("<r><a><b/></a></r>")
	d2, _ := xmlparse.ParseString("<r><a><b/><b/></a></r>")
	shared := qcache.New(8)
	e1 := NewWithCache(d1, shared, "one\x00")
	e2 := NewWithCache(d2, shared, "two\x00")
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
	if cs := e.CacheStats(); cs.Hits != 0 || cs.Misses != 0 || cs.Size != 0 {
		t.Errorf("cache after three Auto runs: %+v, want untouched", cs)
	}
}
