package core

import (
	"fmt"
	"slices"
	"sync"
	"testing"

	"repro/internal/asta"
	"repro/internal/compile"
	"repro/internal/hybrid"
	"repro/internal/index"
	"repro/internal/qcache"
	"repro/internal/sta"
	"repro/internal/stepwise"
	"repro/internal/tree"
	"repro/internal/xmark"
	"repro/internal/xmlparse"
	"repro/internal/xpath"
)

// TestEngineCacheSkipsRecompilation pins the LRU rewiring: repeated
// queries hit the compiled-query cache instead of recompiling, for
// every strategy: one entry per query serves them all.
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

	// Auto, the hybrid run and the step-wise engine read the same entry:
	// its route, its chain and its parsed path.
	for _, s := range []Strategy{Auto, Hybrid, Stepwise} {
		if _, err := e.QueryWith("/r/a//b", s); err != nil {
			t.Fatal(err)
		}
	}
	if cs = e.cache.Stats(); cs.Misses != 2 || cs.Hits != 9 || cs.Size != 2 {
		t.Errorf("after auto, hybrid and stepwise hits/misses/size = %d/%d/%d, want 9/2/2", cs.Hits, cs.Misses, cs.Size)
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

// TestAutoOutsideBuildsNoAutomaton: a query no automaton expresses
// gets an entry like any other — its parsed path and its route to the
// step-wise engine — so it misses once and hits after, and no automaton
// is built for it.
func TestAutoOutsideBuildsNoAutomaton(t *testing.T) {
	d, err := xmlparse.ParseString("<r><b><a/></b><a/></r>")
	if err != nil {
		t.Fatal(err)
	}
	e := New(d)
	const q = "//a/parent::b"
	for i := 0; i < 3; i++ {
		ans, err := e.QueryWith(q, Auto)
		if err != nil {
			t.Fatal(err)
		}
		if ans.Strategy != Stepwise || len(ans.Nodes) != 1 {
			t.Fatalf("run %d: %v selected %v, want stepwise selecting one node", i, ans.Strategy, ans.Nodes)
		}
	}
	if cs := e.cache.Stats(); cs.Hits != 2 || cs.Misses != 1 || cs.Size != 1 {
		t.Errorf("cache after three Auto runs: %+v, want 1 miss, 2 hits and 1 entry", cs)
	}
	v, _ := e.cache.Get(e.cacheKey(q))
	if cv := v.(*compiled); cv.aut.Load() != nil || cv.det.Load() != nil || cv.chain != nil || cv.route != Stepwise {
		t.Errorf("entry holds ASTA %v, TDSTA %v, chain %v and routes to %v; want no automaton and stepwise", cv.aut.Load() != nil, cv.det.Load() != nil, cv.chain != nil, cv.route)
	}
}

// TestCompiledEntrySharedAcrossGoroutines: one compiled entry — its
// parsed path, route, hybrid chain, ASTA and TDSTA — serves every
// strategy on every document with its label table, from any number of
// goroutines at once. Goroutines run Auto and every forced strategy on
// a chain, a TDSTA, an ASTA and an outside-automata query over two
// documents that share one label table, through two engines that share
// one cache and one pool; every answer equals the step-wise oracle's,
// every refusal is the engine's own fragment test's, and the cache
// ends with one entry a query. Run it under -race.
func TestCompiledEntrySharedAcrossGoroutines(t *testing.T) {
	docs := []*tree.Document{
		xmark.Generate(xmark.Config{Scale: 0.002, Seed: 1}),
		xmark.Generate(xmark.Config{Scale: 0.002, Seed: 2}),
	}
	if docs[0].Names() != docs[1].Names() {
		t.Fatal("the two seeds do not share a label table")
	}
	cache, pool := qcache.New(qcache.DefaultCapacity), new(Pool)
	var engines []*Engine
	for _, d := range docs {
		engines = append(engines, NewShared(d, index.New(d), cache, pool))
	}
	queries := []string{
		"//listitem//keyword",          // a chain
		"/site/regions/*/item",         // the TDSTA's fragment
		"//listitem[.//keyword]//emph", // the ASTA's
		"//keyword/parent::*",          // no automaton's
	}
	checks := map[Strategy]func(*xpath.Path) error{
		Hybrid: hybrid.CheckChain, TopDownDet: compile.CheckTDSTA,
		Naive: compile.CheckASTA, Jumping: compile.CheckASTA, Memoized: compile.CheckASTA, Optimized: compile.CheckASTA,
	}
	// The oracle runs outside the engines, so the goroutines' first
	// lookups race to build each entry.
	want := make([][][]tree.NodeID, len(docs))
	for i, d := range docs {
		for _, q := range queries {
			want[i] = append(want[i], stepwise.Eval(d, mustPath(t, q), stepwise.Default()).Selected)
		}
	}
	strategies := []Strategy{Auto, Naive, Jumping, Memoized, Optimized, Hybrid, TopDownDet, Stepwise}
	const goroutines, rounds = 4, 5
	errs := make(chan error, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				for k := range len(docs) * len(queries) * len(strategies) {
					// Each goroutine walks the matrix from another start.
					k = (k + g*7) % (len(docs) * len(queries) * len(strategies))
					di, qi, s := k%len(docs), k/len(docs)%len(queries), strategies[k/len(docs)/len(queries)]
					q := queries[qi]
					ans, err := engines[di].QueryWith(q, s)
					var cerr error
					if check := checks[s]; check != nil {
						cerr = check(xpath.MustParse(q))
					}
					switch {
					case cerr != nil && (err == nil || err.Error() != cerr.Error()):
						errs <- fmt.Errorf("%s under %v: error %v, its check %v", q, s, err, cerr)
						return
					case cerr == nil && err != nil:
						errs <- fmt.Errorf("%s under %v: %v", q, s, err)
						return
					case err == nil && !slices.Equal(ans.Nodes, want[di][qi]):
						errs <- fmt.Errorf("%s under %v on document %d: %d nodes, oracle %d", q, s, di, len(ans.Nodes), len(want[di][qi]))
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if cs := cache.Stats(); cs.Size != len(queries) {
		t.Errorf("cache holds %d entries, want one per query (%d): %+v", cs.Size, len(queries), cs)
	}
	if ps := pool.Stats(); ps.GuardTrips != 0 {
		t.Errorf("guard trips %d, want 0: the documents share one table", ps.GuardTrips)
	}
}

// TestChainAutomataBuiltOnFirstForcedUse: a chain's entry is built
// with its hybrid form only. Goroutines that force optimized and
// topdown-det on one fresh such entry, while others run Auto on it,
// build its ASTA and minimal TDSTA once between them: every one of them
// gets the same two automata, every answer equals the step-wise
// oracle's, and the cache weighs the automata from then on. Run it
// under -race.
func TestChainAutomataBuiltOnFirstForcedUse(t *testing.T) {
	d := xmark.Generate(xmark.Config{Scale: 0.002, Seed: 1})
	e := New(d)
	const q = "//listitem//keyword"
	want := stepwise.Eval(d, mustPath(t, q), stepwise.Default()).Selected
	if _, err := e.QueryWith(q, Auto); err != nil {
		t.Fatal(err)
	}
	v, _ := e.cache.Get(e.cacheKey(q))
	cv := v.(*compiled)
	if cv.route != Hybrid || cv.aut.Load() != nil || cv.det.Load() != nil {
		t.Fatalf("fresh entry routes to %v with ASTA %v and TDSTA %v; want hybrid and neither", cv.route, cv.aut.Load() != nil, cv.det.Load() != nil)
	}
	before := e.cache.Stats().SizeBytes

	strategies := []Strategy{Optimized, TopDownDet, Auto}
	const goroutines, rounds = 6, 5
	type forms struct {
		aut *asta.ASTA
		det *sta.STA
	}
	seen := make([]forms, goroutines)
	errs := make(chan error, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		s := strategies[g%len(strategies)]
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				ans, err := e.QueryWith(q, s)
				if err != nil {
					errs <- fmt.Errorf("%v: %w", s, err)
					return
				}
				if (s != Auto && ans.Strategy != s) || !slices.Equal(ans.Nodes, want) {
					errs <- fmt.Errorf("%v ran %v: %d nodes, the oracle %d", s, ans.Strategy, len(ans.Nodes), len(want))
					return
				}
			}
			if s != Auto {
				aut, det := cv.automata()
				seen[g] = forms{aut, det}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	aut, det := cv.aut.Load(), cv.det.Load()
	if aut == nil || det == nil {
		t.Fatalf("after forced runs: ASTA %v, TDSTA %v; want both built", aut != nil, det != nil)
	}
	for g, f := range seen {
		if strategies[g%len(strategies)] != Auto && (f.aut != aut || f.det != det) {
			t.Errorf("goroutine %d got other automata than the entry publishes", g)
		}
	}
	if got, want := e.cache.Stats().SizeBytes, before+aut.SizeBytes()+det.SizeBytes(); got != want {
		t.Errorf("cache weighs %d B after the build, want %d (%d before, plus the automata)", got, want, before)
	}
}
