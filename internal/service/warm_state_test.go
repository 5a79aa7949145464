package service

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/shard"
	"repro/internal/store"
	"repro/internal/tree"
)

// warmTraffic is the traffic of TestWarmStateSurvivesPatch: Auto,
// which routes the chains to the hybrid run (it compiles nothing) and
// the `*` and predicate queries to the automata, and forced strategies.
var warmTraffic = []Request{
	{Query: "//listitem//keyword"},
	{Query: "/site/regions/*/item"},
	{Query: "/site/people/person"},
	{Query: "/site//keyword", Strategy: "optimized"},
	{Query: "/site//keyword", Strategy: "memoized"},
	{Query: "/site//keyword", Strategy: "topdown-det"},
	{Query: "//listitem[.//keyword]//emph"},
	{Query: "//keyword", Strategy: "optimized", Limit: 5},
	{Query: "//zzz"},
}

// Distinct (kind, query) pairs warmTraffic compiles, and distinct
// (automaton, options) pairs it evaluates in a pooled context:
// /site/regions/*/item as TDSTA, /site//keyword as ASTA (run under two
// option sets) and as TDSTA, and two more ASTAs.
const (
	warmCompiles = 5
	warmContexts = 4
)

// vocabularyFragments graft XMark vocabulary only, like xpqbench's
// 24-patch cycle: no patch of them changes the label table.
var vocabularyFragments = []string{
	"<item><location>x</location><mailbox><mail><text><keyword>k</keyword></text></mail></mailbox></item>",
	"<listitem><text><keyword>k</keyword><emph>e</emph></text></listitem>",
	"<person><name>n</name></person>",
}

// TestWarmStateSurvivesPatch holds the keying rules to exact counts, on
// one goroutine. Compiled automata are keyed by label table
// and memo worlds by automaton, so a patch that interns no label costs
// neither a compile nor a context; a patch that does intern a label
// moves the document to a new table and recompiles exactly what is run
// again; and an evicted id, reloaded, starts cold.
func TestWarmStateSurvivesPatch(t *testing.T) {
	svc := New(shard.NewStore(1), Options{})
	if _, err := svc.Store().GenerateXMark("xm", 0.002, 1); err != nil {
		t.Fatal(err)
	}
	run := func(reqs []Request) {
		t.Helper()
		for _, r := range reqs {
			r.Doc = "xm"
			if resp := svc.Eval(r); resp.Err != "" {
				t.Fatalf("%s under %q: %s", r.Query, r.Strategy, resp.Err)
			}
		}
	}
	run(warmTraffic)
	first := svc.Stats()
	if first.Cache.Misses != warmCompiles || first.Pool.Misses != warmContexts {
		t.Fatalf("first round: %+v %+v, want %d compiles and %d contexts", first.Cache, first.Pool, warmCompiles, warmContexts)
	}

	const patches = 24
	for i := 0; i < patches; i++ {
		// Node 1 is <site>: append below it, and now and then delete what
		// an earlier patch appended, so documents do not only grow.
		req := PatchDocRequest{Op: "insert", Node: tree.NodeID(1), XML: vocabularyFragments[i%len(vocabularyFragments)]}
		if i%5 == 4 {
			h, _ := svc.Store().Get("xm")
			last := h.Doc.LastDesc(1)
			for h.Doc.Parent(last) != 1 {
				last = h.Doc.Parent(last)
			}
			req = PatchDocRequest{Op: "delete", Node: last}
		}
		if _, err := svc.PatchDoc("xm", req); err != nil {
			t.Fatalf("patch %d: %v", i, err)
		}
		run(warmTraffic)
		st := svc.Stats()
		if st.Cache.Misses != first.Cache.Misses || st.Pool.Misses != first.Pool.Misses {
			t.Fatalf("after vocabulary-only patch %d: cache misses %d -> %d, pool misses %d -> %d, want no change",
				i+1, first.Cache.Misses, st.Cache.Misses, first.Pool.Misses, st.Pool.Misses)
		}
	}
	if st := svc.Stats(); st.MVCC.Patches != patches || st.Pool.GuardTrips != 0 {
		t.Fatalf("patches = %d, guard trips = %d, want %d and 0", st.MVCC.Patches, st.Pool.GuardTrips, patches)
	}

	// A fragment with a new element: the document moves to a new label
	// table, and what is run again is compiled again — once.
	if _, err := svc.PatchDoc("xm", PatchDocRequest{Op: "insert", Node: tree.NodeID(1), XML: `<zzz q="1"><keyword/></zzz>`}); err != nil {
		t.Fatal(err)
	}
	before := svc.Stats()
	run(warmTraffic)
	run(warmTraffic)
	after := svc.Stats()
	if got := after.Cache.Misses - before.Cache.Misses; got != warmCompiles {
		t.Errorf("cache misses after the fresh-label patch grew by %d, want %d (the distinct (kind, query) pairs re-run)", got, warmCompiles)
	}
	if got := after.Pool.Misses - before.Pool.Misses; got != warmContexts {
		t.Errorf("pool misses after the fresh-label patch grew by %d, want %d (the distinct (automaton, options) pairs re-run)", got, warmContexts)
	}

	// Evict and reload under the same id: another load, another label
	// table.
	if !svc.EvictDoc("xm") {
		t.Fatal("xm was not resident")
	}
	if _, err := svc.Store().GenerateXMark("xm", 0.002, 1); err != nil {
		t.Fatal(err)
	}
	before = svc.Stats()
	run(warmTraffic)
	after = svc.Stats()
	if got := after.Cache.Misses - before.Cache.Misses; got != warmCompiles {
		t.Errorf("cache misses after reload grew by %d, want %d: every pair compiles again", got, warmCompiles)
	}
	if got := after.Pool.Misses - before.Pool.Misses; got != warmContexts {
		t.Errorf("pool misses after reload grew by %d, want %d", got, warmContexts)
	}
	assertPoolSettled(t, svc)
}

// TestRetiredGenerationCollectedWhileContextsPooled: a pooled context
// outlives the generation it last ran on, so it must not reference it.
// The finalizer of a retired generation's Document runs while the
// contexts that evaluated it are still parked.
func TestRetiredGenerationCollectedWhileContextsPooled(t *testing.T) {
	svc := New(shard.NewStore(1), Options{})
	if _, err := svc.Store().GenerateXMark("xm", 0.002, 1); err != nil {
		t.Fatal(err)
	}
	for _, q := range []string{"//listitem//keyword", "/site/regions/*/item", "//keyword"} {
		for i := 0; i < 2; i++ {
			if resp := svc.Eval(Request{Doc: "xm", Query: q, Strategy: "optimized"}); resp.Err != "" {
				t.Fatal(resp.Err)
			}
		}
	}
	collected := make(chan struct{})
	func() {
		h, err := svc.Store().Acquire("xm", store.NoGen)
		if err != nil {
			t.Fatal(err)
		}
		runtime.SetFinalizer(h.Doc, func(*tree.Document) { close(collected) })
		svc.Store().Release("xm", h.Gen, time.Time{}, false)
	}()
	// Nothing holds the first generation: the patch retires it. No query
	// runs on the new one, so the pooled contexts last ran on the old.
	if _, err := svc.PatchDoc("xm", PatchDocRequest{Op: "insert", Node: tree.NodeID(1), XML: vocabularyFragments[0]}); err != nil {
		t.Fatal(err)
	}
	deadline := time.After(10 * time.Second)
	for done := false; !done; {
		runtime.GC()
		select {
		case <-collected:
			done = true
		case <-deadline:
			t.Fatalf("the retired generation's document was never collected (mvcc %+v)", svc.Stats().MVCC)
		case <-time.After(10 * time.Millisecond):
		}
	}
	st := svc.Stats()
	if st.MVCC.Retired == 0 {
		t.Errorf("document collected but no generation retired: %+v", st.MVCC)
	}
	if st.Pool.Resident < 3 {
		t.Errorf("pool holds %d contexts, want the 3 that last ran on the collected generation", st.Pool.Resident)
	}
}
