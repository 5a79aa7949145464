package service

import (
	"path/filepath"
	"runtime"
	"slices"
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

// Distinct queries warmTraffic compiles, and distinct (automaton,
// options) pairs it evaluates in a pooled context: /site/regions/*/item
// (its TDSTA runs), /site//keyword (its ASTA under two option sets and
// its TDSTA, all from one entry), and two more ASTAs.
const (
	warmCompiles = 4
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
// again; and an evicted id, reloaded with the names of a resident
// document, starts warm: it shares that document's table. The other
// document, generated from another seed, holds XMark's names throughout
// and is never queried.
func TestWarmStateSurvivesPatch(t *testing.T) {
	svc := New(shard.NewStore(1), Options{})
	for seed, id := range []string{"other", "xm"} {
		if _, err := svc.Store().GenerateXMark(id, 0.002, int64(2-seed)); err != nil {
			t.Fatal(err)
		}
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

	// Evict and reload under the same id: another load, with the names of
	// the other document, and so its label table — under which the first
	// round compiled everything.
	if !svc.EvictDoc("xm") {
		t.Fatal("xm was not resident")
	}
	if _, err := svc.Store().GenerateXMark("xm", 0.002, 1); err != nil {
		t.Fatal(err)
	}
	other, _ := svc.Store().Get("other")
	if h, _ := svc.Store().Get("xm"); h.Doc.Names() != other.Doc.Names() {
		t.Fatal("the reloaded document does not share the other document's label table")
	}
	before = svc.Stats()
	run(warmTraffic)
	after = svc.Stats()
	if got := after.Cache.Misses - before.Cache.Misses; got != 0 {
		t.Errorf("cache misses after reload grew by %d, want 0: every pair is compiled under the shared table", got)
	}
	if got := after.Pool.Misses - before.Pool.Misses; got != 0 {
		t.Errorf("pool misses after reload grew by %d, want 0", got)
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

// firstOccurrence lists d's names in the order they first occur in
// preorder: the ids a table of its own would have given them.
func firstOccurrence(d *tree.Document) []string {
	var names []string
	for v := tree.NodeID(0); int(v) < d.NumNodes(); v++ {
		if name := d.LabelName(v); !slices.Contains(names, name) {
			names = append(names, name)
		}
	}
	return names
}

// TestSameNamesShareOneTable: documents with the same names share one
// label table however each was made — XMark generated from two seeds,
// whose names first occur in other orders, the XML of one parsed, the
// XQO2 file of the other opened, and the first patched with names its
// table has — and so a query compiles once for all of them: a TDSTA
// evaluated on each is one cache miss and one cache entry.
func TestSameNamesShareOneTable(t *testing.T) {
	svc := New(shard.NewStore(1), Options{})
	st := svc.Store()
	x1, err := st.GenerateXMark("x1", 0.002, 1)
	if err != nil {
		t.Fatal(err)
	}
	x2, err := st.GenerateXMark("x2", 0.002, 2)
	if err != nil {
		t.Fatal(err)
	}
	if slices.Equal(firstOccurrence(x1.Doc), firstOccurrence(x2.Doc)) {
		t.Fatal("the two seeds' names first occur in one order")
	}
	parsed, err := st.LoadXML("parsed", []byte(x1.Doc.XMLString()))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "x2.xqo2")
	if err := store.SaveXQO2File(path, x2.Doc); err != nil {
		t.Fatal(err)
	}
	mapped, err := st.LoadMapped("mapped", path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.PatchDoc("x1", PatchDocRequest{Op: "insert", Node: 1, XML: vocabularyFragments[0]}); err != nil {
		t.Fatal(err)
	}
	patched, _ := st.Get("x1")
	for name, h := range map[string]*store.Handle{"seed 2": x2, "parsed": parsed, "mapped": mapped, "patched": patched} {
		if h.Doc.Names() != x1.Doc.Names() {
			t.Errorf("%s: a label table of its own", name)
		}
	}
	for _, id := range []string{"x1", "x2", "parsed", "mapped"} {
		if resp := svc.Eval(Request{Doc: id, Query: "/site/regions/*/item", Strategy: "topdown-det"}); resp.Err != "" || resp.Count == 0 {
			t.Fatalf("%s: %d nodes, %s", id, resp.Count, resp.Err)
		}
	}
	if cs := svc.Stats().Cache; cs.Misses != 1 || cs.Size != 1 {
		t.Errorf("cache %+v, want 1 miss and 1 entry", cs)
	}
}
