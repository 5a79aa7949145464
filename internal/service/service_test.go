package service

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/shard"
	"repro/internal/xmark"
)

func newTestService(t *testing.T, opts Options) *Service {
	t.Helper()
	s := New(shard.NewStore(1), opts)
	if _, err := s.Store().LoadXML("d1",
		[]byte("<r><a><b>x</b></a><a><b/><b/></a><c/></r>")); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestEvalBasics(t *testing.T) {
	s := newTestService(t, Options{})
	resp := s.Eval(Request{Doc: "d1", Query: "//a/b"})
	if resp.Err != "" {
		t.Fatalf("err: %s", resp.Err)
	}
	if resp.Count != 3 || len(resp.Nodes) != 3 {
		t.Errorf("count = %d nodes = %d, want 3", resp.Count, len(resp.Nodes))
	}
	if resp.Strategy == "" || resp.Strategy == "auto" {
		t.Errorf("strategy = %q, want the concrete engine that ran", resp.Strategy)
	}

	limited := s.Eval(Request{Doc: "d1", Query: "//a/b", Limit: 2, Paths: true})
	if limited.Count != 3 || len(limited.Nodes) != 2 || len(limited.Paths) != 2 {
		t.Errorf("limit: count=%d nodes=%d paths=%d, want 3/2/2",
			limited.Count, len(limited.Nodes), len(limited.Paths))
	}
	if limited.Paths[0] != "/r/a/b" {
		t.Errorf("path = %q, want /r/a/b", limited.Paths[0])
	}
}

func TestEvalErrors(t *testing.T) {
	s := newTestService(t, Options{})
	if resp := s.Eval(Request{Doc: "nope", Query: "//a"}); resp.Err == "" {
		t.Error("unknown doc must error")
	}
	if resp := s.Eval(Request{Doc: "d1", Query: "//a", Strategy: "warp"}); resp.Err == "" {
		t.Error("unknown strategy must error")
	}
	if resp := s.Eval(Request{Doc: "d1", Query: "///"}); resp.Err == "" {
		t.Error("bad query must error")
	}
	st := s.Stats()
	if st.Queries.Errors != 3 {
		t.Errorf("error counter = %d, want 3", st.Queries.Errors)
	}
}

func TestRepeatedQuerySkipsRecompilation(t *testing.T) {
	s := newTestService(t, Options{})
	first := s.Stats().Cache
	if first.Hits != 0 {
		t.Fatalf("fresh cache has hits: %+v", first)
	}
	for i := 0; i < 5; i++ {
		if resp := s.Eval(Request{Doc: "d1", Query: "//a/b", Strategy: "optimized"}); resp.Err != "" {
			t.Fatal(resp.Err)
		}
	}
	cs := s.Stats().Cache
	// First evaluation compiles (one miss); the other four hit the LRU.
	if cs.Misses != 1 || cs.Hits != 4 {
		t.Errorf("hits/misses = %d/%d, want 4/1 (recompilation skipped)", cs.Hits, cs.Misses)
	}
	if cs.Size != 1 {
		t.Errorf("cache size = %d, want 1", cs.Size)
	}
}

// TestCacheKeyedPerDocument: d2 lacks d1's c, so it has a label table
// of its own, and the query compiles once for each.
func TestCacheKeyedPerDocument(t *testing.T) {
	s := newTestService(t, Options{})
	if _, err := s.Store().LoadXML("d2", []byte("<r><a><b/></a></r>")); err != nil {
		t.Fatal(err)
	}
	s.Eval(Request{Doc: "d1", Query: "//a/b", Strategy: "optimized"})
	s.Eval(Request{Doc: "d2", Query: "//a/b", Strategy: "optimized"})
	if cs := s.Stats().Cache; cs.Size != 2 || cs.Misses != 2 {
		t.Errorf("same query on two docs must compile per doc: %+v", cs)
	}
}

// TestEvictedDocAutomataLeaveByLRU: evicting a document sweeps nothing
// out of the compiled-query cache. Its automata are keyed by its label
// table, which only a document with the same names can share; when none
// comes they go cold, and the LRU pushes them out — warm contexts
// included — as soon as live queries need the room.
func TestEvictedDocAutomataLeaveByLRU(t *testing.T) {
	s := newTestService(t, Options{CacheSize: 2})
	s.Eval(Request{Doc: "d1", Query: "//a/b", Strategy: "optimized"})
	s.Eval(Request{Doc: "d1", Query: "//c", Strategy: "optimized"})
	if st := s.Stats(); st.Cache.Size != 2 || st.Pool.Resident != 2 {
		t.Fatalf("cache size = %d, pooled contexts = %d, want 2 and 2", st.Cache.Size, st.Pool.Resident)
	}
	if !s.EvictDoc("d1") {
		t.Fatal("evict failed")
	}
	if resp := s.Eval(Request{Doc: "d1", Query: "//a"}); resp.Err == "" {
		t.Error("evicted doc must not answer")
	}
	if s.EvictDoc("d1") {
		t.Error("double evict = true")
	}

	// The same id, reloaded with a name more, compiles its queries afresh
	// and pushes the dead table's entries out.
	if _, err := s.Store().LoadXML("d1", []byte("<r><a><b/></a><c/><d/></r>")); err != nil {
		t.Fatal(err)
	}
	s.Eval(Request{Doc: "d1", Query: "//a/b", Strategy: "optimized"})
	s.Eval(Request{Doc: "d1", Query: "//c", Strategy: "optimized"})
	st := s.Stats()
	if st.Cache.Misses != 4 || st.Cache.Evictions != 2 || st.Cache.Size != 2 {
		t.Errorf("after reload: %+v, want 4 misses, 2 evictions, size 2", st.Cache)
	}
	if st.Pool.Resident != 2 || st.Pool.Drops != 2 {
		t.Errorf("after reload: %+v, want the 2 dead contexts dropped and 2 live ones parked", st.Pool)
	}
}

func TestReloadedDocGetsFreshCacheNamespace(t *testing.T) {
	// An id evicted and reloaded with different content must never be
	// answered from automata compiled for other names: a reload with
	// other names has a label table of its own, and the table's id is in
	// the cache key, so the old entries cannot be hit — nor overwritten by
	// a compile that was in flight across the eviction. A reload with the
	// names of a resident document shares that document's table, and the
	// automata compiled under it, which are a function of the names and
	// the query, not of the tree: it is answered warm, and right.
	s := New(shard.NewStore(1), Options{})
	for _, id := range []string{"keep", "d"} {
		if _, err := s.Store().LoadXML(id, []byte("<r><a><b/></a></r>")); err != nil {
			t.Fatal(err)
		}
	}
	if resp := s.Eval(Request{Doc: "d", Query: "//b", Strategy: "optimized"}); resp.Count != 1 {
		t.Fatalf("old doc count = %d, want 1", resp.Count)
	}
	for _, reload := range []struct {
		xml           string
		count, misses int
	}{
		{"<r><a><b/><b/><b/></a></r>", 3, 1}, // keep's names: its table
		{"<r><a><b/><b/></a><x/></r>", 2, 2}, // a name more: a table of its own
	} {
		if !s.EvictDoc("d") {
			t.Fatal("evict failed")
		}
		if _, err := s.Store().LoadXML("d", []byte(reload.xml)); err != nil {
			t.Fatal(err)
		}
		resp := s.Eval(Request{Doc: "d", Query: "//b", Strategy: "optimized"})
		if resp.Err != "" {
			t.Fatal(resp.Err)
		}
		if resp.Count != reload.count {
			t.Errorf("%s: reloaded doc count = %d, want %d (stale automaton served?)", reload.xml, resp.Count, reload.count)
		}
		if cs := s.Stats().Cache; cs.Misses != uint64(reload.misses) {
			t.Errorf("%s: misses = %d, want %d (one per label table)", reload.xml, cs.Misses, reload.misses)
		}
	}
}

func TestStoreBypassReloadRebuildsEngine(t *testing.T) {
	// Evict/reload done directly on the exposed Store() (bypassing
	// Service.EvictDoc) must not leave anything serving the old tree: an
	// engine is built from the handle of every request.
	s := New(shard.NewStore(1), Options{})
	if _, err := s.Store().LoadXML("d", []byte("<r><a><b/></a></r>")); err != nil {
		t.Fatal(err)
	}
	if resp := s.Eval(Request{Doc: "d", Query: "//b"}); resp.Count != 1 {
		t.Fatalf("old doc count = %d, want 1", resp.Count)
	}
	if !s.Store().Evict("d") {
		t.Fatal("store evict failed")
	}
	if resp := s.Eval(Request{Doc: "d", Query: "//b"}); resp.Err == "" {
		t.Error("evicted doc must not answer even with a cached engine")
	}
	if _, err := s.Store().LoadXML("d", []byte("<r><b/><b/><b/><b/></r>")); err != nil {
		t.Fatal(err)
	}
	if resp := s.Eval(Request{Doc: "d", Query: "//b"}); resp.Count != 4 {
		t.Errorf("reloaded doc count = %d, want 4 (stale engine served?)", resp.Count)
	}
}

func TestNulDocIDRejected(t *testing.T) {
	s := New(shard.NewStore(1), Options{})
	if _, err := s.Store().LoadXML("a\x00b", []byte("<r/>")); err == nil {
		t.Error("NUL in doc id must be rejected (it is the cursor-token field delimiter)")
	}
}

func TestEvalBatchOrderAndResults(t *testing.T) {
	s := New(shard.NewStore(1), Options{Workers: 4})
	if _, err := s.Store().GenerateXMark("xm", 0.002, 1); err != nil {
		t.Fatal(err)
	}
	var reqs []Request
	for _, q := range xmark.Queries() {
		reqs = append(reqs, Request{Doc: "xm", Query: q.XPath})
	}
	// Sequential ground truth.
	want := make([]Response, len(reqs))
	for i, r := range reqs {
		want[i] = s.Eval(r)
	}
	got := s.EvalBatch(reqs)
	if len(got) != len(want) {
		t.Fatalf("len = %d, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i].Err != "" {
			t.Errorf("req %d (%s): %s", i, reqs[i].Query, got[i].Err)
			continue
		}
		if got[i].Doc != want[i].Doc || got[i].Query != want[i].Query {
			t.Errorf("req %d answered out of order: got (%s,%s)", i, got[i].Doc, got[i].Query)
		}
		if !reflect.DeepEqual(got[i].Nodes, want[i].Nodes) {
			t.Errorf("req %d (%s): batch answer differs from sequential", i, reqs[i].Query)
		}
	}
	if s.EvalBatch(nil) == nil {
		t.Error("empty batch must return empty non-error slice")
	}
}

func TestStatsHistogramAndStrategies(t *testing.T) {
	s := newTestService(t, Options{})
	queries := []string{"//a", "//b", "//c", "/r/a", "/r/a/b", "/r/c", "//a/b"}
	for _, q := range queries {
		if resp := s.Eval(Request{Doc: "d1", Query: q}); resp.Err != "" {
			t.Fatalf("%s: %s", q, resp.Err)
		}
	}
	qs := s.Stats().Queries
	if qs.Total != 7 {
		t.Fatalf("total = %d, want 7", qs.Total)
	}
	var inBuckets uint64
	for _, b := range qs.Latency {
		inBuckets += b.Count
	}
	if inBuckets != 7 {
		t.Errorf("histogram counts sum to %d, want 7", inBuckets)
	}
	var byStrat uint64
	for _, c := range qs.ByStrategy {
		byStrat += c
	}
	if byStrat != 7 {
		t.Errorf("by-strategy counts sum to %d, want 7", byStrat)
	}
	if qs.VisitedNodes == 0 || qs.SelectedNodes == 0 {
		t.Errorf("visited/selected = %d/%d, want > 0", qs.VisitedNodes, qs.SelectedNodes)
	}
}

func TestStatsSelectorTable(t *testing.T) {
	s := newTestService(t, Options{})
	// Auto's route and its reason reach the response, the explain
	// profile and the flight recorder; /stats keeps only the zero
	// exploration rate cmd/xpqbench reads.
	for _, tc := range []struct{ query, strategy, reason string }{
		{"//a/b", "hybrid", core.ReasonChain},
		{"/r/nosuch/x", "hybrid", core.ReasonChain},
		{"/r/*/b", "topdown-det", core.ReasonTDSTA},
		{"//a[b]", "optimized", core.ReasonASTA},
		{"//b/parent::a", "stepwise", core.ReasonOutside},
	} {
		resp := s.Eval(Request{Doc: "d1", Query: tc.query, Explain: true})
		if resp.Err != "" {
			t.Fatal(resp.Err)
		}
		if resp.Strategy != tc.strategy || resp.Explain == nil || resp.Explain.Counters.AutoReason != tc.reason || resp.Explain.Counters.AutoShape == "" {
			t.Errorf("%s: strategy %q, explain %+v, want %s for reason %s with a shape", tc.query, resp.Strategy, resp.Explain, tc.strategy, tc.reason)
		}
		if rec := s.Flight().Snapshot(1, false).Records[0]; rec.Query != tc.query || rec.AutoReason != tc.reason {
			t.Errorf("%s: flight record %q with reason %q, want reason %q", tc.query, rec.Query, rec.AutoReason, tc.reason)
		}
	}
	if st := s.Stats(); st.Auto.ExplorationRate != 0 {
		t.Errorf("exploration rate %v, want 0", st.Auto.ExplorationRate)
	}
}

// TestOnePartitionServesEveryDocument loads eight documents and checks
// that queries, the stats snapshot and eviction see all of them in the
// one store, and that the one-entry shards list repeats the totals.
func TestOnePartitionServesEveryDocument(t *testing.T) {
	svc := New(shard.NewStore(8), Options{})
	ids := make([]string, 8)
	for i := range ids {
		ids[i] = fmt.Sprintf("doc-%d", i)
		xml := fmt.Sprintf("<r><a><b>s%d</b></a><a><b/></a></r>", i)
		if _, err := svc.Store().LoadXML(ids[i], []byte(xml)); err != nil {
			t.Fatal(err)
		}
	}
	for _, id := range ids {
		resp := svc.Eval(Request{Doc: id, Query: "//a/b"})
		if resp.Err != "" || resp.Count != 2 {
			t.Fatalf("%s: count=%d err=%q", id, resp.Count, resp.Err)
		}
	}
	st := svc.Stats()
	if len(st.Documents) != 8 || st.Queries.Total != 8 {
		t.Errorf("documents=%d queries=%d, want 8/8", len(st.Documents), st.Queries.Total)
	}
	if st.DocBytes <= 0 || st.ResidentBytes < st.DocBytes {
		t.Errorf("doc_bytes=%d resident=%d", st.DocBytes, st.ResidentBytes)
	}
	if st.Cache.Capacity != DefaultCacheSize {
		t.Errorf("cache capacity = %d, want DefaultCacheSize %d", st.Cache.Capacity, DefaultCacheSize)
	}
	if sh := st.Shards[0]; sh.DocBytes != st.DocBytes || sh.LockWaitTotalNS != 0 || sh.LockAcquires != 0 {
		t.Errorf("shards[0] = %+v, want doc_bytes %d and no lock wait", sh, st.DocBytes)
	}

	if !svc.EvictDoc(ids[3]) {
		t.Fatal("evict failed")
	}
	st = svc.Stats()
	if len(st.Documents) != 7 {
		t.Errorf("after evict: documents=%d, want 7", len(st.Documents))
	}
	for _, d := range st.Documents {
		if d.ID == ids[3] {
			t.Errorf("evicted %s still listed", d.ID)
		}
	}
}
