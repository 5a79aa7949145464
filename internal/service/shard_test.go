package service

import (
	"fmt"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/shard"
)

// idsCoveringAllShards probes synthetic ids until every shard of ss
// owns at least one, returning one id per shard (index-aligned).
func idsCoveringAllShards(t testing.TB, ss *shard.Store) []string {
	t.Helper()
	ids := make([]string, ss.NumShards())
	found := 0
	for i := 0; found < len(ids); i++ {
		if i > 100_000 {
			t.Fatal("could not cover every shard with synthetic ids")
		}
		id := fmt.Sprintf("doc-%d", i)
		if s := ss.ShardFor(id); ids[s] == "" {
			ids[s] = id
			found++
		}
	}
	return ids
}

// TestShardedServiceServesAllShards loads one document per shard of an
// 8-shard service and checks queries, eviction and reload behave
// identically on every partition.
func TestShardedServiceServesAllShards(t *testing.T) {
	ss := shard.NewStore(8)
	svc := New(ss, Options{})
	ids := idsCoveringAllShards(t, ss)
	for i, id := range ids {
		xml := fmt.Sprintf("<r><a><b>s%d</b></a><a><b/></a></r>", i)
		if _, err := svc.Store().LoadXML(id, []byte(xml)); err != nil {
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
	if len(st.Shards) != 8 {
		t.Fatalf("stats shards = %d, want 8", len(st.Shards))
	}
	for i, sh := range st.Shards {
		if sh.Shard != i {
			t.Errorf("shard %d reports index %d", i, sh.Shard)
		}
		if sh.Documents != 1 || sh.Engines != 1 {
			t.Errorf("shard %d: docs=%d engines=%d, want 1/1", i, sh.Documents, sh.Engines)
		}
		if sh.DocBytes <= 0 || sh.ResidentBytes < sh.DocBytes {
			t.Errorf("shard %d: doc_bytes=%d resident=%d", i, sh.DocBytes, sh.ResidentBytes)
		}
		if sh.Queries.Total != 1 {
			t.Errorf("shard %d served %d queries, want 1", i, sh.Queries.Total)
		}
		if sh.LockAcquires == 0 {
			t.Errorf("shard %d recorded no lock acquisitions", i)
		}
	}
	if st.Queries.Total != 8 {
		t.Errorf("aggregate total = %d, want 8", st.Queries.Total)
	}
	if len(st.Documents) != 8 {
		t.Errorf("aggregate documents = %d, want 8", len(st.Documents))
	}

	// Evicting a document touches only its own shard's cache and count.
	if !svc.EvictDoc(ids[3]) {
		t.Fatal("evict failed")
	}
	st = svc.Stats()
	if st.Shards[3].Documents != 0 {
		t.Error("evicted shard still reports a document")
	}
	for i, sh := range st.Shards {
		if i != 3 && sh.Documents != 1 {
			t.Errorf("shard %d lost a document to shard 3's eviction", i)
		}
	}
}

// TestCursorPinnedToShard: a continuation token names no shard — the
// document id routes the resume to the partition that owns it, on every
// shard of a 4-shard service. A token of the previous format, which
// named one, can only come from an earlier process and answers
// 410-stale, never a page.
func TestCursorPinnedToShard(t *testing.T) {
	ss := shard.NewStore(4)
	svc := New(ss, Options{})
	ids := idsCoveringAllShards(t, ss)
	for _, id := range ids {
		if _, err := svc.Store().GenerateXMark(id, 0.001, 1); err != nil {
			t.Fatal(err)
		}
	}
	for _, id := range ids {
		first := svc.Eval(Request{Doc: id, Query: "//keyword", Limit: 3})
		if first.Err != "" || first.Next == "" {
			t.Fatalf("%s first page: err=%q next=%q", id, first.Err, first.Next)
		}
		resumed := svc.Eval(Request{Doc: id, Query: "//keyword", Limit: 3, Cursor: first.Next})
		if resumed.Err != "" || len(resumed.Nodes) == 0 || resumed.Nodes[0] <= first.Nodes[2] {
			t.Fatalf("%s genuine resume: %+v", id, resumed)
		}
	}

	first := svc.Eval(Request{Doc: ids[1], Query: "//keyword", Limit: 3})
	cdoc, cgen, clast, err := decodeCursor(first.Next)
	if err != nil {
		t.Fatal(err)
	}
	old := rawToken("c2", "1", cdoc, cgen.String(), strconv.FormatInt(int64(clast), 10))
	resp := svc.Eval(Request{Doc: ids[1], Query: "//keyword", Limit: 3, Cursor: old})
	if !resp.staleCursor || !strings.Contains(resp.Err, "earlier process") {
		t.Fatalf("previous-format cursor must be stale (410), got %+v", resp)
	}
	if len(resp.Nodes) != 0 {
		t.Error("stale cursor must not deliver nodes")
	}

	// A v1-era (or otherwise malformed) token is a 400-class error, not
	// a crash and not a page.
	bad := svc.Eval(Request{Doc: ids[1], Query: "//keyword", Cursor: "bm90LWEtY3Vyc29y"})
	if bad.Err == "" || bad.staleCursor {
		t.Errorf("malformed cursor: %+v", bad)
	}
}

// TestPerShardCacheIsolation: compiled automata live on the owning
// shard's LRU; hits on one shard do not touch another's counters, and
// the aggregate view sums them.
func TestPerShardCacheIsolation(t *testing.T) {
	ss := shard.NewStore(4)
	svc := New(ss, Options{})
	ids := idsCoveringAllShards(t, ss)
	for _, id := range ids {
		if _, err := svc.Store().LoadXML(id, []byte("<r><a><b/></a></r>")); err != nil {
			t.Fatal(err)
		}
	}
	// Query shard 0's doc five times: one compile, four hits — all on
	// shard 0's cache.
	for i := 0; i < 5; i++ {
		if resp := svc.Eval(Request{Doc: ids[0], Query: "//a/b", Strategy: "optimized"}); resp.Err != "" {
			t.Fatal(resp.Err)
		}
	}
	st := svc.Stats()
	if hits := st.Shards[0].Cache.Hits; hits != 4 {
		t.Errorf("shard 0 cache hits = %d, want 4", hits)
	}
	for i := 1; i < 4; i++ {
		if c := st.Shards[i].Cache; c.Hits != 0 || c.Misses != 0 || c.Size != 0 {
			t.Errorf("shard %d cache touched by shard 0's queries: %+v", i, c)
		}
	}
	if st.Cache.Hits != 4 || st.Cache.Size != 1 {
		t.Errorf("aggregate cache hits=%d size=%d, want 4/1", st.Cache.Hits, st.Cache.Size)
	}
	if st.CacheHitRate <= 0 {
		t.Error("aggregate hit rate must be > 0")
	}
}

// TestStatsDoesNotStallRequests: every request takes its shard's mutex
// to find its document's selector, so a /stats or /metrics scrape may
// hold it only to copy pointers. With a snapshot parked inside a
// selector — where a scrape spends its time: a lock and an allocation
// per shape — a request on the same shard still completes.
func TestStatsDoesNotStallRequests(t *testing.T) {
	s := newTestService(t, Options{})
	if resp := s.Eval(Request{Doc: "d1", Query: "//a/b"}); resp.Err != "" {
		t.Fatal(resp.Err)
	}
	snapshot := selectorStats
	defer func() { selectorStats = snapshot }()
	parked := 0
	selectorStats = func(sel *core.Selector) core.SelectorStats {
		parked++
		done := make(chan Response, 1)
		go func() { done <- s.Eval(Request{Doc: "d1", Query: "//a/b"}) }()
		select {
		case resp := <-done:
			if resp.Err != "" {
				t.Error(resp.Err)
			}
		case <-time.After(5 * time.Second):
			t.Error("a request waited for a stats snapshot parked inside a selector")
		}
		return snapshot(sel)
	}
	st := s.Stats()
	if parked != 1 {
		t.Fatalf("snapshot visited %d selectors, want d1's", parked)
	}
	if st.Auto.Decisions != 2 || st.Shards[0].Engines != 1 {
		t.Errorf("snapshot lost the selector: decisions = %d (want 2), engines = %d (want 1)", st.Auto.Decisions, st.Shards[0].Engines)
	}
}
