package service

import (
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/shard"
)

// TestConcurrentMixedWorkload hammers one Service from many goroutines
// with a mix of single queries, batches, and document add/evict churn,
// and asserts every successful answer matches single-threaded
// evaluation. Run under -race (CI does) this is the service's
// thread-safety proof.
func TestConcurrentMixedWorkload(t *testing.T) {
	defer assertGoroutinesSettle(t, runtime.NumGoroutine())
	docXML := func(i int) []byte {
		return []byte(fmt.Sprintf(
			"<r><a><b>t%d</b></a><a><b/><b/></a><c><b/></c></r>", i))
	}
	queries := []string{"//b", "//a/b", "/r/c", "//a", "/r/a/b", "//c//b"}

	// Single-threaded ground truth on a reference service with the same
	// stable documents.
	ref := New(shard.NewStore(1), Options{Workers: 1})
	stable := []string{"s0", "s1", "s2"}
	for i, id := range stable {
		if _, err := ref.Store().LoadXML(id, docXML(i)); err != nil {
			t.Fatal(err)
		}
	}
	want := make(map[string][]int32)
	for _, id := range stable {
		for _, q := range queries {
			resp := ref.Eval(Request{Doc: id, Query: q})
			if resp.Err != "" {
				t.Fatalf("%s %s: %s", id, q, resp.Err)
			}
			nodes := make([]int32, len(resp.Nodes))
			for i, v := range resp.Nodes {
				nodes[i] = int32(v)
			}
			want[id+"|"+q] = nodes
		}
	}

	s := New(shard.NewStore(1), Options{Workers: 4, CacheSize: 8})
	for i, id := range stable {
		if _, err := s.Store().LoadXML(id, docXML(i)); err != nil {
			t.Fatal(err)
		}
	}

	check := func(resp Response) {
		if resp.Err != "" {
			t.Errorf("%s %s: %s", resp.Doc, resp.Query, resp.Err)
			return
		}
		got := make([]int32, len(resp.Nodes))
		for i, v := range resp.Nodes {
			got[i] = int32(v)
		}
		key := resp.Doc + "|" + resp.Query
		if exp := want[key]; !reflect.DeepEqual(got, exp) && !(len(got) == 0 && len(exp) == 0) {
			t.Errorf("%s: concurrent answer %v != sequential %v", key, got, exp)
		}
	}

	const goroutines = 12
	const iters = 40
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				docID := stable[(g+i)%len(stable)]
				q := queries[(g*7+i)%len(queries)]
				switch i % 4 {
				case 0: // single query through Auto
					check(s.Eval(Request{Doc: docID, Query: q}))
				case 1: // single query, forced engine (Auto routes chains
					// to hybrid, which compiles no automaton — the
					// cache-hit assertion below needs traffic that uses
					// the LRU)
					check(s.Eval(Request{Doc: docID, Query: q, Strategy: "optimized"}))
				case 2: // batch across stable docs
					reqs := make([]Request, 0, len(stable))
					for _, id := range stable {
						reqs = append(reqs, Request{Doc: id, Query: q})
					}
					for _, resp := range s.EvalBatch(reqs) {
						check(resp)
					}
				case 3: // churn a goroutine-private doc: add, query, evict
					id := fmt.Sprintf("churn-%d", g)
					if _, err := s.Store().LoadXML(id, docXML(0)); err != nil {
						t.Errorf("load %s: %v", id, err)
						continue
					}
					resp := s.Eval(Request{Doc: id, Query: "//b"})
					if resp.Err != "" {
						t.Errorf("churn query: %s", resp.Err)
					} else if resp.Count != len(want["s0|//b"]) {
						t.Errorf("churn count = %d, want %d", resp.Count, len(want["s0|//b"]))
					}
					if !s.EvictDoc(id) {
						t.Errorf("evict %s failed", id)
					}
				}
			}
		}(g)
	}
	wg.Wait()
	assertPoolSettled(t, s)

	st := s.Stats()
	if st.Queries.Errors != 0 {
		t.Errorf("errors = %d, want 0", st.Queries.Errors)
	}
	if st.Cache.Hits == 0 {
		t.Error("expected compiled-query cache hits under repetition")
	}
	if len(st.Documents) != len(stable) {
		t.Errorf("resident docs = %d, want %d (churn docs evicted)", len(st.Documents), len(stable))
	}
}

// assertGoroutinesSettle fails t unless the goroutine count is back to
// before within a second: a hammer must leave no goroutine behind. A
// finished goroutine may still be on its way out when its WaitGroup
// releases the test, hence the wait. Hammers defer it first, so it
// runs after everything else they defer.
func assertGoroutinesSettle(t *testing.T, before int) {
	t.Helper()
	after := runtime.NumGoroutine()
	for wait := time.Now().Add(time.Second); after > before && time.Now().Before(wait); after = runtime.NumGoroutine() {
		time.Sleep(time.Millisecond)
	}
	if after > before {
		t.Errorf("%d goroutines before the hammer, %d after", before, after)
	}
}
