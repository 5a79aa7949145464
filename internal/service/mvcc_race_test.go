package service

import (
	"fmt"
	"io"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obsv"
	"repro/internal/shard"
	"repro/internal/store"
	"repro/internal/xmlparse"
)

// TestMVCCChurnHammer is the mutation-era concurrency hammer: on eight
// documents of one service at once — concurrent patchers bumping
// generations (with base-gen CAS conflicts), generation GC (short
// cursor leases + the stats sweep), warm pooled one-shot and paged
// Evals, asof time-travel reads, and NDJSON streaming readers resuming
// across patches. Every observation must be clean: a successful answer
// with an internally consistent (gen, count) pair, or one of the
// expected errors (409-class patch conflicts, 410-class stale
// cursors). Run under -race (CI does); the pooled evaluation contexts
// outlive the generations churning underneath them, and every one
// checked out must come back (assertPoolSettled).
func TestMVCCChurnHammer(t *testing.T) {
	defer assertGoroutinesSettle(t, runtime.NumGoroutine())
	const docsN = 8
	// readersN stream readers and readersN asof readers run beside one
	// patcher and one paged reader per document.
	const readersN = 4
	svc := New(shard.NewStore(1), Options{CursorTTL: 50 * time.Millisecond})
	// Half the corpus is heap-backed (parsed XML), half mmap-backed
	// (XQO2 save + zero-copy open), so patches copy mapped generations
	// into the heap while readers below still read the mapping.
	const seedXML = "<r><a><b/><b/></a><a><b/><b/></a></r>"
	for i := 0; i < docsN; i++ {
		id := fmt.Sprintf("d%d", i)
		if i%2 == 0 {
			if _, err := svc.Store().LoadXML(id, []byte(seedXML)); err != nil {
				t.Fatal(err)
			}
			continue
		}
		d, err := xmlparse.Parse([]byte(seedXML))
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), id+".xqo2")
		if err := store.SaveXQO2File(path, d); err != nil {
			t.Fatal(err)
		}
		if _, err := svc.Store().LoadMapped(id, path); err != nil {
			t.Fatal(err)
		}
	}
	docID := func(i int) string { return fmt.Sprintf("d%d", i%docsN) }

	iters := 120
	if testing.Short() {
		iters = 25
	}

	// fail collects the first unexpected observation per goroutine
	// (t.Errorf is not callable after the test function returns).
	var mu sync.Mutex
	var failures []string
	fail := func(format string, args ...any) {
		mu.Lock()
		if len(failures) < 10 {
			failures = append(failures, fmt.Sprintf(format, args...))
		}
		mu.Unlock()
	}

	var wg sync.WaitGroup
	start := make(chan struct{})

	// Patchers: alternate unconditional patches with base-gen CAS
	// patches that race each other (conflicts expected and tolerated).
	for g := 0; g < docsN; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for i := 0; i < iters; i++ {
				id := docID(g)
				if i%3 == 0 {
					latest := svc.Eval(Request{Doc: id, Query: "//b", Limit: 1})
					if latest.Err != "" {
						fail("patcher probe %s: %s", id, latest.Err)
						return
					}
					_, err := svc.PatchDoc(id, PatchDocRequest{
						Op: "insert", Node: 1, XML: "<a><b/></a>", BaseGen: latest.Gen})
					if err != nil && !strings.Contains(err.Error(), "not latest") {
						fail("CAS patch %s: %v", id, err)
						return
					}
				} else {
					op := PatchDocRequest{Op: "insert", Node: 1, XML: "<a><b/></a>"}
					if i%5 == 4 {
						// Shrink occasionally so documents don't balloon:
						// replace the whole document element.
						op = PatchDocRequest{Op: "replace", Node: 1, XML: "<r><a><b/><b/></a><a><b/><b/></a></r>"}
					}
					if _, err := svc.PatchDoc(docID(g), op); err != nil {
						fail("patch %s: %v", id, err)
						return
					}
				}
			}
		}()
	}

	// Paged readers: page loops that tolerate exactly 410 mid-loop (the
	// lease is short by design) and otherwise demand pinned-generation
	// consistency: every page of one loop reports the same gen and count.
	for g := 0; g < docsN; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for i := 0; i < iters; i++ {
				id := docID(g + 1)
				first := svc.Eval(Request{Doc: id, Query: "//b", Limit: 2})
				if first.Err != "" {
					fail("first page %s: %s", id, first.Err)
					return
				}
				gen, count, cursor := first.Gen, first.Count, first.Next
				for hops := 0; cursor != "" && hops < 4; hops++ {
					page := svc.Eval(Request{Doc: id, Query: "//b", Limit: 2, Cursor: cursor})
					if page.outcome == obsv.OutcomeStaleCursor {
						break // lease expired mid-loop: legitimate 410
					}
					if page.Err != "" {
						fail("resume %s: %s", id, page.Err)
						return
					}
					if page.Gen != gen || page.Count != count {
						fail("page drifted: %s gen %d->%d count %d->%d", id, gen, page.Gen, count, page.Count)
						return
					}
					cursor = page.Next
				}
			}
		}()
	}

	// Streaming readers (header-consistency: trailer nodes must match
	// what the pinned generation promised).
	for g := 0; g < readersN; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for i := 0; i < iters; i++ {
				id := docID(g + 3)
				if pre := svc.Stream(io.Discard, Request{Doc: id, Query: "//b"}, 2); pre != nil {
					fail("stream %s refused: %s", id, pre.Err)
					return
				}
			}
		}()
	}

	// AsOf readers: grab the current gen, then keep reading it while
	// patchers move latest; 410 (gen retired) is legitimate, a changed
	// answer under the same gen is not.
	for g := 0; g < readersN; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for i := 0; i < iters; i++ {
				id := docID(g + 5)
				pin := svc.Eval(Request{Doc: id, Query: "//b"})
				if pin.Err != "" {
					fail("asof seed %s: %s", id, pin.Err)
					return
				}
				for r := 0; r < 3; r++ {
					again := svc.Eval(Request{Doc: id, Query: "//b", AsOf: pin.Gen})
					if again.outcome == obsv.OutcomeStaleCursor {
						break // generation retired underneath: legitimate
					}
					if again.Err != "" {
						fail("asof %s gen %d: %s", id, pin.Gen, again.Err)
						return
					}
					if again.Count != pin.Count {
						fail("asof drifted: %s gen %d count %d->%d", id, pin.Gen, pin.Count, again.Count)
						return
					}
				}
			}
		}()
	}

	// The janitor: stats sweeps retiring expired leases while everyone
	// else runs.
	wg.Add(1)
	go func() {
		defer wg.Done()
		<-start
		for i := 0; i < iters; i++ {
			svc.Stats()
			time.Sleep(time.Millisecond)
		}
	}()

	close(start)
	wg.Wait()

	for _, f := range failures {
		t.Error(f)
	}
	assertPoolSettled(t, svc)
	st := svc.Stats()
	if st.MVCC.Patches == 0 || st.MVCC.Retired == 0 {
		t.Errorf("hammer did not churn: %+v", st.MVCC)
	}
	// After the dust settles and leases expire, the chains must drain
	// back to (roughly) one live generation per document.
	time.Sleep(60 * time.Millisecond)
	if got := svc.Stats().MVCC; got.LiveGenerations > docsN {
		t.Errorf("generations leaked: %d live for %d documents (%+v)", got.LiveGenerations, docsN, got)
	}
}
