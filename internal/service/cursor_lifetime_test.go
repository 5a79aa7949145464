package service

import (
	"slices"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/shard"
	"repro/internal/store"
	"repro/internal/tree"
)

// TestPageOutlivesItsArena is the run-time proof of the lifetime rule on
// asta.Result.Selected: an answer is a block in its evaluation context's
// arena, the context is parked before EvalCursor returns, and the next
// evaluation of the same automaton rewinds that arena and writes another
// answer over it. What a request hands out must therefore not alias the
// arena. A page is taken, then the document is patched at its front — a
// vocabulary-only graft, so the automaton and its parked context are
// reused, while every id of the answer moves — and the query runs again:
// the first page must still read what it read, and a closed cursor must
// report exhaustion, not the new bytes.
func TestPageOutlivesItsArena(t *testing.T) {
	for _, q := range []string{"/site//keyword", "//listitem//keyword"} {
		t.Run(q, func(t *testing.T) {
			svc := New(shard.NewStore(1), Options{})
			if _, err := svc.Store().GenerateXMark("xm", 0.002, 1); err != nil {
				t.Fatal(err)
			}
			req := Request{Doc: "xm", Query: q, Strategy: "optimized", Limit: 5}
			page := svc.Eval(req)
			if page.Err != "" || len(page.Nodes) != req.Limit || page.Next == "" {
				t.Fatalf("page 1: %d nodes, next=%q, err=%q", len(page.Nodes), page.Next, page.Err)
			}
			want := slices.Clone(page.Nodes)

			// A cursor of our own over the same generation, in the context
			// page 1 parked; read a batch and close it mid-answer.
			h, err := svc.store.Acquire("xm", store.NoGen)
			if err != nil {
				t.Fatal(err)
			}
			cur, err := svc.engine(h).EvalCursor(q, core.Optimized)
			if err != nil {
				t.Fatal(err)
			}
			if !cur.Run().CtxPoolHit {
				t.Fatal("page 1 did not park its context")
			}
			total := cur.Count()
			batch := make([]tree.NodeID, req.Limit)
			cur.NextBatch(batch)
			cur.Close()
			site := h.Doc.DocumentElement()
			front := h.Doc.FirstChild(site)
			svc.store.Release("xm", h.Gen, time.Time{}, false)

			if _, err := svc.PatchDoc("xm", PatchDocRequest{Op: "insert", Node: site, Before: &front, XML: vocabularyFragments[1]}); err != nil {
				t.Fatal(err)
			}
			misses := svc.Stats().Pool.Misses
			again := svc.Eval(req)
			if again.Err != "" || svc.Stats().Pool.Misses != misses {
				t.Fatalf("second evaluation: err=%q, pool misses %d -> %d, want the parked context reused",
					again.Err, misses, svc.Stats().Pool.Misses)
			}
			if slices.Equal(again.Nodes, want) {
				t.Fatal("the patch moved no id of the first page: the arena was overwritten with what it held")
			}

			if !slices.Equal(page.Nodes, want) {
				t.Errorf("page 1 changed under a later evaluation: %v, was %v (it aliases the arena)", page.Nodes, want)
			}
			if !slices.Equal(batch, want) {
				t.Errorf("a NextBatch page changed under a later evaluation: %v, was %v", batch, want)
			}
			if v, ok := cur.Next(); ok || cur.Count() != total {
				t.Errorf("closed cursor: Next = (%d, %v), Count = %d; want exhausted and %d", v, ok, cur.Count(), total)
			}
		})
	}
}

// TestResumedPageSizedByWhatRemains: a page holds exactly the nodes it
// delivers, whether it is the first or a resumed one, cut by a limit or
// running to the end (limit 0): every page of a paged answer has
// cap(Nodes) == len(Nodes), and the pages together are the answer.
func TestResumedPageSizedByWhatRemains(t *testing.T) {
	s := newTestService(t, Options{})
	whole := s.Eval(Request{Doc: "d1", Query: "//b"})
	if whole.Err != "" || len(whole.Nodes) != 3 {
		t.Fatalf("whole answer: %d nodes, err=%q; want 3", len(whole.Nodes), whole.Err)
	}
	for _, limits := range [][]int{{2, 2}, {1, 0}, {1, 1, 1}} {
		var got []tree.NodeID
		cursor := ""
		for i, limit := range limits {
			page := s.Eval(Request{Doc: "d1", Query: "//b", Limit: limit, Cursor: cursor})
			if page.Err != "" {
				t.Fatalf("limits %v page %d: %s", limits, i, page.Err)
			}
			if cap(page.Nodes) != len(page.Nodes) {
				t.Errorf("limits %v page %d: %d nodes in %d slots", limits, i, len(page.Nodes), cap(page.Nodes))
			}
			got = append(got, page.Nodes...)
			cursor = page.Next
		}
		if cursor != "" || !slices.Equal(got, whole.Nodes) {
			t.Errorf("limits %v: pages %v, next %q; want %v and no token", limits, got, cursor, whole.Nodes)
		}
	}
}

// blockAfterHeader lets the stream header through and blocks the first
// chunk write until release is closed, closing blocked as it does.
type blockAfterHeader struct {
	writes           int
	blocked, release chan struct{}
}

func (w *blockAfterHeader) Write(p []byte) (int, error) {
	if w.writes++; w.writes == 2 {
		close(w.blocked)
		<-w.release
	}
	return len(p), nil
}

// TestStalledStreamHoldsNoContext: a stream's cursor owns its answer, so
// a reader stalled in the first chunk write holds no evaluation context
// — an Eval of the same query made meanwhile is served warm from the
// pool, not by a cold context.
func TestStalledStreamHoldsNoContext(t *testing.T) {
	s := newTestService(t, Options{})
	req := Request{Doc: "d1", Query: "//a/b", Strategy: "optimized"}
	if resp := s.Eval(req); resp.Err != "" {
		t.Fatal(resp.Err)
	}
	w := &blockAfterHeader{blocked: make(chan struct{}), release: make(chan struct{})}
	done := make(chan *Response)
	go func() { done <- s.Stream(w, req, 1) }()
	<-w.blocked
	before := s.Stats().Pool
	resp := s.Eval(req)
	after := s.Stats().Pool
	close(w.release)
	if pre := <-done; pre != nil {
		t.Fatalf("stream refused: %+v", pre)
	}
	if resp.Err != "" || resp.Count != 3 {
		t.Fatalf("eval beside the stream: count %d, err %q", resp.Count, resp.Err)
	}
	if after.Hits != before.Hits+1 || after.Misses != before.Misses {
		t.Errorf("eval beside a stalled stream: pool %+v -> %+v, want one warm checkout", before, after)
	}
	assertPoolSettled(t, s)
}
