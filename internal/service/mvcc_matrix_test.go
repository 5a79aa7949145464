package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/shard"
	"repro/internal/store"
)

// The cursor-pinning matrix: a continuation token pins an MVCC
// generation, so resuming must succeed (200) — against the pinned
// tree, not the latest — for every event that leaves the pinned
// generation alive, and fail with 410 exactly when the generation is
// gone. Both delivery modes (paged Eval, NDJSON stream) are driven
// through all four scenarios:
//
//	                      paged  streamed
//	patch same document    200     200    (serves the old generation)
//	patch other document   200     200
//	GC of pinned gen       410     410    (lease expired + swept)
//	daemon restart         410     410    (entropy-seeded generations)

const matrixXML = "<r><a><b/><b/></a><a><b/><b/></a><a><b/><b/></a></r>"

// matrixService builds a 1-shard service with documents d1 and d2.
func matrixService(t *testing.T, ttl time.Duration) *Service {
	t.Helper()
	svc := New(shard.NewStore(1), Options{CursorTTL: ttl})
	for _, id := range []string{"d1", "d2"} {
		if _, err := svc.Store().LoadXML(id, []byte(matrixXML)); err != nil {
			t.Fatal(err)
		}
	}
	return svc
}

// grow patches doc by appending one more <a><b/><b/></a> subtree under
// the document element, bumping the generation.
func grow(t *testing.T, svc *Service, doc string) {
	t.Helper()
	if _, err := svc.PatchDoc(doc, PatchDocRequest{Op: "insert", Node: 1, XML: "<a><b/><b/></a>"}); err != nil {
		t.Fatalf("patch %s: %v", doc, err)
	}
}

// pagedToken returns the first page (2 of 6 //b nodes) and its token.
func pagedToken(t *testing.T, svc *Service) Response {
	t.Helper()
	resp := svc.Eval(Request{Doc: "d1", Query: "//b", Limit: 2})
	if resp.Err != "" || resp.Next == "" || resp.Count != 6 {
		t.Fatalf("first page: err=%q next=%q count=%d", resp.Err, resp.Next, resp.Count)
	}
	return resp
}

// runStream drives one NDJSON stream; pre is non-nil when the stream
// was refused before the header.
func runStream(t *testing.T, svc *Service, req Request) (StreamHeader, []StreamChunk, StreamTrailer, *Response) {
	t.Helper()
	var buf bytes.Buffer
	pre := svc.Stream(&buf, req, 2)
	var header StreamHeader
	var chunks []StreamChunk
	var trailer StreamTrailer
	if pre != nil {
		return header, chunks, trailer, pre
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if err := json.Unmarshal([]byte(lines[0]), &header); err != nil {
		t.Fatalf("header: %v", err)
	}
	for _, l := range lines[1 : len(lines)-1] {
		var c StreamChunk
		if err := json.Unmarshal([]byte(l), &c); err != nil {
			t.Fatalf("chunk: %v", err)
		}
		chunks = append(chunks, c)
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &trailer); err != nil {
		t.Fatalf("trailer: %v", err)
	}
	return header, chunks, trailer, nil
}

// streamToken returns a mid-answer stream token and the stream's
// pinned generation.
func streamToken(t *testing.T, svc *Service) (string, store.Gen) {
	t.Helper()
	header, _, trailer, pre := runStream(t, svc, Request{Doc: "d1", Query: "//b", Limit: 2})
	if pre != nil {
		t.Fatalf("seed stream refused: %+v", pre)
	}
	if trailer.Cursor == "" || header.Count != 6 {
		t.Fatalf("seed stream: cursor=%q count=%d", trailer.Cursor, header.Count)
	}
	return trailer.Cursor, header.Gen
}

func TestCursorPinningMatrixPaged(t *testing.T) {
	t.Run("patch-same-doc", func(t *testing.T) {
		svc := matrixService(t, time.Hour)
		first := pagedToken(t, svc)
		grow(t, svc, "d1")
		// Latest moved on (8 //b nodes now) but the token's generation
		// still serves the old tree: exactly the 4 remaining nodes.
		rest := svc.Eval(Request{Doc: "d1", Query: "//b", Cursor: first.Next})
		if rest.Err != "" || statusFor(rest) != 200 {
			t.Fatalf("resume after same-doc patch: err=%q status=%d", rest.Err, statusFor(rest))
		}
		if rest.Gen != first.Gen || rest.Count != 6 || len(rest.Nodes) != 4 {
			t.Fatalf("resume served gen=%d count=%d nodes=%d, want pinned gen=%d count=6 nodes=4",
				rest.Gen, rest.Count, len(rest.Nodes), first.Gen)
		}
		// The latest generation answers the patched tree.
		if latest := svc.Eval(Request{Doc: "d1", Query: "//b"}); latest.Count != 8 || latest.Gen == first.Gen {
			t.Fatalf("latest: count=%d gen=%d (pinned %d), want 8 on a new generation", latest.Count, latest.Gen, first.Gen)
		}
	})
	t.Run("patch-other-doc", func(t *testing.T) {
		svc := matrixService(t, time.Hour)
		first := pagedToken(t, svc)
		grow(t, svc, "d2")
		rest := svc.Eval(Request{Doc: "d1", Query: "//b", Cursor: first.Next})
		if rest.Err != "" || statusFor(rest) != 200 || len(rest.Nodes) != 4 {
			t.Fatalf("resume after other-doc patch: err=%q status=%d nodes=%d", rest.Err, statusFor(rest), len(rest.Nodes))
		}
	})
	t.Run("gc-of-pinned-gen", func(t *testing.T) {
		svc := matrixService(t, 20*time.Millisecond)
		first := pagedToken(t, svc)
		grow(t, svc, "d1")
		time.Sleep(40 * time.Millisecond)
		svc.Stats() // the stats sweep is the lease janitor
		rest := svc.Eval(Request{Doc: "d1", Query: "//b", Cursor: first.Next})
		if statusFor(rest) != 410 || !strings.Contains(rest.Err, "stale cursor") {
			t.Fatalf("resume after GC: status=%d err=%q, want 410 stale cursor", statusFor(rest), rest.Err)
		}
	})
	t.Run("daemon-restart", func(t *testing.T) {
		svc := matrixService(t, time.Hour)
		first := pagedToken(t, svc)
		svc2 := matrixService(t, time.Hour) // same corpus, fresh process state
		rest := svc2.Eval(Request{Doc: "d1", Query: "//b", Cursor: first.Next})
		if statusFor(rest) != 410 || !strings.Contains(rest.Err, "stale cursor") {
			t.Fatalf("resume after restart: status=%d err=%q, want 410 stale cursor", statusFor(rest), rest.Err)
		}
	})
}

// countNodes totals the nodes of a stream's chunk lines.
func countNodes(chunks []StreamChunk) int {
	n := 0
	for _, c := range chunks {
		n += len(c.Nodes)
	}
	return n
}

func TestCursorPinningMatrixStreamed(t *testing.T) {
	t.Run("patch-same-doc", func(t *testing.T) {
		svc := matrixService(t, time.Hour)
		tok, gen := streamToken(t, svc)
		grow(t, svc, "d1")
		header, chunks, trailer, pre := runStream(t, svc, Request{Doc: "d1", Query: "//b", Cursor: tok})
		if pre != nil {
			t.Fatalf("resume after same-doc patch refused: %+v (status %d)", pre, statusFor(*pre))
		}
		if header.Gen != gen || header.Count != 6 || countNodes(chunks) != 4 || !trailer.Done {
			t.Fatalf("resume served gen=%d count=%d nodes=%d done=%v, want pinned gen=%d count=6 nodes=4",
				header.Gen, header.Count, countNodes(chunks), trailer.Done, gen)
		}
	})
	t.Run("patch-other-doc", func(t *testing.T) {
		svc := matrixService(t, time.Hour)
		tok, _ := streamToken(t, svc)
		grow(t, svc, "d2")
		_, chunks, trailer, pre := runStream(t, svc, Request{Doc: "d1", Query: "//b", Cursor: tok})
		if pre != nil || countNodes(chunks) != 4 || !trailer.Done {
			t.Fatalf("resume after other-doc patch: pre=%+v nodes=%d", pre, countNodes(chunks))
		}
	})
	t.Run("gc-of-pinned-gen", func(t *testing.T) {
		svc := matrixService(t, 20*time.Millisecond)
		tok, _ := streamToken(t, svc)
		grow(t, svc, "d1")
		time.Sleep(40 * time.Millisecond)
		svc.Stats()
		_, _, _, pre := runStream(t, svc, Request{Doc: "d1", Query: "//b", Cursor: tok})
		if pre == nil || statusFor(*pre) != 410 || !strings.Contains(pre.Err, "stale cursor") {
			t.Fatalf("resume after GC: pre=%+v, want 410 stale cursor", pre)
		}
	})
	t.Run("daemon-restart", func(t *testing.T) {
		svc := matrixService(t, time.Hour)
		tok, _ := streamToken(t, svc)
		svc2 := matrixService(t, time.Hour)
		_, _, _, pre := runStream(t, svc2, Request{Doc: "d1", Query: "//b", Cursor: tok})
		if pre == nil || statusFor(*pre) != 410 || !strings.Contains(pre.Err, "stale cursor") {
			t.Fatalf("resume after restart: pre=%+v, want 410 stale cursor", pre)
		}
	})
}

// TestAsOfTimeTravel pins the explicit time-travel path: a query with
// AsOf set reads the pinned generation while it lives (kept here by an
// open cursor lease), disagreeing AsOf+cursor is a client error, and a
// retired generation answers 410.
func TestAsOfTimeTravel(t *testing.T) {
	svc := matrixService(t, time.Hour)
	first := pagedToken(t, svc) // holds a lease on gen 1
	grow(t, svc, "d1")

	old := svc.Eval(Request{Doc: "d1", Query: "//b", AsOf: first.Gen})
	if old.Err != "" || old.Count != 6 || old.Gen != first.Gen {
		t.Fatalf("asof old gen: err=%q count=%d gen=%d", old.Err, old.Count, old.Gen)
	}
	latest := svc.Eval(Request{Doc: "d1", Query: "//b"})
	if latest.Count != 8 {
		t.Fatalf("latest count = %d, want 8", latest.Count)
	}
	// asof the latest generation works too.
	if byGen := svc.Eval(Request{Doc: "d1", Query: "//b", AsOf: latest.Gen}); byGen.Count != 8 {
		t.Fatalf("asof latest: count = %d, want 8", byGen.Count)
	}
	// Cursor and asof must agree.
	conflict := svc.Eval(Request{Doc: "d1", Query: "//b", Cursor: first.Next, AsOf: latest.Gen})
	if statusFor(conflict) != 400 || !strings.Contains(conflict.Err, "asof") {
		t.Fatalf("cursor/asof disagreement: status=%d err=%q, want 400", statusFor(conflict), conflict.Err)
	}
	// A never-existing generation is gone (410), with asof phrasing.
	gone := svc.Eval(Request{Doc: "d1", Query: "//b", AsOf: genAfter(t, first.Gen, 1000)})
	if statusFor(gone) != 410 {
		t.Fatalf("asof unknown gen: status=%d err=%q, want 410", statusFor(gone), gone.Err)
	}
	// Unknown document: 404 regardless of asof.
	if miss := svc.Eval(Request{Doc: "nope", Query: "//b", AsOf: genOf(t, 3)}); statusFor(miss) != 404 {
		t.Fatalf("asof missing doc: status=%d", statusFor(miss))
	}
}

// patchOnWrite is a stream sink that patches a document the first time
// a chunk line reaches it — after evaluation, before the trailer's
// cursor is issued.
type patchOnWrite struct {
	bytes.Buffer
	writes int
	patch  func()
}

func (w *patchOnWrite) Write(p []byte) (int, error) {
	if w.writes++; w.writes == 2 { // line 1 is the header, line 2 the first chunk
		w.patch()
	}
	return w.Buffer.Write(p)
}

// TestTokenIssuedAcrossPatchResumes is the stale-on-issue regression: a
// PATCH that lands between a request's evaluation and the moment its
// continuation token is issued used to retire the generation the token
// names (nothing held it yet, and the failed lease was ignored), so the
// very next resume answered 410. The request now holds a store pin from
// handle lookup until the token's lease is placed; every issued token
// must resume 200 within its TTL, paged and streamed, and the pin must
// not outlive the request.
func TestTokenIssuedAcrossPatchResumes(t *testing.T) {
	t.Run("paged", func(t *testing.T) {
		svc := matrixService(t, time.Hour)
		// Eval, opened up at its one interleaving point: prepare has
		// evaluated against the latest generation and pinned it.
		req := Request{Doc: "d1", Query: "//b", Limit: 2}
		var st evalState
		if !svc.prepare(&st, req) {
			t.Fatalf("prepare: %s", st.resp.Err)
		}
		defer st.cur.Close()
		grow(t, svc, "d1")
		for st.sent < req.Limit {
			v, ok := st.cur.Next()
			if !ok {
				t.Fatal("answer shorter than the page")
			}
			st.sent, st.last = st.sent+1, v
		}
		svc.deliver(&st, &req)
		if st.resp.Next == "" {
			t.Fatal("cut page issued no token")
		}
		rest := svc.Eval(Request{Doc: "d1", Query: "//b", Cursor: st.resp.Next})
		if statusFor(rest) != 200 || rest.Gen != st.resp.Gen || len(rest.Nodes) != 4 {
			t.Fatalf("resume of a token issued across a patch: status=%d err=%q gen=%d nodes=%d, want 200 on gen %d with 4 nodes",
				statusFor(rest), rest.Err, rest.Gen, len(rest.Nodes), st.resp.Gen)
		}
		assertNoPinsLeft(t, svc)
	})
	t.Run("streamed", func(t *testing.T) {
		svc := matrixService(t, time.Hour)
		sink := &patchOnWrite{patch: func() { grow(t, svc, "d1") }}
		if pre := svc.Stream(sink, Request{Doc: "d1", Query: "//b", Limit: 2}, 2); pre != nil {
			t.Fatalf("stream refused: %+v", pre)
		}
		lines := strings.Split(strings.TrimRight(sink.String(), "\n"), "\n")
		var trailer StreamTrailer
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &trailer); err != nil || trailer.Cursor == "" {
			t.Fatalf("trailer %q: err=%v, want a cursor", lines[len(lines)-1], err)
		}
		_, chunks, _, pre := runStream(t, svc, Request{Doc: "d1", Query: "//b", Cursor: trailer.Cursor})
		if pre != nil {
			t.Fatalf("resume of a trailer cursor issued across a patch refused: %+v (status %d)", pre, statusFor(*pre))
		}
		if n := countNodes(chunks); n != 4 {
			t.Fatalf("resumed stream delivered %d nodes, want the 4 remaining of the pinned generation", n)
		}
		assertNoPinsLeft(t, svc)
	})
	t.Run("failed-request-drops-its-pin", func(t *testing.T) {
		svc := matrixService(t, time.Hour)
		if resp := svc.Eval(Request{Doc: "d1", Query: "//b["}); resp.Err == "" {
			t.Fatal("malformed query accepted")
		}
		var sink failingWriter
		svc.Stream(&sink, Request{Doc: "d1", Query: "//b"}, 2) // client gone at the header
		grow(t, svc, "d1")
		assertNoPinsLeft(t, svc)
	})
}

// failingWriter refuses every write (a client that is already gone).
type failingWriter struct{}

func (failingWriter) Write([]byte) (int, error) { return 0, errors.New("client gone") }

// assertNoPinsLeft: with every token consumed (or never issued), only
// the two latest generations may be live — a leaked pin or lease would
// keep a patched-away generation in its chain.
func assertNoPinsLeft(t *testing.T, svc *Service) {
	t.Helper()
	if mv := svc.Stats().MVCC; mv.LiveGenerations != 2 || mv.PinnedGenerations != 0 {
		t.Errorf("live=%d pinned=%d generations, want 2 and 0 (a pin or lease leaked)", mv.LiveGenerations, mv.PinnedGenerations)
	}
}
