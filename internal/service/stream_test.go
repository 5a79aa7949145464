package service

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/obsv"
	"repro/internal/shard"
	"repro/internal/tree"
)

// streamLines POSTs req to /query/stream and returns the parsed NDJSON
// lines: header, chunks, trailer.
func streamLines(t *testing.T, url string, req Request) (StreamHeader, []StreamChunk, StreamTrailer) {
	t.Helper()
	body, _ := json.Marshal(req)
	resp, err := http.Post(url+"/query/stream", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "ndjson") {
		t.Fatalf("stream content type %q", ct)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var (
		header  StreamHeader
		chunks  []StreamChunk
		trailer StreamTrailer
		line    int
	)
	for sc.Scan() {
		raw := sc.Bytes()
		switch {
		case line == 0:
			if err := json.Unmarshal(raw, &header); err != nil {
				t.Fatalf("header line: %v", err)
			}
		case bytes.Contains(raw, []byte(`"done"`)):
			if err := json.Unmarshal(raw, &trailer); err != nil {
				t.Fatalf("trailer line: %v", err)
			}
		default:
			var c StreamChunk
			if err := json.Unmarshal(raw, &c); err != nil {
				t.Fatalf("chunk line %d: %v", line, err)
			}
			chunks = append(chunks, c)
		}
		line++
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return header, chunks, trailer
}

// TestStreamEndToEnd loads an XMark document and checks that
// /query/stream delivers the exact one-shot answer as bounded NDJSON
// chunks with a well-formed header and trailer.
func TestStreamEndToEnd(t *testing.T) {
	svc := New(shard.NewStore(1), Options{})
	if _, err := svc.Store().GenerateXMark("xm", 0.004, 5); err != nil {
		t.Fatal(err)
	}
	srv := newTestHTTP(t, svc, HandlerOptions{StreamChunk: 16})

	// Strategy forced: the point is chunked delivery parity with the
	// one-shot path through the pooled ASTA engine.
	const query = "//listitem//keyword"
	one := svc.Eval(Request{Doc: "xm", Query: query, Strategy: "optimized"})
	if one.Err != "" {
		t.Fatal(one.Err)
	}
	if one.Count < 32 {
		t.Fatalf("answer too small (%d) to exercise chunking", one.Count)
	}

	header, chunks, trailer := streamLines(t, srv, Request{Doc: "xm", Query: query, Strategy: "optimized"})
	if header.Count != one.Count || header.Strategy != one.Strategy {
		t.Fatalf("header %+v vs one-shot count=%d strategy=%s", header, one.Count, one.Strategy)
	}
	var got []tree.NodeID
	for i, c := range chunks {
		if len(c.Nodes) == 0 || len(c.Nodes) > 16 {
			t.Fatalf("chunk %d has %d nodes, want 1..16", i, len(c.Nodes))
		}
		got = append(got, c.Nodes...)
	}
	if len(chunks) < 2 {
		t.Fatalf("answer of %d nodes produced %d chunks; chunking is not happening", one.Count, len(chunks))
	}
	if len(got) != len(one.Nodes) {
		t.Fatalf("streamed %d nodes, one-shot %d", len(got), len(one.Nodes))
	}
	for i := range got {
		if got[i] != one.Nodes[i] {
			t.Fatalf("node %d: streamed %d, one-shot %d", i, got[i], one.Nodes[i])
		}
	}
	if !trailer.Done || trailer.Nodes != one.Count || trailer.Chunks != len(chunks) || trailer.Cursor != "" {
		t.Fatalf("trailer %+v, want done with %d nodes in %d chunks and no cursor", trailer, one.Count, len(chunks))
	}

	stats := svc.Stats()
	if stats.Queries.Streaming.Streams == 0 || stats.Queries.Streaming.Chunks == 0 {
		t.Fatalf("streaming metrics not recorded: %+v", stats.Queries.Streaming)
	}
	// Compiled automata implement Sizer, so the shared LRU must report
	// a real byte weight.
	if stats.Cache.SizeBytes <= 0 {
		t.Fatalf("cache SizeBytes = %d, want > 0 (automata are Sizers)", stats.Cache.SizeBytes)
	}
}

// TestStreamLimitAndResume checks that a Limit-cut stream hands out a
// trailer cursor and that resuming from it streams exactly the
// remainder.
func TestStreamLimitAndResume(t *testing.T) {
	svc := New(shard.NewStore(1), Options{})
	if _, err := svc.Store().GenerateXMark("xm", 0.004, 5); err != nil {
		t.Fatal(err)
	}
	srv := newTestHTTP(t, svc, HandlerOptions{StreamChunk: 8})

	const query = "//keyword"
	one := svc.Eval(Request{Doc: "xm", Query: query})
	if one.Err != "" || one.Count < 30 {
		t.Fatalf("want a ≥30-node answer, got count=%d err=%q", one.Count, one.Err)
	}
	limit := one.Count / 2
	_, chunks, trailer := streamLines(t, srv, Request{Doc: "xm", Query: query, Limit: limit})
	if trailer.Nodes != limit || trailer.Cursor == "" {
		t.Fatalf("trailer %+v, want %d nodes and a resume cursor", trailer, limit)
	}
	var got []tree.NodeID
	for _, c := range chunks {
		got = append(got, c.Nodes...)
	}
	_, chunks2, trailer2 := streamLines(t, srv, Request{Doc: "xm", Query: query, Cursor: trailer.Cursor})
	for _, c := range chunks2 {
		got = append(got, c.Nodes...)
	}
	if trailer2.Cursor != "" {
		t.Fatalf("second stream not exhausted: %+v", trailer2)
	}
	if len(got) != len(one.Nodes) {
		t.Fatalf("resumed stream total %d nodes, one-shot %d", len(got), len(one.Nodes))
	}
	for i := range got {
		if got[i] != one.Nodes[i] {
			t.Fatalf("node %d: resumed %d, one-shot %d", i, got[i], one.Nodes[i])
		}
	}
}

// TestStreamPreflightErrors: failures before the first byte must come
// back as plain JSON errors with the right status, not broken NDJSON.
func TestStreamPreflightErrors(t *testing.T) {
	svc := New(shard.NewStore(1), Options{})
	if _, err := svc.Store().GenerateXMark("xm", 0.002, 5); err != nil {
		t.Fatal(err)
	}
	srv := newTestHTTP(t, svc, HandlerOptions{})

	post := func(req Request) (int, Response) {
		t.Helper()
		body, _ := json.Marshal(req)
		resp, err := http.Post(srv+"/query/stream", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var out Response
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, out
	}

	if code, out := post(Request{Doc: "nope", Query: "//a"}); code != http.StatusNotFound || out.Err == "" {
		t.Fatalf("unknown doc: status %d, err %q", code, out.Err)
	}
	if code, out := post(Request{Doc: "xm", Query: "//a["}); code != http.StatusBadRequest || out.Err == "" {
		t.Fatalf("parse error: status %d, err %q", code, out.Err)
	}
	if code, out := post(Request{Doc: "xm", Query: "//a", Cursor: "!!!"}); code != http.StatusBadRequest || out.Err == "" {
		t.Fatalf("bad cursor: status %d, err %q", code, out.Err)
	}
}

// TestCursorStaleAfterReload: a cursor issued against one load of a
// document must be refused (410) once the document is evicted and
// reloaded, even under the same id.
func TestCursorStaleAfterReload(t *testing.T) {
	svc := New(shard.NewStore(1), Options{})
	if _, err := svc.Store().GenerateXMark("xm", 0.002, 5); err != nil {
		t.Fatal(err)
	}
	first := svc.Eval(Request{Doc: "xm", Query: "//keyword", Limit: 3})
	if first.Err != "" || first.Next == "" {
		t.Fatalf("want a first page with a cursor, got err=%q next=%q", first.Err, first.Next)
	}

	svc.EvictDoc("xm")
	if _, err := svc.Store().GenerateXMark("xm", 0.002, 6); err != nil {
		t.Fatal(err)
	}
	resp := svc.Eval(Request{Doc: "xm", Query: "//keyword", Limit: 3, Cursor: first.Next})
	if resp.Err == "" || resp.outcome != obsv.OutcomeStaleCursor {
		t.Fatalf("stale cursor accepted: %+v", resp)
	}
	if got := statusFor(resp); got != http.StatusGone {
		t.Fatalf("stale cursor status %d, want 410", got)
	}

	// A cursor for one document must not open another.
	other := svc.Eval(Request{Doc: "xm", Query: "//keyword", Limit: 3})
	if other.Err != "" || other.Next == "" {
		t.Fatalf("fresh page: %+v", other)
	}
	cross := svc.Eval(Request{Doc: "ym", Query: "//keyword", Cursor: other.Next})
	if cross.Err == "" {
		t.Fatal("cross-document cursor accepted")
	}
}

// newTestHTTP mounts the handler for an existing service and returns
// the base URL.
func newTestHTTP(t *testing.T, svc *Service, opts HandlerOptions) string {
	t.Helper()
	srv := httptest.NewServer(NewHandler(svc, opts))
	t.Cleanup(srv.Close)
	return srv.URL
}
