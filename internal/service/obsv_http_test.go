package service

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obsv"
	"repro/internal/shard"
)

// The observability surface: explain profiles per strategy, the
// Prometheus exposition (names, types and label sets pinned by a
// golden list), the flight recorder, and snapshot/serving races under
// document churn.

// spanNames flattens a profile's span tree into a set.
func spanNames(spans []obsv.Span, into map[string]bool) {
	for _, s := range spans {
		into[s.Name] = true
		spanNames(s.Children, into)
	}
}

func TestExplainAllStrategies(t *testing.T) {
	s := newTestService(t, Options{})
	for _, strat := range []string{"", "auto", "naive", "jumping", "memoized", "optimized", "hybrid", "topdown-det", "stepwise"} {
		// The TDSTA fragment wants child steps before descendant steps.
		query := "//a/b"
		if strat == "topdown-det" {
			query = "/r/a/b"
		}
		resp := s.Eval(Request{Doc: "d1", Query: query, Strategy: strat, Explain: true, RequestID: "rid-" + strat})
		if resp.Err != "" {
			t.Fatalf("strategy %q: %s", strat, resp.Err)
		}
		p := resp.Explain
		if p == nil {
			t.Fatalf("strategy %q: no explain profile", strat)
		}
		if p.RequestID != "rid-"+strat {
			t.Errorf("strategy %q: profile request id %q", strat, p.RequestID)
		}
		if p.Counters.Strategy != resp.Strategy {
			t.Errorf("strategy %q: counters say %q, response says %q", strat, p.Counters.Strategy, resp.Strategy)
		}
		if p.Counters.Selected != resp.Count || p.Counters.Visited != resp.Visited {
			t.Errorf("strategy %q: counters %+v vs response count=%d visited=%d",
				strat, p.Counters, resp.Count, resp.Visited)
		}
		// Every engine reports its jumps, the TDSTA its top-most regions,
		// Lt and Rt and the hybrid run its occurrence rows and searches. The
		// flight record carries the same Work as the profile.
		rec := s.Flight().Snapshot(1, false).Records[0]
		if rec.RequestID != "rid-"+strat || rec.Work != p.Counters.Work {
			t.Errorf("strategy %q: flight record %q work %+v, profile work %+v", strat, rec.RequestID, rec.Work, p.Counters.Work)
		}
		if (strat == "topdown-det" || strat == "hybrid") && p.Counters.Jumps == 0 {
			t.Errorf("strategy %q: no jumps in %+v", strat, p.Counters)
		}
		if len(p.Spans) != 1 || p.Spans[0].Name != obsv.SpanQuery {
			t.Fatalf("strategy %q: want a single %q root span, got %+v", strat, obsv.SpanQuery, p.Spans)
		}
		names := map[string]bool{}
		spanNames(p.Spans, names)
		for _, want := range []string{obsv.SpanEngine, obsv.SpanCompile, obsv.SpanRun, obsv.SpanPage} {
			if !names[want] {
				t.Errorf("strategy %q: missing span %q in %v", strat, want, names)
			}
		}
		// The query is parsed and routed when its entry is built: on a
		// miss, and on a hit not at all.
		if miss := !p.Counters.QCacheHit; names[obsv.SpanParse] != miss || names[obsv.SpanSelect] != miss {
			t.Errorf("strategy %q: qcache hit %v, spans %v: want parse and select on a miss only", strat, p.Counters.QCacheHit, names)
		}
	}
	// Explain costs nothing when not asked for.
	if resp := s.Eval(Request{Doc: "d1", Query: "//a/b"}); resp.Explain != nil {
		t.Error("unexplained request grew a profile")
	}
	// Failed requests still profile the phases they reached.
	resp := s.Eval(Request{Doc: "d1", Query: "///", Explain: true})
	if resp.Err == "" || resp.Explain == nil {
		t.Fatalf("bad query: err=%q explain=%v, want both", resp.Err, resp.Explain)
	}
}

func TestExplainHTTPQueryAndStream(t *testing.T) {
	srv := newTestServer(t)
	mustLoad(t, srv.URL, "d1")

	// /query?explain=1 with a caller-chosen request id.
	body := strings.NewReader(`{"doc":"d1","query":"//a/b"}`)
	req, err := http.NewRequest("POST", srv.URL+"/query?explain=1", body)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Request-Id", "test-42")
	hr, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer hr.Body.Close()
	if hr.Header.Get("X-Request-Id") != "test-42" {
		t.Errorf("request id not echoed: %q", hr.Header.Get("X-Request-Id"))
	}
	var resp Response
	if err := json.NewDecoder(hr.Body).Decode(&resp); err != nil {
		t.Fatal(err)
	}
	if resp.Explain == nil || resp.Explain.RequestID != "test-42" {
		t.Fatalf("explain = %+v, want profile with request id test-42", resp.Explain)
	}

	// /query/stream?explain=1: the profile rides the trailer and
	// includes the stream span.
	hr2, err := http.Post(srv.URL+"/query/stream?explain=1", "application/json",
		strings.NewReader(`{"doc":"d1","query":"//a/b"}`))
	if err != nil {
		t.Fatal(err)
	}
	defer hr2.Body.Close()
	var trailer StreamTrailer
	sc := bufio.NewScanner(hr2.Body)
	for sc.Scan() {
		var probe struct {
			Done bool `json:"done"`
		}
		line := sc.Bytes()
		if json.Unmarshal(line, &probe) == nil && probe.Done {
			if err := json.Unmarshal(line, &trailer); err != nil {
				t.Fatal(err)
			}
		}
	}
	if trailer.Explain == nil {
		t.Fatal("stream trailer has no explain profile")
	}
	names := map[string]bool{}
	spanNames(trailer.Explain.Spans, names)
	if !names[obsv.SpanStream] {
		t.Errorf("stream profile lacks the %q span: %v", obsv.SpanStream, names)
	}
	// A generated request id must have been assigned.
	if hr2.Header.Get("X-Request-Id") == "" || trailer.Explain.RequestID == "" {
		t.Error("stream request did not get a generated request id")
	}
}

func mustLoad(t *testing.T, base, id string) {
	t.Helper()
	code := doJSON(t, "POST", base+"/docs",
		LoadRequest{ID: id, XML: "<r><a><b>x</b></a><a><b/><b/></a><c/></r>"}, nil)
	if code != http.StatusCreated {
		t.Fatalf("load: status %d", code)
	}
}

// failAfter fails every write past the first n. A non-zero stall is
// slept through at every write, so that the request outlasts any slow
// threshold below it (a sub-microsecond request records 0 µs and is
// never slow).
type failAfter struct {
	n     int
	stall time.Duration
}

func (f *failAfter) Write(p []byte) (int, error) {
	time.Sleep(f.stall)
	if f.n <= 0 {
		return 0, errors.New("client gone")
	}
	f.n--
	return len(p), nil
}

// promFamilies are the exported metric families and their types; the
// golden list is the compatibility contract of /metrics — renaming or
// retyping a family breaks dashboards, so it must break this test
// first.
var promFamilies = map[string]string{
	"xpqd_queries_total":                    "counter",
	"xpqd_query_errors_total":               "counter",
	"xpqd_visited_nodes_total":              "counter",
	"xpqd_selected_nodes_total":             "counter",
	"xpqd_queries_by_strategy_total":        "counter",
	"xpqd_query_duration_seconds":           "histogram",
	"xpqd_query_duration_max_seconds":       "gauge",
	"xpqd_streams_completed_total":          "counter",
	"xpqd_streams_aborted_total":            "counter",
	"xpqd_stream_chunks_total":              "counter",
	"xpqd_stream_nodes_total":               "counter",
	"xpqd_stream_first_byte_seconds_total":  "counter",
	"xpqd_stream_first_byte_max_seconds":    "gauge",
	"xpqd_stream_chunk_write_seconds_total": "counter",
	"xpqd_stream_chunk_write_max_seconds":   "gauge",
	"xpqd_qcache_entries":                   "gauge",
	"xpqd_qcache_capacity":                  "gauge",
	"xpqd_qcache_bytes":                     "gauge",
	"xpqd_qcache_hits_total":                "counter",
	"xpqd_qcache_misses_total":              "counter",
	"xpqd_qcache_evictions_total":           "counter",
	"xpqd_ctx_pool_hits_total":              "counter",
	"xpqd_ctx_pool_misses_total":            "counter",
	"xpqd_ctx_pool_guard_trips_total":       "counter",
	"xpqd_ctx_pool_drops_total":             "counter",
	"xpqd_ctx_pool_resident":                "gauge",
	"xpqd_ctx_pool_arena_bytes":             "gauge",
	"xpqd_doc_bytes":                        "gauge",
	"xpqd_resident_bytes":                   "gauge",
	"xpqd_mvcc_generations_live":            "gauge",
	"xpqd_mvcc_generations_pinned":          "gauge",
	"xpqd_mvcc_patches_total":               "counter",
	"xpqd_mvcc_generations_retired_total":   "counter",
	"xpqd_store_mapped_bytes":               "gauge",
	"xpqd_documents":                        "gauge",
	"xpqd_heap_alloc_objects_total":         "counter",
	"xpqd_slow_queries_total":               "counter",
	"xpqd_uptime_seconds":                   "gauge",
	"go_goroutines":                         "gauge",
	"go_heap_objects_bytes":                 "gauge",
	"go_gc_cycles_total":                    "counter",
}

var promSampleRE = regexp.MustCompile(
	`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^{}]*\})? (NaN|[+-]?Inf|[+-]?[0-9]+(\.[0-9]+)?([eE][+-]?[0-9]+)?)$`)

// promTraffic covers the series: several strategies, an error, a
// completed stream, a header-abort and a chunk-abort stream.
func promTraffic(t *testing.T, s *Service) {
	t.Helper()
	for _, strat := range []string{"", "optimized", "stepwise", "hybrid"} {
		if resp := s.Eval(Request{Doc: "d1", Query: "//a/b", Strategy: strat}); resp.Err != "" {
			t.Fatal(resp.Err)
		}
	}
	if resp := s.Eval(Request{Doc: "d1", Query: "/r/a/b", Strategy: "topdown-det"}); resp.Err != "" {
		t.Fatal(resp.Err)
	}
	s.Eval(Request{Doc: "d1", Query: "///"})
	if pre := s.Stream(io.Discard, Request{Doc: "d1", Query: "//a/b"}, 2); pre != nil {
		t.Fatalf("stream refused: %+v", pre)
	}
	s.Stream(&failAfter{n: 0}, Request{Doc: "d1", Query: "//a/b"}, 2) // header abort
	s.Stream(&failAfter{n: 1}, Request{Doc: "d1", Query: "//a/b"}, 2) // chunk abort
}

func TestPrometheusExposition(t *testing.T) {
	s := newTestService(t, Options{})
	promTraffic(t, s)

	var sb strings.Builder
	if err := s.WriteMetrics(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()

	// Parse: every line is a well-formed comment or sample; families
	// are declared before their samples; collect name -> type and the
	// label keys seen per family.
	types := map[string]string{}
	labels := map[string]map[string]bool{}
	var lastBucketCum = map[string]float64{} // labels-sans-le -> cumulative count
	for _, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		if strings.HasPrefix(line, "# TYPE ") {
			f := strings.Fields(line)
			if len(f) != 4 {
				t.Fatalf("bad TYPE line: %q", line)
			}
			types[f[2]] = f[3]
			continue
		}
		if strings.HasPrefix(line, "# HELP ") {
			continue
		}
		m := promSampleRE.FindStringSubmatch(line)
		if m == nil {
			t.Fatalf("unparseable sample line: %q", line)
		}
		name := m[1]
		family := name
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			if base := strings.TrimSuffix(name, suffix); base != name && types[base] == "histogram" {
				family = base
			}
		}
		if _, ok := types[family]; !ok {
			t.Fatalf("sample %q before its family declaration", line)
		}
		if labels[family] == nil {
			labels[family] = map[string]bool{}
		}
		if m[2] != "" {
			for _, kv := range strings.Split(strings.Trim(m[2], "{}"), ",") {
				k, _, ok := strings.Cut(kv, "=")
				if !ok {
					t.Fatalf("bad label pair %q in %q", kv, line)
				}
				labels[family][k] = true
			}
		}
		// Histogram buckets must be cumulative per label set.
		if strings.HasSuffix(name, "_bucket") && types[family] == "histogram" {
			key := regexp.MustCompile(`le="[^"]*",?`).ReplaceAllString(line[:strings.Index(line, " ")], "")
			v, _ := strconv.ParseFloat(line[strings.LastIndex(line, " ")+1:], 64)
			if v < lastBucketCum[key] {
				t.Errorf("non-cumulative histogram at %q", line)
			}
			lastBucketCum[key] = v
		}
	}

	// The golden family list: exact names and types, nothing missing,
	// nothing undeclared.
	for name, typ := range promFamilies {
		if types[name] != typ {
			t.Errorf("family %s: type %q, want %q (missing?)", name, types[name], typ)
		}
	}
	for name, typ := range types {
		if promFamilies[name] != typ {
			t.Errorf("undeclared family %s (%s) exported; add it to the golden list", name, typ)
		}
	}

	// Label-set spot checks: no family is split by shard any more.
	for family, keys := range labels {
		if keys["shard"] {
			t.Errorf("%s carries a shard label", family)
		}
	}
	if !labels["xpqd_queries_by_strategy_total"]["strategy"] {
		t.Error("xpqd_queries_by_strategy_total lacks the strategy label")
	}
	if !labels["xpqd_streams_aborted_total"]["cause"] {
		t.Error("xpqd_streams_aborted_total lacks the cause label")
	}
	for _, cause := range []string{`cause="header_write"`, `cause="chunk_write"`} {
		if !strings.Contains(text, cause) {
			t.Errorf("exposition lacks %s samples", cause)
		}
	}
	if !strings.Contains(text, `le="+Inf"`) {
		t.Error("histogram lacks the +Inf bucket")
	}

	// The abort split: 1 completed + 2 aborted streams, and the abort
	// latencies stayed out of the completed-stream aggregates.
	st := s.Stats()
	str := st.Queries.Streaming
	if str.Completed != 1 || str.Aborted != 2 || str.AbortedHeaderWrite != 1 || str.AbortedChunkWrite != 1 {
		t.Errorf("stream split = %+v, want 1 completed, 1+1 aborted", str)
	}
	if str.Streams != str.Completed+str.Aborted {
		t.Errorf("Streams = %d, want Completed+Aborted = %d", str.Streams, str.Completed+str.Aborted)
	}
	if str.FirstByteMeanUS != str.FirstByteSumUS { // mean over exactly 1 completed stream
		t.Errorf("first-byte mean %d vs sum %d: aborted streams polluted the aggregate",
			str.FirstByteMeanUS, str.FirstByteSumUS)
	}
}

// panicAfter panics at every write past the first n.
type panicAfter struct{ n int }

func (p *panicAfter) Write(b []byte) (int, error) {
	if p.n <= 0 {
		panic("writer broke")
	}
	p.n--
	return len(b), nil
}

// TestFlightRecorderService drives a request to every ending and checks
// that the HTTP status and the flight record's outcome agree, that each
// request is recorded and counted once — also a stream whose trailer
// write panics after the request settled — and that a record carries
// the run even when delivery panicked after it.
func TestFlightRecorderService(t *testing.T) {
	// A 1ns threshold flags every query that takes a microsecond.
	s := newTestService(t, Options{SlowQuery: time.Nanosecond, Logger: slog.New(slog.NewTextHandler(io.Discard, nil))})
	// A value of the wrong type cached under the key core looks up for
	// the optimized //c panics that one request (TestPanicStopsAtTheRequest).
	h, ok := s.Store().Get("d1")
	if !ok {
		t.Fatal("d1 missing")
	}
	plant(s, strconv.FormatUint(h.Doc.Names().ID(), 10)+"\x00//c", "not an automaton")
	gen := h.Gen.String()

	// w nil means Eval; a Stream that got its header out answers 200.
	endings := []struct {
		req     Request
		w       io.Writer
		status  int
		outcome string
	}{
		{Request{RequestID: "ok-1", Doc: "d1", Query: "//a/b"}, nil, http.StatusOK, obsv.OutcomeOK},
		{Request{RequestID: "no-doc", Doc: "nope", Query: "//a"}, nil, http.StatusNotFound, obsv.OutcomeNotFound},
		{Request{RequestID: "bad-query", Doc: "d1", Query: "///"}, nil, http.StatusBadRequest, obsv.OutcomeError},
		{Request{RequestID: "stale", Doc: "d1", Query: "//b", Cursor: rawToken("c3", "d1", "1", "0")}, nil,
			http.StatusGone, obsv.OutcomeStaleCursor},
		{Request{RequestID: "c2", Doc: "d1", Query: "//b", Cursor: rawToken("c2", "0", "d1", gen, "0")}, nil,
			http.StatusGone, obsv.OutcomeStaleCursor},
		{Request{RequestID: "panic", Doc: "d1", Query: "//c", Strategy: "optimized"}, nil,
			http.StatusInternalServerError, obsv.OutcomePanic},
		{Request{RequestID: "aborted", Doc: "d1", Query: "//a/b"}, &failAfter{n: 1}, http.StatusOK, obsv.OutcomeAborted},
		// Header and three chunks of one node go out; the trailer panics.
		{Request{RequestID: "trailer-panic", Doc: "d1", Query: "//b"}, &panicAfter{n: 4}, http.StatusOK, obsv.OutcomePanic},
		{Request{RequestID: "stream-panic", Doc: "d1", Query: "//b"}, &panicAfter{n: 1}, http.StatusOK, obsv.OutcomePanic},
	}
	for _, e := range endings {
		status := http.StatusOK
		if e.w == nil {
			status = statusFor(s.Eval(e.req))
		} else if pre := s.Stream(e.w, e.req, 1); pre != nil {
			status = statusFor(*pre)
		}
		rec := s.Flight().Snapshot(1, false).Records[0]
		if status != e.status || rec.RequestID != e.req.RequestID || rec.Outcome != e.outcome {
			t.Errorf("%s: status %d, record %q outcome %q; want %d and %q",
				e.req.RequestID, status, rec.RequestID, rec.Outcome, e.status, e.outcome)
		}
	}

	fs := s.Flight().Snapshot(0, false)
	if n := uint64(len(endings)); fs.Total != n || len(fs.Records) != len(endings) {
		t.Fatalf("flight totals = %d total / %d resident, want %d / %d", fs.Total, len(fs.Records), n, n)
	}
	// ok-1 and aborted ran to delivery; every other ending is an error.
	// /stats counts as slow exactly the records the ring flags.
	q := s.Stats().Queries
	if q.Total != uint64(len(endings)) || q.Errors != uint64(len(endings)-2) || q.Streaming.Aborted != 1 {
		t.Fatalf("queries = %d total / %d errors / %d aborted streams, want %d / %d / 1",
			q.Total, q.Errors, q.Streaming.Aborted, len(endings), len(endings)-2)
	}
	flagged := uint64(0)
	for _, r := range fs.Records {
		if r.Slow {
			flagged++
		}
	}
	if q.Slow != flagged {
		t.Fatalf("queries.slow = %d, the ring flags %d", q.Slow, flagged)
	}
	// Newest first.
	for i := 1; i < len(fs.Records); i++ {
		if fs.Records[i].Seq >= fs.Records[i-1].Seq {
			t.Fatalf("records not newest-first: %d then %d", fs.Records[i-1].Seq, fs.Records[i].Seq)
		}
	}
	// The stream's writer panicked at its first chunk, after the run:
	// its record names the engine that ran and the answer's size.
	if rec := fs.Records[0]; !rec.Streamed || rec.Strategy != "hybrid" || rec.Count != 3 || rec.Sent != 0 {
		t.Errorf("panicked stream's record = %+v, want streamed, strategy hybrid, count 3, sent 0", rec)
	}
	if got := s.Flight().Snapshot(2, false); len(got.Records) != 2 {
		t.Errorf("limit 2 returned %d records", len(got.Records))
	}

	// A stream that stalls is past the threshold.
	s.Stream(&failAfter{n: 3, stall: time.Millisecond}, Request{Doc: "d1", Query: "//c"}, 1)
	slow := s.Flight().Snapshot(0, true)
	if len(slow.Records) == 0 || slow.Records[0].Query != "//c" {
		t.Errorf("slow filter: %+v", slow.Records)
	}
}

func TestDebugQueriesHTTP(t *testing.T) {
	s := New(shard.NewStore(1), Options{})
	base := newTestHTTP(t, s, HandlerOptions{})
	mustLoad(t, base, "d1")
	for i := 0; i < 3; i++ {
		var resp Response
		doJSON(t, "POST", base+"/query", Request{Doc: "d1", Query: "//a/b"}, &resp)
	}
	var fs obsv.FlightStats
	if code := doJSON(t, "GET", base+"/debug/queries?n=2", nil, &fs); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if fs.Total != 3 || len(fs.Records) != 2 {
		t.Fatalf("flight = total %d, %d records; want 3 total, 2 records", fs.Total, len(fs.Records))
	}
	if fs.Records[0].RequestID == "" {
		t.Error("HTTP query got no generated request id in its flight record")
	}

	// ?slow= takes every spelling ?explain= does: only slow records come
	// back, none of this service's three and the one of a service whose
	// threshold a stalled stream passes.
	slowS := New(shard.NewStore(1), Options{SlowQuery: time.Nanosecond})
	slowBase := newTestHTTP(t, slowS, HandlerOptions{})
	mustLoad(t, slowBase, "d1")
	slowS.Stream(&failAfter{n: 3, stall: time.Millisecond}, Request{Doc: "d1", Query: "//c"}, 1)
	for _, v := range []string{"1", "true", "yes"} {
		var none, slow obsv.FlightStats
		doJSON(t, "GET", base+"/debug/queries?slow="+v, nil, &none)
		doJSON(t, "GET", slowBase+"/debug/queries?slow="+v, nil, &slow)
		if len(none.Records) != 0 {
			t.Errorf("?slow=%s: %d records of a service with no slow query", v, len(none.Records))
		}
		if len(slow.Records) != 1 || slow.Records[0].Query != "//c" {
			t.Errorf("?slow=%s: %d records, want the one slow //c", v, len(slow.Records))
		}
	}
}

// TestRequestIDBounded: a client id too long to keep (64 KiB here; the
// header limit is 1 MiB) is replaced by a generated one, in the echo and
// in the flight record, while a short visible-ASCII id is kept.
func TestRequestIDBounded(t *testing.T) {
	srv := newTestServer(t)
	mustLoad(t, srv.URL, "d1")
	for _, tc := range []struct{ sent, want string }{
		{strings.Repeat("x", 64<<10), ""},
		{"bad id", ""},
		{"test-42", "test-42"},
	} {
		req, err := http.NewRequest("POST", srv.URL+"/query", strings.NewReader(`{"doc":"d1","query":"//a/b"}`))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("X-Request-Id", tc.sent)
		hr, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		hr.Body.Close()
		got := hr.Header.Get("X-Request-Id")
		if tc.want != "" && got != tc.want || tc.want == "" && !strings.HasPrefix(got, "q-") {
			t.Errorf("sent a %d-byte id, echoed %.40q", len(tc.sent), got)
		}
		var fs obsv.FlightStats
		if code := doJSON(t, "GET", srv.URL+"/debug/queries?n=1", nil, &fs); code != http.StatusOK || len(fs.Records) != 1 {
			t.Fatalf("flight: status %d, %d records", code, len(fs.Records))
		}
		if rid := fs.Records[0].RequestID; rid != got || len(rid) > maxRequestID {
			t.Errorf("sent a %d-byte id, echoed %.40q, recorded %d bytes: %.40q", len(tc.sent), got, len(rid), rid)
		}
	}
}

// TestObsvChurnRace hammers /stats, /metrics and /debug/queries
// snapshots while queries run and documents are evicted and reloaded —
// the scrape-during-churn scenario. Run with -race.
func TestObsvChurnRace(t *testing.T) {
	s := New(shard.NewStore(1), Options{
		SlowQuery: time.Millisecond,
		// Churn makes queries legitimately slow; keep the Warn spam out
		// of the test log.
		Logger: slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	const docs = 4
	docXML := []byte("<r><a><b>x</b></a><a><b/><b/></a><c/></r>")
	for i := 0; i < docs; i++ {
		if _, err := s.Store().LoadXML(fmt.Sprintf("d%d", i), docXML); err != nil {
			t.Fatal(err)
		}
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	worker := func(fn func(i int)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
					fn(i)
				}
			}
		}()
	}
	for w := 0; w < 4; w++ {
		worker(func(i int) {
			doc := fmt.Sprintf("d%d", i%docs)
			s.Eval(Request{Doc: doc, Query: "//a/b", Explain: i%7 == 0})
			if i%3 == 0 {
				s.Stream(io.Discard, Request{Doc: doc, Query: "//a"}, 2)
			}
		})
	}
	worker(func(i int) { // churn: evict + reload
		doc := fmt.Sprintf("d%d", i%docs)
		s.EvictDoc(doc)
		_, _ = s.Store().LoadXML(doc, docXML)
	})
	worker(func(i int) { // scrapers
		_ = s.Stats()
		_ = s.WriteMetrics(io.Discard)
		_ = s.Flight().Snapshot(8, i%2 == 0)
	})
	time.Sleep(200 * time.Millisecond)
	close(stop)
	wg.Wait()
	if err := s.WriteMetrics(io.Discard); err != nil {
		t.Fatal(err)
	}
}
