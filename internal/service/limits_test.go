package service

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/asta"
	"repro/internal/tree"
)

// longQuery needs more states than one automaton has (two per
// "//b[.//b]" step). Its refusal must be an error: a panic would kill
// the process from a /batch worker, and from /query drop the connection
// with the request's generation still pinned.
var longQuery = "/a" + strings.Repeat("//b[.//b]", 40)

// TestBatchOverLongQuery: a batch holding the over-long query answers
// every member — Auto step-wise, a forced ASTA engine with a 400-class
// refusal — and leaves every book settled.
func TestBatchOverLongQuery(t *testing.T) {
	s := newTestService(t, Options{Workers: 2})
	batch := []Request{
		{Doc: "d1", Query: "//a/b"},
		{Doc: "d1", Query: longQuery},
		{Doc: "d1", Query: longQuery, Strategy: "optimized"},
		{Doc: "d1", Query: "//a/b", Strategy: "optimized"},
	}
	got := s.EvalBatch(batch)
	for _, i := range []int{0, 3} {
		if got[i].Err != "" || got[i].Count != 3 {
			t.Errorf("member %d: count %d, error %q, want 3 nodes", i, got[i].Count, got[i].Err)
		}
	}
	if r := got[1]; r.Err != "" || r.Strategy != "stepwise" {
		t.Errorf("Auto on the over-long query: strategy %q, error %q, want a step-wise answer", r.Strategy, r.Err)
	}
	if r := got[2]; statusFor(r) != http.StatusBadRequest || !strings.Contains(r.Err, "states") {
		t.Errorf("forced optimized on the over-long query: status %d, error %q, want 400 naming the state cap", statusFor(r), r.Err)
	}
	assertPoolSettled(t, s)
}

// TestOverLongQueryReleasesItsPin: /query answers the over-long query
// (Auto) or refuses it (forced engines, including a TDSTA path one step
// past its cap), and a PATCH afterwards retires the queried generation:
// no request left it pinned.
func TestOverLongQueryReleasesItsPin(t *testing.T) {
	s := newTestService(t, Options{})
	srv := httptest.NewServer(NewHandler(s, HandlerOptions{}))
	t.Cleanup(srv.Close)
	longPath := "/r" + strings.Repeat("/a", asta.MaxStates-1)
	for _, c := range []struct {
		query, strategy string
		want            int
	}{
		{longQuery, "", http.StatusOK},
		{longQuery, "optimized", http.StatusBadRequest},
		{longPath, "topdown-det", http.StatusBadRequest},
	} {
		if code := doJSON(t, "POST", srv.URL+"/query", Request{Doc: "d1", Query: c.query, Strategy: c.strategy}, nil); code != c.want {
			t.Errorf("%d-byte query, strategy %q: status %d, want %d", len(c.query), c.strategy, code, c.want)
		}
	}
	if code := doJSON(t, "PATCH", srv.URL+"/docs/d1", PatchDocRequest{Op: "insert", Node: tree.NodeID(1), XML: "<c/>"}, nil); code != http.StatusOK {
		t.Fatalf("PATCH: status %d", code)
	}
	if mv := s.Stats().MVCC; mv.LiveGenerations != 1 || mv.PinnedGenerations != 0 || mv.Retired != 1 {
		t.Errorf("after the PATCH: live %d, pinned %d, retired %d, want 1, 0, 1", mv.LiveGenerations, mv.PinnedGenerations, mv.Retired)
	}
	assertPoolSettled(t, s)
}

// padded is a JSON object of exactly n bytes: head, then spaces, then
// the closing brace, so the decoder must read all n to finish the value.
func padded(head string, n int) []byte {
	return []byte(head + strings.Repeat(" ", n-len(head)-1) + "}")
}

// TestQueryBodyCap: the query endpoints read at most maxQueryBody
// bytes of body. One byte more is a 413 in the JSON error envelope;
// a body of exactly the cap, or a normal one, is served.
func TestQueryBodyCap(t *testing.T) {
	srv := httptest.NewServer(NewHandler(newTestService(t, Options{}), HandlerOptions{}))
	t.Cleanup(srv.Close)
	for path, head := range map[string]string{
		"/query":        `{"doc":"d1","query":"//a/b"`,
		"/query/stream": `{"doc":"d1","query":"//a/b"`,
		"/batch":        `{"requests":[{"doc":"d1","query":"//a/b"}]`,
	} {
		for _, n := range []int{len(head) + 1, maxQueryBody, maxQueryBody + 1} {
			resp, err := http.Post(srv.URL+path, "application/json", bytes.NewReader(padded(head, n)))
			if err != nil {
				t.Fatal(err)
			}
			var e errorBody
			if resp.StatusCode != http.StatusOK {
				_ = json.NewDecoder(resp.Body).Decode(&e)
			}
			resp.Body.Close()
			want := http.StatusOK
			if n > maxQueryBody {
				want = http.StatusRequestEntityTooLarge
			}
			if resp.StatusCode != want {
				t.Errorf("%s with a %d-byte body: status %d (%q), want %d", path, n, resp.StatusCode, e.Error, want)
			}
			if want != http.StatusOK && (resp.Header.Get("Content-Type") != "application/json" || e.Error == "") {
				t.Errorf("%s with a %d-byte body: the 413 is not a JSON error envelope (%s, %q)", path, n, resp.Header.Get("Content-Type"), e.Error)
			}
		}
	}
}

// TestPatchBodyCap: PATCH /docs/{id} reads at most maxPatchBody bytes
// of body. One byte more is a 413 in the JSON error envelope and leaves
// the document at its generation; a body of exactly the cap is served.
func TestPatchBodyCap(t *testing.T) {
	s := newTestService(t, Options{})
	srv := httptest.NewServer(NewHandler(s, HandlerOptions{}))
	t.Cleanup(srv.Close)
	head := `{"op":"insert","node":1,"xml":"<c/>"`
	for _, n := range []int{maxPatchBody, maxPatchBody + 1} {
		req, err := http.NewRequest("PATCH", srv.URL+"/docs/d1", bytes.NewReader(padded(head, n)))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		var e errorBody
		if resp.StatusCode != http.StatusOK {
			_ = json.NewDecoder(resp.Body).Decode(&e)
		}
		resp.Body.Close()
		want := http.StatusOK
		if n > maxPatchBody {
			want = http.StatusRequestEntityTooLarge
		}
		if resp.StatusCode != want || (want != http.StatusOK && e.Error == "") {
			t.Errorf("PATCH with a %d-byte body: status %d (%q), want %d", n, resp.StatusCode, e.Error, want)
		}
	}
	if mv := s.Stats().MVCC; mv.Patches != 1 {
		t.Errorf("%d patches applied, want the one under the cap", mv.Patches)
	}
}

// TestTrailingDataRefused: a body is one JSON value. Anything but
// whitespace after it — a second request, stray bytes, a closing brace
// — is a 400 that applies nothing: two PATCH objects in one body leave
// the document at its generation, instead of the first being applied
// and the second dropped. Trailing whitespace is served.
func TestTrailingDataRefused(t *testing.T) {
	s := newTestService(t, Options{})
	h := NewHandler(s, HandlerOptions{})
	do := func(method, path, body string) int {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(method, path, strings.NewReader(body)))
		return rec.Code
	}
	for _, tc := range []struct{ method, path, body string }{
		{"PATCH", "/docs/d1", `{"op":"insert","node":1,"xml":"<c/>"} {"op":"delete","node":1}`},
		{"PATCH", "/docs/d1", `{"op":"insert","node":1,"xml":"<c/>"}x`},
		{"POST", "/query", `{"doc":"d1","query":"//a/b"} {"doc":"d1","query":"//c"}`},
		{"POST", "/query", `{"doc":"d1","query":"//a/b"}}`},
		{"POST", "/query/stream", `{"doc":"d1","query":"//a/b"}]`},
		{"POST", "/batch", `{"requests":[{"doc":"d1","query":"//a/b"}]} []`},
		{"POST", "/docs", `{"id":"d2","xml":"<r/>"} {"id":"d3","xml":"<r/>"}`},
	} {
		if code := do(tc.method, tc.path, tc.body); code != http.StatusBadRequest {
			t.Errorf("%s %s %s: status %d, want 400", tc.method, tc.path, tc.body, code)
		}
	}
	if st := s.Stats(); st.MVCC.Patches != 0 || len(st.Documents) != 1 {
		t.Fatalf("refused bodies applied %d patches and left %d documents, want 0 and 1", st.MVCC.Patches, len(st.Documents))
	}
	if code := do("PATCH", "/docs/d1", "{\"op\":\"insert\",\"node\":1,\"xml\":\"<c/>\"} \n\t\r\n"); code != http.StatusOK {
		t.Errorf("PATCH with trailing whitespace: status %d, want 200", code)
	}
	if code := do("POST", "/query", `{"doc":"d1","query":"//a/b"}`+"\n"); code != http.StatusOK {
		t.Errorf("query with a trailing newline: status %d, want 200", code)
	}
}

// deepQuery nests a million parentheses, in a body under the cap.
var deepQuery = "a[" + strings.Repeat("(", 1_048_000)

// TestDeepQueryRefused: a query nested past the parser's bound is a 400
// whose body quotes a window of the query, not the megabyte.
func TestDeepQueryRefused(t *testing.T) {
	srv := httptest.NewServer(NewHandler(newTestService(t, Options{}), HandlerOptions{}))
	t.Cleanup(srv.Close)
	body, err := json.Marshal(Request{Doc: "d1", Query: deepQuery})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(srv.URL+"/query", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var e errorBody
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusBadRequest || len(e.Error) >= 1024 || !strings.Contains(e.Error, "deeper than") {
		t.Errorf("a %d-byte query nested past the bound: status %d, a %d-byte error %.200q", len(body), resp.StatusCode, len(e.Error), e.Error)
	}
}

// FuzzQueryBody posts arbitrary bytes to /query and /batch over a tiny
// document. Every answer must be one of the statuses the API documents,
// nothing may panic, and afterwards every book is settled and a PATCH
// leaves no generation pinned (leases last a nanosecond here, so only a
// leaked pin could hold one).
func FuzzQueryBody(f *testing.F) {
	for _, seed := range []string{
		`{"doc":"d1","query":"//a/b"}`,
		`{"doc":"d1","query":"//a/b","limit":1,"explain":true}`,
		`{"doc":"d1","query":"` + longQuery + `"}`,
		`{"doc":"d1","query":"` + longQuery + `","strategy":"optimized"}`,
		`{"doc":"d1","query":"/r/a","strategy":"topdown-det","asof":7}`,
		`{"doc":"d1","query":"//b","cursor":"c3.ZDE.1.3"}`,
		`{"requests":[{"doc":"d1","query":"//b","strategy":"hybrid"},{"doc":"nope","query":"//a"},{"doc":"d1","query":"///"}]}`,
		string(padded(`{"doc":"d1","query":"//a/b"`, maxQueryBody+1)),
		`{"doc":"d1","query":"` + deepQuery + `"}`,
		`{"doc":"d1","query":"//a/b"} {"doc":"d1","query":"//c"}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		s := newTestService(t, Options{Workers: 2, CursorTTL: time.Nanosecond})
		h := NewHandler(s, HandlerOptions{})
		for _, path := range []string{"/query", "/batch"} {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest("POST", path, bytes.NewReader(body)))
			switch rec.Code {
			case http.StatusOK, http.StatusBadRequest, http.StatusNotFound, http.StatusGone, http.StatusRequestEntityTooLarge:
			default:
				t.Errorf("%s: status %d: %s", path, rec.Code, rec.Body)
			}
		}
		assertPoolSettled(t, s)
		if _, err := s.PatchDoc("d1", PatchDocRequest{Op: "insert", Node: tree.NodeID(1), XML: "<c/>"}); err != nil {
			t.Fatal(err)
		}
		if mv := s.Stats().MVCC; mv.PinnedGenerations != 0 {
			t.Errorf("after a PATCH: %d generations pinned, want 0", mv.PinnedGenerations)
		}
	})
}

// FuzzPatchBody sends arbitrary bytes as the body of PATCH /docs/d1 and
// PATCH /docs/nope over a tiny document. Every answer must be one of
// the statuses the API documents for a patch, nothing may panic, and a
// query afterwards is answered with every book settled.
func FuzzPatchBody(f *testing.F) {
	for _, seed := range []string{
		`{"op":"insert","node":1,"xml":"<b/>"}`,
		`{"op":"insert","node":1,"before":2,"xml":"<z q=\"1\"><b/></z>"}`,
		`{"op":"replace","node":2,"xml":"<a><b>y</b></a>"}`,
		`{"op":"delete","node":2}`,
		`{"op":"delete","node":0}`,
		`{"op":"delete","node":1,"base_gen":7}`,
		`{"op":"insert","node":99,"xml":"<b/>"}`,
		`{"op":"rename","node":1}`,
		`{"op":"insert","node":1,"xml":"<a><b>"}`,
		`{"op":"insert","node":1,"xml":"` + strings.Repeat("<a>", 1000) + `"}`,
		`{"op":"insert","node":1,"xml":"<b/>","extra":1}`,
		`[]`,
		`{"op":"insert","node":1,"xml":"<c/>"} {"op":"delete","node":1}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		s := newTestService(t, Options{CursorTTL: time.Nanosecond})
		h := NewHandler(s, HandlerOptions{})
		for _, path := range []string{"/docs/d1", "/docs/nope"} {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest("PATCH", path, bytes.NewReader(body)))
			switch rec.Code {
			case http.StatusOK, http.StatusBadRequest, http.StatusNotFound, http.StatusConflict, http.StatusRequestEntityTooLarge:
			default:
				t.Errorf("PATCH %s: status %d: %s", path, rec.Code, rec.Body)
			}
		}
		if resp := s.Eval(Request{Doc: "d1", Query: "//b", Limit: 1}); resp.Err != "" {
			t.Errorf("query after the PATCH: %s", resp.Err)
		}
		assertPoolSettled(t, s)
	})
}
