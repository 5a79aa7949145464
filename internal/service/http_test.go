package service

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/shard"
	"repro/internal/store"
	"repro/internal/tree"
	"repro/internal/xmark"
)

func newTestServer(t *testing.T) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(NewHandler(New(shard.NewStore(1), Options{}), HandlerOptions{}))
	t.Cleanup(srv.Close)
	return srv
}

func doJSON(t *testing.T, method, url string, body, out any) int {
	t.Helper()
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil && err != io.EOF {
			t.Fatalf("%s %s: decoding body: %v", method, url, err)
		}
	}
	return resp.StatusCode
}

// TestDaemonEndToEnd is the acceptance scenario: load an XMark document
// over HTTP, run a 10-query batch, and observe a compiled-query cache
// hit rate > 0 on GET /stats.
func TestDaemonEndToEnd(t *testing.T) {
	srv := newTestServer(t)

	var docStats store.Stats
	code := doJSON(t, "POST", srv.URL+"/docs",
		LoadRequest{ID: "xm", XMarkScale: 0.002, Seed: 1}, &docStats)
	if code != http.StatusCreated {
		t.Fatalf("load: status %d", code)
	}
	if docStats.Nodes == 0 || docStats.Source != store.SourceXMark {
		t.Fatalf("doc stats: %+v", docStats)
	}

	// A 10-query batch with repeats, so the LRU sees the same compiled
	// queries again.
	qs := xmark.Queries()
	var batch BatchRequest
	for i := 0; i < 10; i++ {
		batch.Requests = append(batch.Requests,
			Request{Doc: "xm", Query: qs[i%5].XPath, Strategy: "optimized"})
	}
	var batchResp BatchResponse
	if code := doJSON(t, "POST", srv.URL+"/batch", batch, &batchResp); code != http.StatusOK {
		t.Fatalf("batch: status %d", code)
	}
	if len(batchResp.Responses) != 10 {
		t.Fatalf("batch responses = %d, want 10", len(batchResp.Responses))
	}
	for i, r := range batchResp.Responses {
		if r.Err != "" {
			t.Errorf("batch[%d] (%s): %s", i, batch.Requests[i].Query, r.Err)
		}
	}

	var stats Stats
	if code := doJSON(t, "GET", srv.URL+"/stats", nil, &stats); code != http.StatusOK {
		t.Fatalf("stats: status %d", code)
	}
	if stats.CacheHitRate <= 0 {
		t.Errorf("cache hit rate = %v, want > 0 (stats: %+v)", stats.CacheHitRate, stats.Cache)
	}
	if stats.Queries.Total != 10 {
		t.Errorf("query total = %d, want 10", stats.Queries.Total)
	}
	if len(stats.Documents) != 1 || stats.Documents[0].ID != "xm" {
		t.Errorf("documents = %+v", stats.Documents)
	}
}

func TestQueryEndpoint(t *testing.T) {
	srv := newTestServer(t)
	if code := doJSON(t, "POST", srv.URL+"/docs",
		LoadRequest{ID: "d", XML: "<r><a><b/></a></r>"}, nil); code != http.StatusCreated {
		t.Fatalf("load: status %d", code)
	}
	var resp Response
	if code := doJSON(t, "POST", srv.URL+"/query",
		Request{Doc: "d", Query: "//b", Paths: true}, &resp); code != http.StatusOK {
		t.Fatalf("query: status %d", code)
	}
	if resp.Count != 1 || len(resp.Paths) != 1 || resp.Paths[0] != "/r/a/b" {
		t.Errorf("response: %+v", resp)
	}

	// Unknown document -> 404; bad query -> 400; bad body -> 400.
	if code := doJSON(t, "POST", srv.URL+"/query",
		Request{Doc: "ghost", Query: "//b"}, nil); code != http.StatusNotFound {
		t.Errorf("unknown doc: status %d, want 404", code)
	}
	if code := doJSON(t, "POST", srv.URL+"/query",
		Request{Doc: "d", Query: "///"}, nil); code != http.StatusBadRequest {
		t.Errorf("bad query: status %d, want 400", code)
	}
	if code := doJSON(t, "POST", srv.URL+"/query",
		map[string]any{"doc": "d", "nonsense": true}, nil); code != http.StatusBadRequest {
		t.Errorf("unknown field: status %d, want 400", code)
	}
}

func TestDocLifecycleOverHTTP(t *testing.T) {
	srv := newTestServer(t)
	if code := doJSON(t, "POST", srv.URL+"/docs",
		LoadRequest{ID: "d", XML: "<r/>"}, nil); code != http.StatusCreated {
		t.Fatalf("load: status %d", code)
	}
	// Duplicate id -> 409; no source or two sources -> 400.
	if code := doJSON(t, "POST", srv.URL+"/docs",
		LoadRequest{ID: "d", XML: "<r/>"}, nil); code != http.StatusConflict {
		t.Errorf("duplicate: status %d, want 409", code)
	}
	if code := doJSON(t, "POST", srv.URL+"/docs", LoadRequest{ID: "e"}, nil); code != http.StatusBadRequest {
		t.Errorf("no source: status %d, want 400", code)
	}
	if code := doJSON(t, "POST", srv.URL+"/docs",
		LoadRequest{ID: "e", XML: "<r/>", XMarkScale: 1}, nil); code != http.StatusBadRequest {
		t.Errorf("two sources: status %d, want 400", code)
	}

	var docs struct {
		Documents []store.Stats `json:"documents"`
	}
	if code := doJSON(t, "GET", srv.URL+"/docs", nil, &docs); code != http.StatusOK || len(docs.Documents) != 1 {
		t.Fatalf("list: status %d, docs %+v", code, docs)
	}

	if code := doJSON(t, "DELETE", srv.URL+"/docs/d", nil, nil); code != http.StatusNoContent {
		t.Errorf("delete: status %d, want 204", code)
	}
	if code := doJSON(t, "DELETE", srv.URL+"/docs/d", nil, nil); code != http.StatusNotFound {
		t.Errorf("double delete: status %d, want 404", code)
	}
}

func TestFileLoadsGated(t *testing.T) {
	// Default handler: server-side path reads are forbidden.
	srv := newTestServer(t)
	if code := doJSON(t, "POST", srv.URL+"/docs", LoadRequest{ID: "f", File: "/etc/hostname"}, nil); code != http.StatusForbidden {
		t.Errorf("file load: status %d, want 403", code)
	}

	// Opt-in handler: loads work.
	path := filepath.Join(t.TempDir(), "doc.xml")
	if err := os.WriteFile(path, []byte("<r><a/></r>"), 0o644); err != nil {
		t.Fatal(err)
	}
	open := httptest.NewServer(NewHandler(New(shard.NewStore(1), Options{}),
		HandlerOptions{AllowFileLoads: true}))
	defer open.Close()
	var stats store.Stats
	if code := doJSON(t, "POST", open.URL+"/docs",
		LoadRequest{ID: "f", File: path}, &stats); code != http.StatusCreated {
		t.Fatalf("allowed file load: status %d", code)
	}
	if stats.Source != store.SourceXML || stats.Nodes == 0 {
		t.Errorf("loaded stats: %+v", stats)
	}
}

// TestBinaryFileLoadRemoved: the XQO1 "binary_file" source is gone from
// POST /docs, and a client still sending it is told so (400, unknown
// field) instead of being silently ignored — with or without
// -allow-file-loads.
func TestBinaryFileLoadRemoved(t *testing.T) {
	for _, opts := range []HandlerOptions{{}, {AllowFileLoads: true}} {
		srv := httptest.NewServer(NewHandler(New(shard.NewStore(1), Options{}), opts))
		resp, err := http.Post(srv.URL+"/docs", "application/json",
			bytes.NewReader([]byte(`{"id":"b","binary_file":"/tmp/doc.xqo"}`)))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		srv.Close()
		if resp.StatusCode != http.StatusBadRequest || !bytes.Contains(body, []byte("binary_file")) {
			t.Errorf("%+v: status %d body %s, want 400 naming the unknown field", opts, resp.StatusCode, body)
		}
	}
}

func TestHealthz(t *testing.T) {
	srv := newTestServer(t)
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("healthz: status %d", resp.StatusCode)
	}
	b, _ := io.ReadAll(resp.Body)
	if want := "ok\n"; string(b) != want {
		t.Errorf("healthz body = %q, want %q", b, want)
	}
}

// TestDeeplyNestedBodyIsABadRequest: six million unclosed start tags —
// 18 MB, which POST /docs accepts — used to recurse the parser past the
// goroutine stack limit and kill the process ("fatal error: stack
// overflow" is not a panic; no recover contains it). Now it is a syntax
// error like any other, and the daemon keeps answering. A PATCH body
// that size is refused before it is parsed (413), and a deep fragment
// under the cap is a 400 too.
func TestDeeplyNestedBodyIsABadRequest(t *testing.T) {
	srv := newTestServer(t)
	deep := strings.Repeat("<a>", 6_000_000)
	var e errorBody
	if code := doJSON(t, "POST", srv.URL+"/docs", LoadRequest{ID: "deep", XML: deep}, &e); code != http.StatusBadRequest {
		t.Fatalf("POST /docs with 6M unclosed levels: status %d (%s), want 400", code, e.Error)
	}
	if !strings.Contains(e.Error, "missing end tag") {
		t.Errorf("error = %q, want the parser's missing-end-tag error", e.Error)
	}
	if code := doJSON(t, "POST", srv.URL+"/docs", LoadRequest{ID: "d", XML: "<r><a/></r>"}, nil); code != http.StatusCreated {
		t.Fatalf("loading a small document: status %d", code)
	}
	if code := doJSON(t, "PATCH", srv.URL+"/docs/d", PatchDocRequest{Op: "insert", Node: 1, XML: deep}, &e); code != http.StatusRequestEntityTooLarge {
		t.Errorf("PATCH with 6M unclosed levels: status %d (%s), want 413", code, e.Error)
	}
	// 500 000 levels: 7 MB once JSON escapes each "<" and ">".
	under := strings.Repeat("<a>", 500_000)
	if code := doJSON(t, "PATCH", srv.URL+"/docs/d", PatchDocRequest{Op: "insert", Node: 1, XML: under}, &e); code != http.StatusBadRequest || !strings.Contains(e.Error, "missing end tag") {
		t.Errorf("PATCH with 500k unclosed levels: status %d (%s), want 400 from the parser", code, e.Error)
	}
	if code := doJSON(t, "GET", srv.URL+"/healthz", nil, nil); code != http.StatusOK {
		t.Errorf("/healthz after the deep bodies: status %d", code)
	}
}

// TestPatchBreakingTheAttributeEncodingIsABadRequest: on <a q="v"><c/></a>
// (1=a 2=@q 3=its text 4=c), an element under @q, one in place of @q's
// text and one ahead of @q are each a 400 that names the rule, and leave
// the generation where it was; deleting the attribute's text, then the
// attribute, stays legal.
func TestPatchBreakingTheAttributeEncodingIsABadRequest(t *testing.T) {
	srv := newTestServer(t)
	var loaded store.Stats
	if code := doJSON(t, "POST", srv.URL+"/docs", LoadRequest{ID: "d", XML: `<a q="v"><c/></a>`}, &loaded); code != http.StatusCreated || loaded.Nodes != 5 {
		t.Fatalf("load: status %d, %d nodes", code, loaded.Nodes)
	}
	attr := tree.NodeID(2)
	for name, req := range map[string]PatchDocRequest{
		"insert under the attribute":    {Op: "insert", Node: 2, XML: "<x/>"},
		"replace the attribute's text":  {Op: "replace", Node: 3, XML: "<x/>"},
		"insert ahead of the attribute": {Op: "insert", Node: 1, Before: &attr, XML: "<x/>"},
	} {
		var e errorBody
		if code := doJSON(t, "PATCH", srv.URL+"/docs/d", req, &e); code != http.StatusBadRequest || !strings.Contains(e.Error, "attributes are the leading @name children") {
			t.Errorf("%s: status %d (%s), want 400 naming the rule", name, code, e.Error)
		}
	}
	var patched store.Stats
	for i, node := range []tree.NodeID{3, 2} {
		if code := doJSON(t, "PATCH", srv.URL+"/docs/d", PatchDocRequest{Op: "delete", Node: node, BaseGen: genAfter(t, loaded.Gen, uint64(i))}, &patched); code != http.StatusOK {
			t.Fatalf("delete node %d on the generation the refused patches left: status %d", node, code)
		}
	}
	if patched.Gen != genAfter(t, loaded.Gen, 2) || patched.Nodes != 3 {
		t.Errorf("after three refused patches and two applied: gen %s (loaded %s), %d nodes", patched.Gen, loaded.Gen, patched.Nodes)
	}
}

// TestLabelLimitIsAClientError: a node's label is stored in 16 bits, so
// the document whose names fill the table loads, one name more is a 400
// that names the limit — at POST /docs, and at a PATCH whose fragment
// brings the name, which leaves the current generation where it was.
func TestLabelLimitIsAClientError(t *testing.T) {
	srv := newTestServer(t)
	wide := func(labels int) string {
		var sb strings.Builder
		sb.WriteString("<r>")
		for i := tree.ReservedLabels + 1; i < labels; i++ {
			sb.WriteString("<n" + strconv.Itoa(i) + "/>")
		}
		sb.WriteString("</r>")
		return sb.String()
	}
	var loaded store.Stats
	if code := doJSON(t, "POST", srv.URL+"/docs", LoadRequest{ID: "full", XML: wide(tree.MaxLabels)}, &loaded); code != http.StatusCreated || loaded.Labels != tree.MaxLabels {
		t.Fatalf("loading %d labels: status %d, %d labels", tree.MaxLabels, code, loaded.Labels)
	}
	var e errorBody
	if code := doJSON(t, "POST", srv.URL+"/docs", LoadRequest{ID: "over", XML: wide(tree.MaxLabels + 1)}, &e); code != http.StatusBadRequest || !strings.Contains(e.Error, "limit of 65536") {
		t.Errorf("loading %d labels: status %d (%s), want 400 naming the limit", tree.MaxLabels+1, code, e.Error)
	}
	if code := doJSON(t, "PATCH", srv.URL+"/docs/full", PatchDocRequest{Op: "insert", Node: 1, XML: "<one-too-many/>"}, &e); code != http.StatusBadRequest || !strings.Contains(e.Error, "limit of 65536") {
		t.Errorf("PATCH bringing label %d: status %d (%s), want 400 naming the limit", tree.MaxLabels+1, code, e.Error)
	}
	var patched store.Stats
	if code := doJSON(t, "PATCH", srv.URL+"/docs/full", PatchDocRequest{Op: "insert", Node: 1, XML: "<n65535/>", BaseGen: loaded.Gen}, &patched); code != http.StatusOK {
		t.Fatalf("PATCH within the table, on the generation the refused one left: status %d", code)
	}
	if patched.Gen != genAfter(t, loaded.Gen, 1) || patched.Labels != tree.MaxLabels || patched.Nodes != loaded.Nodes+1 {
		t.Errorf("after the refused PATCH and one applied: gen %s (loaded %s), %d labels, %d nodes (loaded %d)",
			patched.Gen, loaded.Gen, patched.Labels, patched.Nodes, loaded.Nodes)
	}
}
