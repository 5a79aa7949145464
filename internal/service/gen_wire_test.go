package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/store"
	"repro/internal/tree"
)

// genOf is generation n, made the way a client makes one: from its text.
// Outside the store a generation admits no arithmetic or conversion, so
// a test that needs a particular one forges it through the wire form.
func genOf(t testing.TB, n uint64) store.Gen {
	t.Helper()
	g, err := store.ParseGen(strconv.FormatUint(n, 10))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// genAfter is the generation k after g.
func genAfter(t testing.TB, g store.Gen, k uint64) store.Gen {
	t.Helper()
	n, err := strconv.ParseUint(g.String(), 10, 64)
	if err != nil {
		t.Fatal(err)
	}
	return genOf(t, n+k)
}

// genWireGolden is what the wire carried when a generation was a bare
// uint64 with omitempty tags: every line below was produced by that
// code, and an opaque Gen must reproduce it byte for byte.
const genWireGolden = `encode response zero gen: {"doc":"d","query":"/a","count":0,"nodes":[],"visited":0,"elapsed_us":0}
encode response max gen: {"doc":"d","query":"/a","strategy":"optimized","gen":4503599627370495,"count":2,"nodes":[1,2],"visited":3,"elapsed_us":0,"next":"tok"}
encode batch: {"responses":[{"doc":"d","query":"/a","gen":7,"count":0,"nodes":null,"visited":0,"elapsed_us":0}]}
encode stream header zero gen: {"doc":"d","query":"/a","strategy":"hybrid","count":5,"visited":6}
encode stream header max gen: {"doc":"d","query":"/a","strategy":"hybrid","gen":4503599627370495,"count":5,"visited":6}
encode request: {"doc":"d","query":"/a","asof":42}
encode request zero asof: {"doc":"d","query":"/a"}
encode patch: {"op":"delete","node":3,"base_gen":42}
encode patch zero base: {"op":"delete","node":3}
encode docs: {"documents":[{"id":"d","gen":4503599627370495,"nodes":3,"labels":4,"mem_bytes":5,"source":"patch","loaded_at":"1970-01-01T00:00:00Z","live_gens":2},{"id":"e","gen":0,"nodes":0,"labels":0,"mem_bytes":0,"source":"","loaded_at":"0001-01-01T00:00:00Z"}]}
encode stats documents: [{"id":"d","gen":4503599627370495,"nodes":3,"labels":4,"mem_bytes":5,"source":"patch","loaded_at":"1970-01-01T00:00:00Z","live_gens":2}]
cursor: YzMAeG0ANDUwMzU5OTYyNzM3MDQ5NQA0MQ
decode asof 4503599627370495: asof 4503599627370495 base_gen 0 <nil>
decode asof 0: asof 0 base_gen 0 <nil>
decode asof null: asof 0 base_gen 0 <nil>
decode base_gen 9: asof 0 base_gen 9 <nil>
query asof -1: 400 {"error":"bad request body: json: cannot unmarshal number -1 into Go struct field Request.asof of type store.Gen"}
query asof 1.5: 400 {"error":"bad request body: json: cannot unmarshal number 1.5 into Go struct field Request.asof of type store.Gen"}
query asof 1e3: 400 {"error":"bad request body: json: cannot unmarshal number 1e3 into Go struct field Request.asof of type store.Gen"}
query asof 18446744073709551616: 400 {"error":"bad request body: json: cannot unmarshal number 18446744073709551616 into Go struct field Request.asof of type store.Gen"}
query asof "5": 400 {"error":"bad request body: json: cannot unmarshal string into Go struct field Request.asof of type store.Gen"}
query asof true: 400 {"error":"bad request body: json: cannot unmarshal bool into Go struct field Request.asof of type store.Gen"}
query asof {}: 400 {"error":"bad request body: json: cannot unmarshal object into Go struct field Request.asof of type store.Gen"}
query asof []: 400 {"error":"bad request body: json: cannot unmarshal array into Go struct field Request.asof of type store.Gen"}
query asof 1: 410 {"doc":"d","query":"/r","count":0,"nodes":null,"visited":0,"elapsed_us":0,"error":"generation 1 of document \"d\" is gone (no live cursor or lease kept it)"}
patch base_gen -1: 400 {"error":"bad request body: json: cannot unmarshal number -1 into Go struct field PatchDocRequest.base_gen of type store.Gen"}
patch base_gen 1.5: 400 {"error":"bad request body: json: cannot unmarshal number 1.5 into Go struct field PatchDocRequest.base_gen of type store.Gen"}
patch base_gen "5": 400 {"error":"bad request body: json: cannot unmarshal string into Go struct field PatchDocRequest.base_gen of type store.Gen"}
patch base_gen 1: 409 {"error":"store: document \"d\": patch base gen 1, latest is G: base generation is not latest"}
?asof=0: 400 {"error":"bad asof: want a generation number"}
?asof=-1: 400 {"error":"bad asof: want a generation number"}
?asof=1.5: 400 {"error":"bad asof: want a generation number"}
?asof=x: 400 {"error":"bad asof: want a generation number"}
?asof=1: 410 {"doc":"d","query":"/r","count":0,"nodes":null,"visited":0,"elapsed_us":0,"error":"generation 1 of document \"d\" is gone (no live cursor or lease kept it)"}
`

// TestGenWireBytes pins that a generation reads and writes the same
// bytes on every surface it crosses: the JSON of responses, stream
// headers, request bodies and the /docs and /stats documents (a zero
// generation omitted where the field is optional, 2^52−1 kept), the
// 400s of malformed asof and base_gen values and of ?asof=, and cursor
// tokens.
func TestGenWireBytes(t *testing.T) {
	var out strings.Builder
	line := func(name, v string) { fmt.Fprintf(&out, "%s: %s\n", name, strings.TrimSuffix(v, "\n")) }
	encode := func(v any) string {
		rec := httptest.NewRecorder()
		writeJSON(rec, http.StatusOK, v)
		return rec.Body.String()
	}
	big := genOf(t, 1<<52-1)
	line("encode response zero gen", encode(Response{Doc: "d", Query: "/a", Nodes: []tree.NodeID{}}))
	line("encode response max gen", encode(Response{Doc: "d", Query: "/a", Strategy: "optimized", Gen: big,
		Count: 2, Nodes: []tree.NodeID{1, 2}, Visited: 3, Next: "tok"}))
	line("encode batch", encode(BatchResponse{Responses: []Response{{Doc: "d", Query: "/a", Gen: genOf(t, 7)}}}))
	line("encode stream header zero gen", encode(StreamHeader{Doc: "d", Query: "/a", Strategy: "hybrid", Count: 5, Visited: 6}))
	line("encode stream header max gen", encode(StreamHeader{Doc: "d", Query: "/a", Strategy: "hybrid", Gen: big, Count: 5, Visited: 6}))
	line("encode request", encode(Request{Doc: "d", Query: "/a", AsOf: genOf(t, 42)}))
	line("encode request zero asof", encode(Request{Doc: "d", Query: "/a"}))
	line("encode patch", encode(PatchDocRequest{Op: "delete", Node: 3, BaseGen: genOf(t, 42)}))
	line("encode patch zero base", encode(PatchDocRequest{Op: "delete", Node: 3}))
	doc := store.Stats{ID: "d", Gen: big, Nodes: 3, Labels: 4, MemBytes: 5, Source: store.SourcePatch,
		LoadedAt: time.Unix(0, 0).UTC(), LiveGens: 2}
	line("encode docs", encode(map[string]any{"documents": []store.Stats{doc, {ID: "e"}}}))
	// The rest of /stats carries no generation.
	var stats struct{ Documents json.RawMessage }
	if err := json.Unmarshal([]byte(encode(Stats{Documents: []store.Stats{doc}})), &stats); err != nil {
		t.Fatal(err)
	}
	line("encode stats documents", string(stats.Documents))
	line("cursor", encodeCursor("xm", big, 41))

	for _, tc := range []struct{ field, v string }{{"asof", "4503599627370495"}, {"asof", "0"}, {"asof", "null"}, {"base_gen", "9"}} {
		var req struct {
			AsOf    store.Gen `json:"asof"`
			BaseGen store.Gen `json:"base_gen"`
		}
		err := json.Unmarshal([]byte(`{"`+tc.field+`":`+tc.v+`}`), &req)
		line("decode "+tc.field+" "+tc.v, fmt.Sprintf("asof %s base_gen %s %v", req.AsOf, req.BaseGen, err))
	}

	srv := newTestServer(t)
	var loaded store.Stats
	if code := doJSON(t, "POST", srv.URL+"/docs", LoadRequest{ID: "d", XML: "<r><a/></r>"}, &loaded); code != http.StatusCreated {
		t.Fatalf("load: status %d", code)
	}
	send := func(name, method, url, body string) {
		req, err := http.NewRequest(method, url, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		// The loaded generation is clock-seeded: name it G.
		b = bytes.ReplaceAll(b, []byte(loaded.Gen.String()), []byte("G"))
		line(name, fmt.Sprintf("%d %s", resp.StatusCode, b))
	}
	for _, v := range []string{"-1", "1.5", "1e3", "18446744073709551616", `"5"`, "true", "{}", "[]", "1"} {
		send("query asof "+v, "POST", srv.URL+"/query", `{"doc":"d","query":"/r","asof":`+v+`}`)
	}
	for _, v := range []string{"-1", "1.5", `"5"`, "1"} {
		send("patch base_gen "+v, "PATCH", srv.URL+"/docs/d", `{"op":"delete","node":2,"base_gen":`+v+`}`)
	}
	for _, v := range []string{"0", "-1", "1.5", "x", "1"} {
		send("?asof="+v, "POST", srv.URL+"/query?asof="+v, `{"doc":"d","query":"/r"}`)
	}

	if got := out.String(); got != genWireGolden {
		t.Errorf("wire bytes moved:\n%s", got)
	}
}
