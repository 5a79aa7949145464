package repro_test

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/index"
	"repro/internal/qcache"
	"repro/internal/service"
	"repro/internal/shard"
	"repro/internal/tree"
	"repro/internal/xmark"
)

var updateLedger = flag.Bool("update", false, "rewrite testdata/work.txt from this build")

const ledgerPath = "testdata/work.txt"

// ledgerStrategies are the engines whose work the ledger pins: every
// forced one, then Auto, whose row names the route it took
// ("auto=hybrid").
var ledgerStrategies = []core.Strategy{
	core.Naive, core.Jumping, core.Memoized, core.Optimized,
	core.Hybrid, core.TopDownDet, core.Stepwise, core.Auto,
}

// ledgerQueries are the fifteen paper queries plus the bulk-stream
// shapes that are not among them (Q11 is the fourth; Q01-Q04 are the
// point-lookup mix). Paper queries are named by id, the others by text.
func ledgerQueries() [][2]string {
	var out [][2]string
	for _, q := range xmark.Queries() {
		out = append(out, [2]string{q.ID, q.XPath})
	}
	for _, q := range []string{"/site//text", "/site//listitem", "/site//emph"} {
		out = append(out, [2]string{q, q})
	}
	return out
}

// TestWorkLedger pins the exact work of every engine on every ledger
// query: visited nodes, index jumps, memo entries and hits, and the
// answer size, each from a fresh engine (cold query cache, cold
// contexts) on XMark seed 1 at two scales. Counts repeat to the digit
// between runs where wall time does not, so a change that claims "same
// work" is held to it here: any difference fails, and
// `go test -run TestWorkLedger -update .` rewrites testdata/work.txt
// for the diff to be reviewed. The file's second block is httpLedger's.
func TestWorkLedger(t *testing.T) {
	var b strings.Builder
	b.WriteString("# scale query strategy visited jumps memo_entries memo_hits selected\n")
	for _, scale := range []float64{0.01, 0.05} {
		d := xmark.Generate(xmark.Config{Scale: scale, Seed: 1})
		ix := index.New(d)
		for _, q := range ledgerQueries() {
			for _, s := range ledgerStrategies {
				e := core.NewWithIndex(d, ix, qcache.New(qcache.DefaultCapacity), "")
				cur, err := e.EvalCursor(q[1], s)
				if err != nil {
					if fragmentLimited(s) {
						continue
					}
					t.Fatalf("%s %v: %v", q[0], s, err)
				}
				w, name := cur.Work(), s.String()
				if s == core.Auto {
					name += "=" + cur.Strategy().String()
				}
				fmt.Fprintf(&b, "%g %s %s %d %d %d %d %d\n", scale, q[0], name,
					w.Visited, w.Jumps, w.MemoEntries, w.MemoHits, cur.Count())
				cur.Close()
			}
		}
	}
	b.WriteString(httpLedger(t))
	got := b.String()
	if *updateLedger {
		if err := os.WriteFile(ledgerPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(ledgerPath)
	if err != nil {
		t.Fatal(err)
	}
	if got == string(raw) {
		return
	}
	g, w := strings.Split(got, "\n"), strings.Split(string(raw), "\n")
	for i := range min(len(g), len(w)) {
		if g[i] != w[i] {
			t.Fatalf("%s line %d:\n got  %q\n want %q\n(rewrite it with -update and review the diff)", ledgerPath, i+1, g[i], w[i])
		}
	}
	t.Fatalf("%s has %d lines, this build %d (rewrite it with -update and review the diff)", ledgerPath, len(w), len(g))
}

// httpLedgerModes are the delivery modes of the HTTP block: pages of
// 100 and of 512 nodes until the answer is drained, and one stream.
var httpLedgerModes = []struct {
	name  string
	limit int // 0 streams
}{{"paged100", 100}, {"paged512", 512}, {"streamed", 0}}

// httpLedger drives the real handler through httptest on XMark 0.01
// (seed 1) with the bulk-stream shapes, draining each answer in every
// mode, and returns one row per (query, mode): the requests it took —
// each runs the engine once — the nodes sent, the nodes collected (the
// sum of every request's count) and their ratio, collected per sent.
// Every mode must deliver the same nodes.
func httpLedger(t *testing.T) string {
	t.Helper()
	svc := service.New(shard.NewStore(1), service.Options{})
	if _, err := svc.Store().GenerateXMark("xm", 0.01, 1); err != nil {
		t.Fatal(err)
	}
	h := service.NewHandler(svc, service.HandlerOptions{})
	post := func(path string, body any) *httptest.ResponseRecorder {
		t.Helper()
		raw, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("POST", path, bytes.NewReader(raw)))
		if rec.Code != http.StatusOK {
			t.Fatalf("POST %s %s: status %d: %s", path, raw, rec.Code, rec.Body)
		}
		return rec
	}
	var b strings.Builder
	b.WriteString("# http scale query mode requests nodes_sent nodes_collected collected_per_sent\n")
	for _, q := range []string{"/site//emph", "/site//listitem", "/site//text"} {
		var want []tree.NodeID
		for _, mode := range httpLedgerModes {
			var sent []tree.NodeID
			requests, collected := 0, 0
			if mode.limit == 0 {
				lines := strings.Split(strings.TrimSpace(post("/query/stream", service.Request{Doc: "xm", Query: q}).Body.String()), "\n")
				var header service.StreamHeader
				var trailer service.StreamTrailer
				err := json.Unmarshal([]byte(lines[0]), &header)
				for _, line := range lines[1 : len(lines)-1] {
					var chunk service.StreamChunk
					if err == nil {
						err = json.Unmarshal([]byte(line), &chunk)
					}
					sent = append(sent, chunk.Nodes...)
				}
				if err == nil {
					err = json.Unmarshal([]byte(lines[len(lines)-1]), &trailer)
				}
				if err != nil || !trailer.Done || trailer.Nodes != len(sent) {
					t.Fatalf("%s streamed: %v, trailer %+v after %d nodes", q, err, trailer, len(sent))
				}
				requests, collected = 1, header.Count
			} else {
				req := service.Request{Doc: "xm", Query: q, Limit: mode.limit}
				for {
					var resp service.Response
					if err := json.Unmarshal(post("/query", req).Body.Bytes(), &resp); err != nil {
						t.Fatal(err)
					}
					requests++
					collected += resp.Count
					sent = append(sent, resp.Nodes...)
					if resp.Next == "" {
						break
					}
					req.Cursor = resp.Next
				}
			}
			if want == nil {
				want = sent
			} else if !slices.Equal(sent, want) {
				t.Fatalf("%s %s: %d nodes sent, %s sent %d others", q, mode.name, len(sent), httpLedgerModes[0].name, len(want))
			}
			fmt.Fprintf(&b, "http 0.01 %s %s %d %d %d %.3f\n", q, mode.name,
				requests, len(sent), collected, float64(collected)/float64(len(sent)))
		}
	}
	return b.String()
}
