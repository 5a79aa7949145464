package service

import (
	"bytes"
	"encoding/json"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/obsv"
)

// lockedBuffer is a log sink safe for the batch workers' concurrent
// writes.
type lockedBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (l *lockedBuffer) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

func (l *lockedBuffer) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}

// plant caches val under key the one way a value enters the cache: a
// compile that returns it.
func plant(s *Service, key string, val any) {
	s.cache.GetOrCompile(key, func() (any, error) { return val, nil })
}

// TestPanicStopsAtTheRequest forces a deterministic panic — a value of
// the wrong type cached under the key core looks up for a query —
// and checks that it costs the panicking request and nothing else: a
// generic 500 from /query, a failed response before the header of
// /query/stream, an Err on that one /batch member while the other is
// answered, the pinned generation retired by the next PATCH, one flight
// record with outcome panic per request, the stack in the log, and the
// pool books balanced.
func TestPanicStopsAtTheRequest(t *testing.T) {
	var logs lockedBuffer
	s := newTestService(t, Options{Workers: 2, Logger: slog.New(slog.NewTextHandler(&logs, nil))})
	const query = "//a/b"
	h, ok := s.Store().Get("d1")
	if !ok {
		t.Fatal("d1 missing")
	}
	plant(s, strconv.FormatUint(h.Doc.Names().ID(), 10)+"\x00"+query, "not an automaton")
	poisoned := Request{Doc: "d1", Query: query, Strategy: "optimized"}
	healthy := Request{Doc: "d1", Query: "//c", Strategy: "optimized"}
	srv := httptest.NewServer(NewHandler(s, HandlerOptions{}))
	defer srv.Close()

	post := func(path, rid string, body any) (int, string, []byte) {
		t.Helper()
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		req, err := http.NewRequest(http.MethodPost, srv.URL+path, bytes.NewReader(b))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("X-Request-Id", rid)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("%s: %v (did the process survive?)", path, err)
		}
		defer resp.Body.Close()
		var out bytes.Buffer
		if _, err := out.ReadFrom(resp.Body); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, resp.Header.Get("Content-Type"), out.Bytes()
	}

	code, _, body := post("/query", "panic-query", poisoned)
	var one Response
	if err := json.Unmarshal(body, &one); err != nil {
		t.Fatalf("/query body %q: %v", body, err)
	}
	if code != http.StatusInternalServerError || one.Err != "internal error" || len(one.Nodes) != 0 {
		t.Errorf("/query: %d %q, want 500 with the generic message and no nodes", code, body)
	}

	code, ctype, body := post("/query/stream", "panic-stream", poisoned)
	if code != http.StatusInternalServerError || ctype != "application/json" || !strings.Contains(string(body), `"error":"internal error"`) {
		t.Errorf("/query/stream: %d %s %q, want a 500 JSON failure before any stream header", code, ctype, body)
	}

	code, _, body = post("/batch", "panic-batch", BatchRequest{Requests: []Request{healthy, poisoned}})
	var batch BatchResponse
	if err := json.Unmarshal(body, &batch); err != nil {
		t.Fatalf("/batch body %q: %v", body, err)
	}
	if code != http.StatusOK || len(batch.Responses) != 2 {
		t.Fatalf("/batch: %d %q, want 200 with two responses", code, body)
	}
	if r := batch.Responses[0]; r.Err != "" || r.Count != 1 {
		t.Errorf("healthy batch member: count=%d err=%q, want 1 node", r.Count, r.Err)
	}
	if r := batch.Responses[1]; r.Err != "internal error" {
		t.Errorf("panicking batch member: err=%q, want the generic message", r.Err)
	}

	// The process is alive and the poisoned key hurts nobody else.
	code, _, body = post("/query", "after", healthy)
	if code != http.StatusOK {
		t.Errorf("query after the panics: %d %q", code, body)
	}

	// Every panicked request dropped its pin: once a PATCH supersedes
	// the generation they pinned, nothing keeps it.
	grow(t, s, "d1")
	if mv := s.Store().MVCC(); mv.PinnedGenerations != 0 {
		t.Errorf("%d generations still pinned after the panics and a PATCH, want 0", mv.PinnedGenerations)
	}

	for _, rid := range []string{"panic-query", "panic-stream", "panic-batch.1"} {
		var recs []obsv.Record
		for _, r := range s.Flight().Snapshot(0, false).Records {
			if r.RequestID == rid {
				recs = append(recs, r)
			}
		}
		if len(recs) != 1 || recs[0].Outcome != obsv.OutcomePanic {
			t.Errorf("%s: flight records %+v, want one with outcome %q", rid, recs, obsv.OutcomePanic)
		}
		if !strings.Contains(logs.String(), "level=ERROR msg=\"query panicked\" req_id="+rid+" ") {
			t.Errorf("%s: no Error log line for the panic", rid)
		}
	}
	if !strings.Contains(logs.String(), "goroutine ") {
		t.Error("the panic log carries no stack")
	}
	assertPoolSettled(t, s)
}
