package service

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"
)

// statsKeys flattens the /stats JSON of s into its set of key paths.
func statsKeys(t *testing.T, s *Service) map[string]bool {
	t.Helper()
	raw, err := json.Marshal(s.Stats())
	if err != nil {
		t.Fatal(err)
	}
	return jsonKeys(t, raw)
}

// jsonKeys flattens a JSON document into its set of key paths: objects
// recurse with ".", arrays with "[]". The map keyed by strategy name
// depends on what ran, so it stops at "{}".
func jsonKeys(t *testing.T, raw []byte) map[string]bool {
	t.Helper()
	var doc any
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	set := map[string]bool{}
	var walk func(path string, v any)
	walk = func(path string, v any) {
		switch v := v.(type) {
		case map[string]any:
			for k, child := range v {
				p := strings.TrimPrefix(path+"."+k, ".")
				if k == "by_strategy" {
					set[p+"{}"] = true
					continue
				}
				walk(p, child)
			}
		case []any:
			for _, child := range v {
				walk(path+"[]", child)
			}
		default:
			set[path] = true
		}
	}
	walk("", doc)
	return set
}

// TestStatsKeySet pins the /stats JSON contract: the key paths of an
// idle service and of one that served the exposition test's traffic,
// against testdata/stats_keys.txt. A line marked "traffic" is a key an
// idle service omits (omitempty); every other key is always present.
func TestStatsKeySet(t *testing.T) {
	wantIdle, wantBusy := readKeys(t, "testdata/stats_keys.txt")
	s := newTestService(t, Options{})
	diffKeys(t, "/stats idle", statsKeys(t, s), wantIdle)
	promTraffic(t, s)
	diffKeys(t, "/stats after traffic", statsKeys(t, s), wantBusy)
}

// TestExplainAndFlightKeySets pins two more JSON contracts the same way:
// the counters of an explained /query and one /debug/queries record,
// against testdata/explain_counters_keys.txt and flight_record_keys.txt.
// The inputs set every omitempty key: an Auto query has a strategy, a
// shape and a reason, and the record is of a stream that lost its
// client past the slow threshold under a request id.
func TestExplainAndFlightKeySets(t *testing.T) {
	s := newTestService(t, Options{SlowQuery: time.Nanosecond})
	h := NewHandler(s, HandlerOptions{})
	get := func(method, url, body string) []byte {
		t.Helper()
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(method, url, strings.NewReader(body)))
		if w.Code != http.StatusOK {
			t.Fatalf("%s %s: status %d: %s", method, url, w.Code, w.Body)
		}
		return w.Body.Bytes()
	}

	var explained struct {
		Explain struct {
			Counters json.RawMessage `json:"counters"`
		} `json:"explain"`
	}
	if err := json.Unmarshal(get("POST", "/query?explain=1", `{"doc":"d1","query":"//a/b"}`), &explained); err != nil {
		t.Fatal(err)
	}
	_, want := readKeys(t, "testdata/explain_counters_keys.txt")
	diffKeys(t, "explain.counters", jsonKeys(t, explained.Explain.Counters), want)

	s.Stream(&failAfter{n: 1, stall: time.Millisecond}, Request{Doc: "d1", Query: "//a/b", RequestID: "keys"}, 1)
	var flight struct {
		Records []json.RawMessage `json:"records"`
	}
	if err := json.Unmarshal(get("GET", "/debug/queries?n=1", ""), &flight); err != nil || len(flight.Records) != 1 {
		t.Fatalf("/debug/queries: %d records, %v", len(flight.Records), err)
	}
	_, want = readKeys(t, "testdata/flight_record_keys.txt")
	diffKeys(t, "flight record", jsonKeys(t, flight.Records[0]), want)
}

// readKeys reads a key-set golden: one key path a line, "#" comments.
// idle holds the unmarked keys, all every key, including those marked
// "traffic" (present only once traffic has run).
func readKeys(t *testing.T, path string) (idle, all map[string]bool) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	idle, all = map[string]bool{}, map[string]bool{}
	for _, line := range strings.Split(string(raw), "\n") {
		f := strings.Fields(line)
		if len(f) == 0 || strings.HasPrefix(f[0], "#") {
			continue
		}
		all[f[0]] = true
		if len(f) == 1 {
			idle[f[0]] = true
		}
	}
	return idle, all
}

func diffKeys(t *testing.T, what string, got, want map[string]bool) {
	t.Helper()
	for k := range got {
		if !want[k] {
			t.Errorf("%s: grew key %s", what, k)
		}
	}
	for k := range want {
		if !got[k] {
			t.Errorf("%s: lost key %s", what, k)
		}
	}
}
