package service

import (
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// statsKeys flattens the /stats JSON of s into its set of key paths:
// objects recurse with ".", arrays with "[]". The map keyed by strategy
// name depends on what ran, so it stops at "{}".
func statsKeys(t *testing.T, s *Service) map[string]bool {
	t.Helper()
	raw, err := json.Marshal(s.Stats())
	if err != nil {
		t.Fatal(err)
	}
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
	raw, err := os.ReadFile("testdata/stats_keys.txt")
	if err != nil {
		t.Fatal(err)
	}
	wantIdle, wantBusy := map[string]bool{}, map[string]bool{}
	for _, line := range strings.Split(string(raw), "\n") {
		f := strings.Fields(line)
		if len(f) == 0 || strings.HasPrefix(f[0], "#") {
			continue
		}
		wantBusy[f[0]] = true
		if len(f) == 1 {
			wantIdle[f[0]] = true
		}
	}
	s := newTestService(t, Options{})
	diffKeys(t, "idle", statsKeys(t, s), wantIdle)
	promTraffic(t, s)
	diffKeys(t, "after traffic", statsKeys(t, s), wantBusy)
}

func diffKeys(t *testing.T, when string, got, want map[string]bool) {
	t.Helper()
	for k := range got {
		if !want[k] {
			t.Errorf("%s: /stats grew key %s", when, k)
		}
	}
	for k := range want {
		if !got[k] {
			t.Errorf("%s: /stats lost key %s", when, k)
		}
	}
}
