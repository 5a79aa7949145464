package service

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/obsv"
	"repro/internal/shard"
	"repro/internal/tree"
)

// TestStreamEvictReloadRace is the streaming hammer: readers stream and
// page one document while a churn goroutine evicts and reloads it with
// different contents under the same id. Every observation must be one
// of exactly two things — a clean error (document missing, or a stale
// cursor refused by the generation check) or a complete answer equal to
// one single load's ground truth. A torn page (nodes from two loads
// mixed) or a stale page (resume serving the old tree after reload)
// fails the test. Run under -race (CI does) this also proves the
// streaming path data-race-free.
func TestStreamEvictReloadRace(t *testing.T) {
	defer assertGoroutinesSettle(t, runtime.NumGoroutine())
	const query = "//keyword"
	seeds := []int64{1, 2, 3}

	// Ground truth per seed, computed on isolated stores.
	exp := make(map[string][]tree.NodeID)
	for _, seed := range seeds {
		ref := New(shard.NewStore(1), Options{Workers: 1})
		if _, err := ref.Store().GenerateXMark("hot", 0.002, seed); err != nil {
			t.Fatal(err)
		}
		resp := ref.Eval(Request{Doc: "hot", Query: query})
		if resp.Err != "" || len(resp.Nodes) < 10 {
			t.Fatalf("seed %d ground truth: count=%d err=%q", seed, len(resp.Nodes), resp.Err)
		}
		exp[key(resp.Nodes)] = resp.Nodes
	}

	matchesSomeSeed := func(nodes []tree.NodeID) bool {
		_, ok := exp[key(nodes)]
		return ok
	}
	cleanErr := func(resp *Response) bool {
		return resp.outcome == obsv.OutcomeNotFound || resp.outcome == obsv.OutcomeStaleCursor ||
			strings.Contains(resp.Err, "no such document")
	}

	svc := New(shard.NewStore(1), Options{CacheSize: 16})
	if _, err := svc.Store().GenerateXMark("hot", 0.002, seeds[0]); err != nil {
		t.Fatal(err)
	}

	var readersWG, churnWG sync.WaitGroup
	stop := make(chan struct{})

	// Churn: evict + reload with a rotating seed.
	churnWG.Add(1)
	go func() {
		defer churnWG.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			svc.EvictDoc("hot")
			if _, err := svc.Store().GenerateXMark("hot", 0.002, seeds[i%len(seeds)]); err != nil {
				t.Errorf("churn reload: %v", err)
				return
			}
		}
	}()

	const readers = 6
	const iters = 60
	for r := 0; r < readers; r++ {
		readersWG.Add(1)
		go func(r int) {
			defer readersWG.Done()
			for i := 0; i < iters; i++ {
				if i%2 == 0 {
					// Full stream into a buffer; preflight failures
					// must be clean, successes must match one seed.
					var buf bytes.Buffer
					if pre := svc.Stream(&buf, Request{Doc: "hot", Query: query}, 8); pre != nil {
						if !cleanErr(pre) {
							t.Errorf("reader %d: dirty stream preflight: %+v", r, pre)
						}
						continue
					}
					nodes, err := parseStreamNodes(&buf)
					if err != nil {
						t.Errorf("reader %d: %v", r, err)
						continue
					}
					if !matchesSomeSeed(nodes) {
						t.Errorf("reader %d: torn stream: %d nodes match no single load", r, len(nodes))
					}
					continue
				}
				// Paged reads: every completed pagination must match one
				// seed; interrupted ones must end in a clean error.
				var nodes []tree.NodeID
				cursor := ""
				for {
					resp := svc.Eval(Request{Doc: "hot", Query: query, Limit: 5, Cursor: cursor})
					if resp.Err != "" {
						if !cleanErr(&resp) {
							t.Errorf("reader %d: dirty page error: %+v", r, resp)
						}
						nodes = nil
						break
					}
					nodes = append(nodes, resp.Nodes...)
					if resp.Next == "" {
						break
					}
					cursor = resp.Next
				}
				if nodes != nil && !matchesSomeSeed(nodes) {
					t.Errorf("reader %d: torn/stale pagination: %d nodes match no single load", r, len(nodes))
				}
			}
		}(r)
	}

	readersWG.Wait()
	close(stop)
	churnWG.Wait()
	assertPoolSettled(t, svc)
}

// key canonicalizes a node list for set comparison.
func key(nodes []tree.NodeID) string {
	var sb strings.Builder
	for _, v := range nodes {
		fmt.Fprintf(&sb, "%d,", v)
	}
	return sb.String()
}

// parseStreamNodes concatenates the node chunks of a buffered NDJSON
// stream, failing on malformed lines or a missing trailer.
func parseStreamNodes(buf *bytes.Buffer) ([]tree.NodeID, error) {
	sc := bufio.NewScanner(buf)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var nodes []tree.NodeID
	line := 0
	sawTrailer := false
	for sc.Scan() {
		raw := sc.Bytes()
		if line == 0 {
			var h StreamHeader
			if err := json.Unmarshal(raw, &h); err != nil {
				return nil, fmt.Errorf("stream header: %v", err)
			}
			line++
			continue
		}
		if bytes.Contains(raw, []byte(`"done"`)) {
			var tr StreamTrailer
			if err := json.Unmarshal(raw, &tr); err != nil {
				return nil, fmt.Errorf("stream trailer: %v", err)
			}
			sawTrailer = true
			line++
			continue
		}
		var c StreamChunk
		if err := json.Unmarshal(raw, &c); err != nil {
			return nil, fmt.Errorf("stream chunk: %v", err)
		}
		nodes = append(nodes, c.Nodes...)
		line++
	}
	if !sawTrailer {
		return nil, fmt.Errorf("stream ended without trailer")
	}
	return nodes, sc.Err()
}
