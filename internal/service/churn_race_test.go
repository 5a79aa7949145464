package service

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/obsv"
	"repro/internal/shard"
	"repro/internal/store"
	"repro/internal/tree"
)

// TestChurnHammer is the load/evict concurrency hammer: on eight
// documents of one service at once — loads (XML and XMark, with a
// racing duplicate loader exercising the store's id reservation),
// evictions, one-shot and paged Evals, and NDJSON streams, including
// evict-while-streaming. Every observation must be one of exactly two
// things: a clean error (document missing, stale cursor, or ErrExists
// on the racing load) or a complete answer equal to one single load's
// ground truth. Run under -race (CI does) this is the serving layer's
// thread-safety proof under document churn.
func TestChurnHammer(t *testing.T) {
	defer assertGoroutinesSettle(t, runtime.NumGoroutine())
	const query = "//keyword"
	const smallXML = "<r><keyword/><a><keyword/><b><keyword/></b></a></r>"
	const readerIters = 30
	xmarkSeeds := []int64{1, 2}

	// Ground truth per load variant, computed on isolated services.
	// XMark generation is deterministic in (scale, seed), so the truth is
	// the same for every document id.
	exp := make(map[string][]tree.NodeID)
	addTruth := func(load func(ss *store.Store) error) {
		t.Helper()
		ref := New(shard.NewStore(1), Options{Workers: 1})
		if err := load(ref.Store()); err != nil {
			t.Fatal(err)
		}
		resp := ref.Eval(Request{Doc: "truth", Query: query})
		if resp.Err != "" || len(resp.Nodes) == 0 {
			t.Fatalf("ground truth: count=%d err=%q", len(resp.Nodes), resp.Err)
		}
		exp[key(resp.Nodes)] = resp.Nodes
	}
	for _, seed := range xmarkSeeds {
		seed := seed
		addTruth(func(ss *store.Store) error {
			_, err := ss.GenerateXMark("truth", 0.002, seed)
			return err
		})
	}
	addTruth(func(ss *store.Store) error {
		_, err := ss.LoadXML("truth", []byte(smallXML))
		return err
	})

	matchesSomeLoad := func(nodes []tree.NodeID) bool {
		_, ok := exp[key(nodes)]
		return ok
	}
	cleanErr := func(resp *Response) bool {
		return resp.outcome == obsv.OutcomeNotFound || resp.outcome == obsv.OutcomeStaleCursor ||
			strings.Contains(resp.Err, "no such document")
	}

	svc := New(shard.NewStore(1), Options{CacheSize: 16})
	ss := svc.Store()
	ids := make([]string, 8)
	for i := range ids {
		ids[i] = fmt.Sprintf("doc-%d", i)
	}
	for _, id := range ids {
		if _, err := ss.GenerateXMark(id, 0.002, xmarkSeeds[0]); err != nil {
			t.Fatal(err)
		}
	}

	var readersWG, churnWG sync.WaitGroup
	stop := make(chan struct{})

	for _, id := range ids {
		id := id

		// Churn: evict, then reload as XMark or XML with rotating content.
		churnWG.Add(1)
		go func() {
			defer churnWG.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				svc.EvictDoc(id)
				var err error
				if i%3 == 2 {
					_, err = ss.LoadXML(id, []byte(smallXML))
				} else {
					_, err = ss.GenerateXMark(id, 0.002, xmarkSeeds[i%2])
				}
				// The duplicate loader below may have reserved the id.
				if err != nil && !errors.Is(err, store.ErrExists) {
					t.Errorf("churn reload %s: %v", id, err)
					return
				}
			}
		}()

		// Duplicate loader: races the churner for the same id, so the
		// reservation runs under contention on every document.
		churnWG.Add(1)
		go func() {
			defer churnWG.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := ss.LoadXML(id, []byte(smallXML)); err != nil &&
					!errors.Is(err, store.ErrExists) {
					t.Errorf("dup load %s: %v", id, err)
					return
				}
			}
		}()

		// Reader: full streams (evict-while-streaming lands here) and
		// paged evals, interleaved.
		readersWG.Add(1)
		go func() {
			defer readersWG.Done()
			for i := 0; i < readerIters; i++ {
				if i%2 == 0 {
					var buf bytes.Buffer
					if pre := svc.Stream(&buf, Request{Doc: id, Query: query}, 4); pre != nil {
						if !cleanErr(pre) {
							t.Errorf("%s: dirty stream preflight: %+v", id, pre)
						}
						continue
					}
					nodes, err := parseStreamNodes(&buf)
					if err != nil {
						t.Errorf("%s: %v", id, err)
						continue
					}
					if !matchesSomeLoad(nodes) {
						t.Errorf("%s: torn stream: %d nodes match no single load", id, len(nodes))
					}
					continue
				}
				var nodes []tree.NodeID
				cursor := ""
				for {
					resp := svc.Eval(Request{Doc: id, Query: query, Limit: 5, Cursor: cursor})
					if resp.Err != "" {
						if !cleanErr(&resp) {
							t.Errorf("%s: dirty page error: %+v", id, resp)
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
				if nodes != nil && !matchesSomeLoad(nodes) {
					t.Errorf("%s: torn/stale pagination: %d nodes match no single load", id, len(nodes))
				}
			}
		}()
	}

	readersWG.Wait()
	close(stop)
	churnWG.Wait()
	assertPoolSettled(t, svc)

	// The hammer must have exercised every document, not just warmed
	// one: every reader iteration is at least one query.
	if got, want := svc.Stats().Queries.Total, uint64(len(ids)*readerIters); got < want {
		t.Errorf("the hammer served %d queries, want at least %d", got, want)
	}
}
