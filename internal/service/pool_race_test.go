package service

import (
	"bytes"
	"errors"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/obsv"
	"repro/internal/shard"
	"repro/internal/store"
	"repro/internal/tree"
)

// TestPoolSafetyHammer is the pooled-context leak hunt: one document
// id on one shard, hammered by concurrent optimized evaluations
// (one-shot, paged — which abandon cursors mid-answer and Close them
// back into the pool — and streamed) while churners evict and reload
// the id with two different document variants. Pooled evaluation
// contexts retain interned-set tables, memo recipes, jump analyses and
// arenas across requests; the invariant under test is that none of
// that state ever crosses a reload: every successful answer must equal
// the fresh-context oracle of exactly one variant, bit for bit. Run
// under -race (CI does).
func TestPoolSafetyHammer(t *testing.T) {
	defer assertGoroutinesSettle(t, runtime.NumGoroutine())
	const id = "hot"
	// The optimized ASTA path is the pooled one; force it explicitly so
	// Auto's route to hybrid for chains can't bypass the pool.
	const strat = "optimized"
	queries := []string{"//keyword", "//listitem//keyword", "/site//keyword"}
	seeds := []int64{1, 2}

	// Fresh-context oracle: ground truth per (variant, query) computed
	// on isolated services — every evaluation there binds a brand-new
	// context, so no pooled state can contaminate the expectation.
	exp := make(map[string]map[string][]tree.NodeID) // query → key(nodes) → nodes
	for _, q := range queries {
		exp[q] = make(map[string][]tree.NodeID)
	}
	for _, seed := range seeds {
		ref := New(shard.NewStore(1), Options{Workers: 1})
		if _, err := ref.Store().GenerateXMark("truth", 0.002, seed); err != nil {
			t.Fatal(err)
		}
		for _, q := range queries {
			resp := ref.Eval(Request{Doc: "truth", Query: q, Strategy: strat})
			if resp.Err != "" || len(resp.Nodes) == 0 {
				t.Fatalf("oracle seed=%d %s: count=%d err=%q", seed, q, len(resp.Nodes), resp.Err)
			}
			exp[q][key(resp.Nodes)] = resp.Nodes
		}
	}
	matches := func(q string, nodes []tree.NodeID) bool {
		_, ok := exp[q][key(nodes)]
		return ok
	}
	cleanErr := func(resp *Response) bool {
		return resp.outcome == obsv.OutcomeNotFound || resp.outcome == obsv.OutcomeStaleCursor ||
			strings.Contains(resp.Err, "no such document")
	}

	ss := shard.NewStore(1)
	svc := New(ss, Options{CacheSize: 16})
	if _, err := ss.GenerateXMark(id, 0.002, seeds[0]); err != nil {
		t.Fatal(err)
	}

	var readersWG, churnWG sync.WaitGroup
	stop := make(chan struct{})

	// Churner: evict + reload alternating variants, so engines (and
	// with them context pools) are torn down and rebuilt continuously.
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
			if _, err := ss.GenerateXMark(id, 0.002, seeds[i%2]); err != nil &&
				!errors.Is(err, store.ErrExists) {
				t.Errorf("churn reload: %v", err)
				return
			}
		}
	}()

	for g := 0; g < 6; g++ {
		g := g
		readersWG.Add(1)
		go func() {
			defer readersWG.Done()
			const iters = 40
			for i := 0; i < iters; i++ {
				q := queries[(g+i)%len(queries)]
				switch i % 3 {
				case 0: // one-shot
					resp := svc.Eval(Request{Doc: id, Query: q, Strategy: strat})
					if resp.Err != "" {
						if !cleanErr(&resp) {
							t.Errorf("dirty error: %+v", resp)
						}
						continue
					}
					if !matches(q, resp.Nodes) {
						t.Errorf("%s: answer matches no fresh-context oracle (%d nodes)", q, len(resp.Nodes))
					}
				case 1: // paged: every page checks out and Closes a context
					var nodes []tree.NodeID
					cursor := ""
					for {
						resp := svc.Eval(Request{Doc: id, Query: q, Strategy: strat, Limit: 7, Cursor: cursor})
						if resp.Err != "" {
							if !cleanErr(&resp) {
								t.Errorf("dirty page error: %+v", resp)
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
					if nodes != nil && !matches(q, nodes) {
						t.Errorf("%s: paged answer matches no fresh-context oracle (%d nodes)", q, len(nodes))
					}
				case 2: // streamed: context rides the whole stream
					var buf bytes.Buffer
					if pre := svc.Stream(&buf, Request{Doc: id, Query: q, Strategy: strat}, 8); pre != nil {
						if !cleanErr(pre) {
							t.Errorf("dirty stream preflight: %+v", pre)
						}
						continue
					}
					nodes, err := parseStreamNodes(&buf)
					if err != nil {
						t.Errorf("%s: %v", q, err)
						continue
					}
					if !matches(q, nodes) {
						t.Errorf("%s: streamed answer matches no fresh-context oracle (%d nodes)", q, len(nodes))
					}
				}
			}
		}()
	}

	readersWG.Wait()
	close(stop)
	churnWG.Wait()

	// Readers abandoned cursors mid-answer while their document was
	// evicted under them: every context still has to be accounted for,
	// and no reload may have been served an earlier load's automaton.
	assertPoolSettled(t, svc)
	st := svc.Stats()
	if st.Queries.Total == 0 {
		t.Error("hammer served no queries")
	}
}

// TestStatsExposesPool: after warm repeat queries, /stats must report
// pool hits, resident contexts with arena bytes, and the allocs/op
// estimate fields.
func TestStatsExposesPool(t *testing.T) {
	svc := New(shard.NewStore(1), Options{})
	if _, err := svc.Store().GenerateXMark("xm", 0.002, 1); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if resp := svc.Eval(Request{Doc: "xm", Query: "//listitem//keyword", Strategy: "optimized"}); resp.Err != "" {
			t.Fatal(resp.Err)
		}
	}
	st := svc.Stats()
	if st.Pool.Hits == 0 {
		t.Errorf("no pool hits after repeat queries: %+v", st.Pool)
	}
	if st.Pool.Resident == 0 || st.Pool.ArenaBytes <= 0 {
		t.Errorf("no resident pooled context reported: %+v", st.Pool)
	}
	if st.PoolHitRate <= 0 || st.PoolHitRate >= 1 {
		t.Errorf("pool hit rate %v out of range", st.PoolHitRate)
	}
	if st.HeapAllocObjects == 0 {
		t.Error("heap alloc counter not wired")
	}
	if st.AllocsPerQuery <= 0 {
		t.Error("allocs-per-query estimate not wired")
	}
}
