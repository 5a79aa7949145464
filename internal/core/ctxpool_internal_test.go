package core

import (
	"fmt"
	"slices"
	"sync"
	"testing"

	"repro/internal/asta"
	"repro/internal/compile"
	"repro/internal/index"
	"repro/internal/qcache"
	"repro/internal/tree"
	"repro/internal/xmark"
	"repro/internal/xmlparse"
)

func poolTestEngine(t *testing.T) (*Engine, *tree.Document) {
	t.Helper()
	d := xmark.Generate(xmark.Config{Scale: 0.002, Seed: 1})
	return New(d), d
}

// TestPoolCheckoutReusesContext: the second evaluation of the same
// query on the same engine must be served by the pooled context (hit),
// and releases must keep the resident gauge consistent.
func TestPoolCheckoutReusesContext(t *testing.T) {
	e, _ := poolTestEngine(t)
	const q = "//listitem//keyword"
	for i := 0; i < 3; i++ {
		if _, err := e.QueryWith(q, Optimized); err != nil {
			t.Fatal(err)
		}
	}
	ps := e.pool.Stats()
	if ps.Misses != 1 {
		t.Errorf("misses = %d, want 1 (one cold construction)", ps.Misses)
	}
	if ps.Hits != 2 {
		t.Errorf("hits = %d, want 2", ps.Hits)
	}
	if ps.Resident != 1 {
		t.Errorf("resident = %d, want 1", ps.Resident)
	}
	if ps.ArenaBytes <= 0 {
		t.Errorf("arena bytes = %d, want > 0 for a resident context", ps.ArenaBytes)
	}
	if ps.GuardTrips != 0 {
		t.Errorf("guard trips = %d, want 0 on a single engine", ps.GuardTrips)
	}
}

// TestPoolCursorHeldContextReturnsOnExhaustionAndClose: an ASTA cursor
// owns a copy of its answer, so the context that ran the query is back
// in the pool before EvalCursor returns — before the cursor is read,
// at its exhaustion and after Close alike, exactly one context is
// parked and none is outstanding. A second cursor of the same query,
// made while the first is unread, is served warm. Both drain to the
// step-wise answer, for a chain that arrives in document order (the
// child-axis query) and for one that does not (descendant steps under
// jumped regions union out of order, and are sorted where they lie).
// Close ends a read, keeps Count, hands nothing back and may be
// repeated.
func TestPoolCursorHeldContextReturnsOnExhaustionAndClose(t *testing.T) {
	for _, q := range []string{"/site/regions/*/item", "//listitem//keyword"} {
		t.Run(q, func(t *testing.T) {
			e, _ := poolTestEngine(t)
			want, err := e.QueryWith(q, Stepwise)
			if err != nil {
				t.Fatal(err)
			}

			first, err := e.EvalCursor(q, Optimized)
			if err != nil {
				t.Fatal(err)
			}
			if ps := e.pool.Stats(); ps.Resident != 1 || outstanding(ps) != 0 {
				t.Fatalf("context not parked before the cursor was read: %+v", ps)
			}
			second, err := e.EvalCursor(q, Optimized)
			if err != nil {
				t.Fatal(err)
			}
			if !second.Run().CtxPoolHit {
				t.Error("a second cursor made while the first is unread was not served warm")
			}
			for _, cur := range []*Cursor{first, second} {
				if got := collect(t, cur); !slices.Equal(got, want.Nodes) || len(got) == 0 {
					t.Fatalf("cursor drained %d nodes, oracle %d", len(got), len(want.Nodes))
				}
			}
			if ps := e.pool.Stats(); ps.Resident != 1 || outstanding(ps) != 0 {
				t.Errorf("pool after exhaustion: %+v, want one context parked", ps)
			}

			cur, err := e.EvalCursor(q, Optimized)
			if err != nil {
				t.Fatal(err)
			}
			before := e.pool.Stats()
			if _, ok := cur.Next(); !ok {
				t.Fatal("expected a non-empty answer")
			}
			cur.Close() // abandon mid-answer, like a paged request
			if _, ok := cur.Next(); ok || cur.Count() != len(want.Nodes) {
				t.Errorf("closed cursor: ok=%v count=%d, want exhausted and %d", ok, cur.Count(), len(want.Nodes))
			}
			cur.Close() // idempotent
			if after := e.pool.Stats(); after != before || outstanding(after) != 0 || after.GuardTrips != 0 {
				t.Errorf("Close moved the pool: %+v -> %+v", before, after)
			}
		})
	}
}

// TestPoolCloseStopsRopeCursor: Close on an ASTA cursor read part way
// leaves it exhausted — Next and NextBatch yield nothing more, Take
// returns an empty window — while Count keeps the full cardinality and
// the pool, which got its context back when the cursor was made, is
// not touched.
func TestPoolCloseStopsRopeCursor(t *testing.T) {
	e, _ := poolTestEngine(t)
	const q = "/site/regions/*/item"
	cur, err := e.EvalCursor(q, Optimized)
	if err != nil {
		t.Fatal(err)
	}
	total := cur.Count()
	if total < 2 {
		t.Fatal("expected an answer of several nodes")
	}
	if _, ok := cur.Next(); !ok {
		t.Fatal("first read failed")
	}
	before := e.pool.Stats()
	if before.Resident != 1 {
		t.Fatalf("context not parked mid-answer (resident=%d)", before.Resident)
	}
	cur.Close()
	if _, ok := cur.Next(); ok {
		t.Error("closed cursor still yields nodes")
	}
	if n := cur.NextBatch(make([]tree.NodeID, 4)); n != 0 {
		t.Errorf("closed cursor still fills batches (%d nodes)", n)
	}
	if w := cur.Take(4); len(w) != 0 {
		t.Errorf("closed cursor still hands out windows (%d nodes)", len(w))
	}
	if cur.Remaining() != 0 || cur.Count() != total {
		t.Errorf("closed cursor: remaining=%d count=%d, want 0 and %d", cur.Remaining(), cur.Count(), total)
	}
	if after := e.pool.Stats(); after != before {
		t.Errorf("Close moved the pool: %+v -> %+v", before, after)
	}
}

// TestPoolKeysByOptions: a context is made for one (automaton,
// options) pair, so mixed-strategy traffic on one query parks on one
// free list per strategy. Interleaving the four ASTA strategies, each
// makes one context cold and is served warm on every later run, and
// every answer is a fresh evaluation's.
func TestPoolKeysByOptions(t *testing.T) {
	e, d := poolTestEngine(t)
	const q = "//listitem//keyword"
	strategies := []Strategy{Naive, Jumping, Memoized, Optimized}
	const rounds = 3
	for i := 0; i < rounds; i++ {
		for _, s := range strategies {
			cur, err := e.EvalCursor(q, s)
			if err != nil {
				t.Fatal(err)
			}
			if warm := cur.Run().CtxPoolHit; warm != (i > 0) {
				t.Errorf("round %d %v: warm = %v, want %v", i, s, warm, i > 0)
			}
			v, ok := e.cache.Get(e.cacheKey(q))
			if !ok {
				t.Fatalf("%s is not cached", q)
			}
			want := v.(*compiled).aut.Load().Eval(d, e.ix, s.ASTAOptions())
			if got := collect(t, cur); !slices.Equal(got, want.Selected) || len(got) == 0 {
				t.Fatalf("round %d %v: %d nodes, a fresh asta.Eval %d", i, s, len(got), len(want.Selected))
			}
		}
	}
	ps := e.pool.Stats()
	if want := uint64(len(strategies)); ps.Misses != want {
		t.Errorf("misses = %d, want %d (one cold context per strategy)", ps.Misses, want)
	}
	if want := uint64((rounds - 1) * len(strategies)); ps.Hits != want {
		t.Errorf("hits = %d, want %d", ps.Hits, want)
	}
}

// outstanding is the number of contexts checked out and not yet handed
// back: every context is made by a miss and ends dropped or parked.
func outstanding(ps PoolStats) int64 {
	return int64(ps.Misses) - int64(ps.Drops) - int64(ps.Resident)
}

// TestPoolEvictsStaleKeysUnderPressure: warm contexts hang on their
// automaton's cache entry, so the query cache's LRU is the pool's only
// recency policy — an automaton pushed out of the cache takes its
// contexts with it (no stale key squats), the newest automata stay
// warm, and the resident gauge is bounded by the cache's capacity.
func TestPoolEvictsStaleKeysUnderPressure(t *testing.T) {
	const capacity = 4
	d := xmark.Generate(xmark.Config{Scale: 0.002, Seed: 1})
	e := NewWithIndex(d, index.New(d), qcache.New(capacity), "")
	queries := make([]string, 0, 3*capacity)
	for i := 0; i < 3*capacity; i++ {
		queries = append(queries, fmt.Sprintf("//listitem//label%03d", i))
	}
	for _, q := range queries {
		if _, err := e.QueryWith(q, Optimized); err != nil {
			t.Fatal(err)
		}
	}
	last := queries[len(queries)-1]
	hits0 := e.pool.Stats().Hits
	if _, err := e.QueryWith(last, Optimized); err != nil {
		t.Fatal(err)
	}
	ps := e.pool.Stats()
	if ps.Hits != hits0+1 {
		t.Errorf("newest automaton did not stay pooled under cache pressure (hits %d -> %d)", hits0, ps.Hits)
	}
	if ps.Resident != capacity {
		t.Errorf("resident = %d, want %d: one context per automaton still cached", ps.Resident, capacity)
	}
	if want := uint64(len(queries) - capacity); ps.Drops != want {
		t.Errorf("drops = %d, want %d: one context per evicted automaton", ps.Drops, want)
	}
	if n := outstanding(ps); n != 0 {
		t.Errorf("%d contexts unaccounted for: %+v", n, ps)
	}

	// A context checked out when its automaton is evicted is handed to
	// an entry nothing will look up again: dropped, not parked.
	cv, ctx := stealPooled(t, e, last)
	for _, q := range queries[:capacity] {
		if _, err := e.QueryWith(q, Optimized); err != nil {
			t.Fatal(err)
		}
	}
	before := e.pool.Stats()
	cv.release(Optimized, ctx)
	after := e.pool.Stats()
	if after.Drops != before.Drops+1 || after.Resident != before.Resident {
		t.Errorf("context of an evicted automaton was parked: %+v -> %+v", before, after)
	}
	if n := outstanding(after); n != 0 {
		t.Errorf("%d contexts unaccounted for: %+v", n, after)
	}
}

// TestPoolResidentByteBudget: the pool's summed resident scratch is
// byte-capped; a release that would exceed the budget drops the
// context instead of parking it.
func TestPoolResidentByteBudget(t *testing.T) {
	e, _ := poolTestEngine(t)
	const q = "//listitem//keyword"
	if _, err := e.QueryWith(q, Optimized); err != nil {
		t.Fatal(err)
	}
	cv, ctx := stealPooled(t, e, q)
	old := maxPoolResidentBytes
	maxPoolResidentBytes = 1
	defer func() { maxPoolResidentBytes = old }()
	drops0 := e.pool.Stats().Drops
	cv.release(Optimized, ctx)
	ps := e.pool.Stats()
	if ps.Drops != drops0+1 || ps.Resident != 0 {
		t.Errorf("budget-exceeding release not dropped: %+v", ps)
	}
}

// wrongTableDoc has the vocabulary of the test engine's queries interned
// in another order, so an automaton compiled for it guards other label
// ids than the XMark document's.
const wrongTableDoc = "<keyword><listitem><site/></listitem></keyword>"

// TestGuardCountsWrongTableAutomaton: a compiled query depends on the
// label table it was compiled against and on nothing else, so that is
// what a lookup checks. An entry of another table planted under the
// right key must be counted (GuardTrips) and not used, by every
// strategy: every answer still equals the step-wise oracle's. This
// simulates the one failure the guard exists for — a key that does not
// carry what its value depends on.
func TestGuardCountsWrongTableAutomaton(t *testing.T) {
	e, d := poolTestEngine(t)
	other, err := xmlparse.ParseString(wrongTableDoc)
	if err != nil {
		t.Fatal(err)
	}
	const q = "//listitem//keyword"
	// The oracle runs on an engine of its own: on e, its lookup would
	// fill the key the wrong entry is planted under.
	want, err := New(d).QueryWith(q, Stepwise)
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Nodes) == 0 {
		t.Fatal("oracle answer is empty; the wrong automaton could not be told from the right one")
	}
	p := mustPath(t, q)
	wrong, err := compile.ToASTA(p, other.Names())
	if err != nil {
		t.Fatal(err)
	}
	e.cache.GetOrCompile(e.cacheKey(q), func() (any, error) {
		cv := &compiled{names: other.Names(), pool: e.pool}
		cv.aut.Store(wrong)
		cv.det.Store(compile.DeterminizeTopDown(wrong))
		return cv, nil
	})

	for i, s := range []Strategy{Optimized, Memoized, TopDownDet, Hybrid, Stepwise, Auto} {
		got, err := e.QueryWith(q, s)
		if err != nil {
			t.Fatal(err)
		}
		if len(got.Nodes) != len(want.Nodes) {
			t.Fatalf("%v: guarded evaluation diverged: %d vs %d nodes", s, len(got.Nodes), len(want.Nodes))
		}
		for j := range want.Nodes {
			if got.Nodes[j] != want.Nodes[j] {
				t.Fatalf("%v: guarded evaluation diverged at %d", s, j)
			}
		}
		if trips := e.pool.Stats().GuardTrips; trips != uint64(i+1) {
			t.Errorf("after %v: guard trips = %d, want %d", s, trips, i+1)
		}
	}
	// The planted entry was neither used nor replaced, and the automata
	// compiled in its stead parked nothing.
	if ps := e.pool.Stats(); ps.Resident != 0 || outstanding(ps) != 0 {
		t.Errorf("guarded runs left contexts behind: %+v", ps)
	}
}

// stealPooled checks out the parked Optimized context of query q.
func stealPooled(t *testing.T, e *Engine, q string) (*compiled, *asta.Context) {
	t.Helper()
	v, ok := e.cache.Get(e.cacheKey(q))
	if !ok {
		t.Fatalf("%s is not cached", q)
	}
	cv := v.(*compiled)
	ctx, warm := cv.checkout(Optimized)
	if !warm {
		t.Fatal("no pooled context to steal")
	}
	return cv, ctx
}

// TestPoolConcurrentCheckouts: concurrent evaluations of the same
// query must each get a private context (no sharing) and produce
// identical answers; afterwards the pool holds at most maxPerKey.
func TestPoolConcurrentCheckouts(t *testing.T) {
	e, _ := poolTestEngine(t)
	const q = "//listitem[ .//keyword and .//emph]//parlist"
	want, err := e.QueryWith(q, Optimized)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan string, 64)
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				got, err := e.QueryWith(q, Optimized)
				if err != nil {
					errs <- err.Error()
					return
				}
				if len(got.Nodes) != len(want.Nodes) {
					errs <- "answer length diverged under concurrency"
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for msg := range errs {
		t.Fatal(msg)
	}
	if got := e.pool.Stats().Resident; got > maxPerKey() {
		t.Errorf("resident %d exceeds per-key cap %d", got, maxPerKey())
	}
}

// TestPoolOversizedContextDropped: a context whose arenas outgrew the
// retention cap is dropped on release, not parked.
func TestPoolOversizedContextDropped(t *testing.T) {
	e, _ := poolTestEngine(t)
	const q = "//listitem//keyword"
	if _, err := e.QueryWith(q, Optimized); err != nil {
		t.Fatal(err)
	}
	cv, ctx := stealPooled(t, e, q)
	old := maxPooledCtxBytes
	maxPooledCtxBytes = 1 // every real context exceeds this
	defer func() { maxPooledCtxBytes = old }()
	drops0 := e.pool.Stats().Drops
	cv.release(Optimized, ctx)
	ps := e.pool.Stats()
	if ps.Drops != drops0+1 {
		t.Errorf("drops = %d, want %d", ps.Drops, drops0+1)
	}
	if ps.Resident != 0 {
		t.Errorf("oversized context was parked (resident=%d)", ps.Resident)
	}
}

// TestPoolLendsAnswerBuffers: the hybrid and TDSTA runs append their
// answers to a buffer the pool lends and hand the cursor its own copy,
// so a later run over the parked buffer leaves an earlier answer as it
// was; a buffer that grew past maxPooledNodes is dropped, not parked.
func TestPoolLendsAnswerBuffers(t *testing.T) {
	e, _ := poolTestEngine(t)
	for _, s := range []Strategy{Hybrid, TopDownDet} {
		first, err := e.QueryWith("/site//keyword", s)
		if err != nil {
			t.Fatal(err)
		}
		kept := slices.Clone(first.Nodes)
		if e.pool.n != 1 {
			t.Fatalf("%v: %d buffers parked after one run, want 1", s, e.pool.n)
		}
		if _, err := e.QueryWith("/site/regions/africa/item", s); err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(first.Nodes, kept) || cap(first.Nodes) != len(first.Nodes) {
			t.Errorf("%v: an answer changed under a later run, or is not sized exactly (len %d, cap %d)", s, len(first.Nodes), cap(first.Nodes))
		}
		e.pool.borrow(nil) // empty the pool again
	}

	old := maxPooledNodes
	maxPooledNodes = 1 // every answer below grows past this
	defer func() { maxPooledNodes = old }()
	if _, err := e.QueryWith("/site//keyword", Hybrid); err != nil {
		t.Fatal(err)
	}
	if e.pool.n != 0 {
		t.Errorf("an oversized buffer was parked (%d parked)", e.pool.n)
	}
}
