package core

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/tree"
	"repro/internal/xmark"
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
	ps := e.PoolStats()
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

// TestPoolCursorHeldContextReturnsOnExhaustionAndClose: a rope cursor
// holds its context until fully read (auto-release) or Closed early;
// both must return exactly one context to the pool.
func TestPoolCursorHeldContextReturnsOnExhaustionAndClose(t *testing.T) {
	e, _ := poolTestEngine(t)
	// A child-axis chain evaluates without out-of-order region jumps,
	// so its rope is in document order and streams directly.
	const q = "/site/regions/*/item"

	cur, err := e.EvalCursor(q, Optimized)
	if err != nil {
		t.Fatal(err)
	}
	if got := e.PoolStats().Resident; got != 0 {
		t.Fatalf("context returned before the cursor finished (resident=%d)", got)
	}
	for {
		if _, ok := cur.Next(); !ok {
			break
		}
	}
	if got := e.PoolStats().Resident; got != 1 {
		t.Errorf("exhaustion did not return the context (resident=%d)", got)
	}

	cur, err = e.EvalCursor(q, Optimized)
	if err != nil {
		t.Fatal(err)
	}
	total := cur.Count()
	if _, ok := cur.Next(); !ok {
		t.Fatal("expected a non-empty answer")
	}
	cur.Close() // abandon mid-answer, like a paged request
	if got := e.PoolStats().Resident; got != 1 {
		t.Errorf("Close did not return the context (resident=%d)", got)
	}
	if cur.Count() != total {
		t.Errorf("Count changed across Close: %d vs %d", cur.Count(), total)
	}
	cur.Close() // idempotent
	if got := e.PoolStats().Resident; got != 1 {
		t.Errorf("double Close corrupted the gauge (resident=%d)", got)
	}
}

// TestUnsortedRopeFlattensAtConstruction: the rope-vs-slice choice is
// made when the cursor is built, so an out-of-order rope is flattened
// and its pooled context is back in the pool before the first read —
// nothing is deferred to Next, Count, SeekPast or Close.
func TestUnsortedRopeFlattensAtConstruction(t *testing.T) {
	e, _ := poolTestEngine(t)
	// Descendant steps under jumped regions union out of order.
	const q = "//listitem//keyword"
	warm, err := e.EvalCursor(q, Optimized)
	if err != nil {
		t.Fatal(err)
	}
	warm.Close()
	baseline := e.PoolStats().Resident
	if baseline != 1 {
		t.Fatalf("baseline resident = %d, want the one warm context", baseline)
	}

	cur, err := e.EvalCursor(q, Optimized)
	if err != nil {
		t.Fatal(err)
	}
	if cur.rope != nil || cur.release != nil {
		t.Fatal("answer rope is in document order; pick a query that still exercises the flatten path")
	}
	ps := e.PoolStats()
	if ps.Resident != baseline {
		t.Errorf("resident = %d before the first Next, want baseline %d (context still checked out)", ps.Resident, baseline)
	}
	if ps.GuardTrips != 0 {
		t.Errorf("guard trips = %d, want 0", ps.GuardTrips)
	}
	want, err := e.QueryWith(q, Stepwise)
	if err != nil {
		t.Fatal(err)
	}
	if cur.Count() != len(want.Nodes) {
		t.Fatalf("count = %d, oracle %d", cur.Count(), len(want.Nodes))
	}
	for i, w := range want.Nodes {
		if v, ok := cur.Next(); !ok || v != w {
			t.Fatalf("node %d = %d (ok=%v), oracle %d", i, v, ok, w)
		}
	}
	cur.Close()
	if got := e.PoolStats().Resident; got != baseline {
		t.Errorf("resident = %d after Close, want %d (double release)", got, baseline)
	}
}

// TestPoolCloseStopsRopeCursor: on a cursor still holding its rope
// (sorted answer, context checked out), Close must both return the
// context and leave the cursor exhausted — the rope lives in the
// recycled arena and must never be read again. Only rope-backed
// cursors have this property; cursors that flattened (unsorted ropes)
// own their slice and stay readable.
func TestPoolCloseStopsRopeCursor(t *testing.T) {
	e, _ := poolTestEngine(t)
	// A child-axis chain evaluates without out-of-order region jumps,
	// so its rope is in document order and streams directly.
	const q = "/site/regions/*/item"
	cur, err := e.EvalCursor(q, Optimized)
	if err != nil {
		t.Fatal(err)
	}
	if cur.Count() == 0 {
		t.Fatal("expected a non-empty answer")
	}
	if _, ok := cur.Next(); !ok {
		t.Fatal("first read failed")
	}
	if got := e.PoolStats().Resident; got != 0 {
		t.Skipf("answer did not stream from the rope (resident=%d); query fell back to a slice", got)
	}
	cur.Close()
	if got := e.PoolStats().Resident; got != 1 {
		t.Errorf("Close did not return the context (resident=%d)", got)
	}
	if _, ok := cur.Next(); ok {
		t.Error("closed rope cursor still yields nodes (would read a recycled arena)")
	}
}

// TestPoolKeysByOptions: mixed-strategy traffic on one query pools
// separately per options — each strategy reaches steady-state hits on
// its own warm context instead of thrashing full rebinds that would be
// miscounted as hits.
func TestPoolKeysByOptions(t *testing.T) {
	e, _ := poolTestEngine(t)
	const q = "//listitem//keyword"
	for i := 0; i < 6; i++ {
		s := Optimized
		if i%2 == 1 {
			s = Memoized
		}
		if _, err := e.QueryWith(q, s); err != nil {
			t.Fatal(err)
		}
	}
	ps := e.PoolStats()
	if ps.Misses != 2 {
		t.Errorf("misses = %d, want 2 (one cold context per strategy)", ps.Misses)
	}
	if ps.Hits != 4 {
		t.Errorf("hits = %d, want 4", ps.Hits)
	}
}

// TestPoolEvictsStaleKeysUnderPressure: once more than maxPoolKeys
// distinct bindings have pooled, admitting a new key evicts an old one
// — new automata keep pooling (warm on re-query) instead of being
// permanently cold, and the resident gauge stays bounded.
func TestPoolEvictsStaleKeysUnderPressure(t *testing.T) {
	e, _ := poolTestEngine(t)
	queries := make([]string, 0, maxPoolKeys+4)
	for i := 0; i < maxPoolKeys+4; i++ {
		queries = append(queries, fmt.Sprintf("//listitem//label%03d", i))
	}
	for _, q := range queries {
		if _, err := e.QueryWith(q, Optimized); err != nil {
			t.Fatal(err)
		}
	}
	last := queries[len(queries)-1]
	hits0 := e.PoolStats().Hits
	if _, err := e.QueryWith(last, Optimized); err != nil {
		t.Fatal(err)
	}
	ps := e.PoolStats()
	if ps.Hits != hits0+1 {
		t.Errorf("newest key did not stay pooled under key pressure (hits %d -> %d)", hits0, ps.Hits)
	}
	if ps.Resident > maxPoolKeys {
		t.Errorf("resident %d exceeds key budget %d", ps.Resident, maxPoolKeys)
	}
	if ps.Drops == 0 {
		t.Error("no key eviction recorded despite exceeding the key budget")
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
	k, pc := stealPooled(t, e)
	old := maxPoolResidentBytes
	maxPoolResidentBytes = 1
	defer func() { maxPoolResidentBytes = old }()
	drops0 := e.PoolStats().Drops
	e.pool.release(k, pc)
	ps := e.PoolStats()
	if ps.Drops != drops0+1 || ps.Resident != 0 {
		t.Errorf("budget-exceeding release not dropped: %+v", ps)
	}
}

// TestPoolGenerationGuard: a context stamped by another engine must
// not be trusted — checkout has to reset it (guard trip) and the
// evaluation must still be correct. This simulates the one failure
// mode the stamp exists for: pool plumbing leaking contexts across
// engines (i.e. across document generations).
func TestPoolGenerationGuard(t *testing.T) {
	e1, _ := poolTestEngine(t)
	d2 := xmark.Generate(xmark.Config{Scale: 0.003, Seed: 9})
	e2 := New(d2)
	const q = "//listitem//keyword"

	// Warm a context in e1's pool, then transplant it into e2's pool
	// under e2's automaton key but with e1's (foreign) stamp.
	if _, err := e1.QueryWith(q, Optimized); err != nil {
		t.Fatal(err)
	}
	want, err := e2.QueryWith(q, Optimized)
	if err != nil {
		t.Fatal(err)
	}
	_, pc1 := stealPooled(t, e1)
	key2, _ := stealPooled(t, e2)
	// Put e1's context (with e1's stamp) where e2's should be.
	e2.pool.mu.Lock()
	e2.pool.pools[key2] = append(e2.pool.pools[key2], pooledCtx{ctx: pc1.ctx, gen: pc1.gen})
	e2.pool.mu.Unlock()
	e2.pool.resident.Add(1)

	got, err := e2.QueryWith(q, Optimized)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Nodes) != len(want.Nodes) {
		t.Fatalf("guarded evaluation diverged: %d vs %d nodes", len(got.Nodes), len(want.Nodes))
	}
	for i := range want.Nodes {
		if got.Nodes[i] != want.Nodes[i] {
			t.Fatalf("guarded evaluation diverged at %d", i)
		}
	}
	if trips := e2.PoolStats().GuardTrips; trips != 1 {
		t.Errorf("guard trips = %d, want 1", trips)
	}
}

// stealPooled pops the single pooled context of an engine.
func stealPooled(t *testing.T, e *Engine) (poolKey, pooledCtx) {
	t.Helper()
	e.pool.mu.Lock()
	defer e.pool.mu.Unlock()
	for k, list := range e.pool.pools {
		if len(list) == 0 {
			continue
		}
		pc := list[len(list)-1]
		e.pool.pools[k] = list[:len(list)-1]
		e.pool.resident.Add(-1)
		e.pool.arenaBytes.Add(-pc.bytes)
		return k, pc
	}
	t.Fatal("no pooled context to steal")
	return poolKey{}, pooledCtx{}
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
	if got := e.PoolStats().Resident; got > maxPerKey() {
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
	k, pc := stealPooled(t, e)
	old := maxPooledCtxBytes
	maxPooledCtxBytes = 1 // every real context exceeds this
	defer func() { maxPooledCtxBytes = old }()
	drops0 := e.PoolStats().Drops
	e.pool.release(k, pc)
	ps := e.PoolStats()
	if ps.Drops != drops0+1 {
		t.Errorf("drops = %d, want %d", ps.Drops, drops0+1)
	}
	if ps.Resident != 0 {
		t.Errorf("oversized context was parked (resident=%d)", ps.Resident)
	}
}
