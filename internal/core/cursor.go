package core

import (
	"fmt"
	"sort"

	"repro/internal/asta"
	"repro/internal/obsv"
	"repro/internal/stepwise"
	"repro/internal/tree"
)

// Cursor is a resumable view of one evaluation's answer: a strictly
// increasing slice of node ids (preorder, duplicate-free) that the
// cursor owns, and a read position. Every engine hands over that one
// form — an automaton engine's answer is copied once (copyOut) out of
// the scratch it was built in, a buffer the pool lends or an ASTA
// context's arena, before the scratch is parked again — so counting is
// a length, seeking a binary search and a page a window of the answer. A
// Cursor is single-use and not safe for concurrent use; resumption
// across requests re-evaluates (hitting the compiled-query cache)
// and seeks with SeekPast.
type Cursor struct {
	strategy Strategy
	// run is how the answer was produced, for explain profiles and the
	// flight recorder: the strategy's name, what the run did, whether
	// the serving caches were warm and why Auto took its route (a
	// Reason* constant).
	run obsv.Run
	// autoShape is an Auto query's canonical shape, explained
	// evaluations only.
	autoShape string

	// nodes is the answer and pos the read position in it.
	nodes []tree.NodeID
	pos   int
}

// newCursor wraps an answer, strictly increasing because every engine
// makes it so: the automaton engines with tree.SortedSet, the step-wise
// baseline with its own sort.
func newCursor(nodes []tree.NodeID, s Strategy, w obsv.Work) *Cursor {
	return &Cursor{strategy: s, run: obsv.Run{Strategy: s.String(), Work: w}, nodes: nodes}
}

// Close ends the read: the cursor reports exhaustion from then on, and
// Count stays valid.
func (c *Cursor) Close() { c.pos = len(c.nodes) }

// Strategy is the strategy that actually ran (never Auto).
func (c *Cursor) Strategy() Strategy { return c.strategy }

// Run is how the answer was produced: the strategy that ran, what the
// run did (obsv.Work), whether the compiled query came from the query
// cache (for every strategy) and the context from the pool warm, and
// why Auto took its route (empty for forced strategies).
func (c *Cursor) Run() obsv.Run { return c.run }

// Visited counts the nodes the run touched.
func (c *Cursor) Visited() int { return c.run.Visited }

// MemoEntries counts memoized configurations (ASTA engines only).
func (c *Cursor) MemoEntries() int { return c.run.MemoEntries }

// MemoHits counts constant-time memo-table lookups served during the
// run (ASTA engines only).
func (c *Cursor) MemoHits() int { return c.run.MemoHits }

// Jumps counts index jumps (every engine but the step-wise baseline).
func (c *Cursor) Jumps() int { return c.run.Jumps }

// AutoShape is the canonical shape of an explained Auto evaluation's
// query; empty for forced strategies and unexplained evaluations.
func (c *Cursor) AutoShape() string { return c.autoShape }

// Count returns the full answer cardinality, independent of the read
// position and of Close.
func (c *Cursor) Count() int { return len(c.nodes) }

// Remaining returns how many answer nodes are left to read: 0 once the
// cursor is exhausted or closed.
func (c *Cursor) Remaining() int { return len(c.nodes) - c.pos }

// SeekPast positions the cursor just after node v in preorder, so the
// next read returns the first answer node > v; it is how a continuation
// token resumes a paged answer. A binary search: resuming page p of an
// n-node answer costs O(log n), not O(p·pagesize). (The predicate is
// "> v", never ">= v+1": a token may carry the largest NodeID.)
func (c *Cursor) SeekPast(v tree.NodeID) {
	c.pos = sort.Search(len(c.nodes), func(i int) bool { return c.nodes[i] > v })
}

// Next returns the next answer node in preorder, with ok=false once the
// answer is exhausted.
func (c *Cursor) Next() (tree.NodeID, bool) {
	if c.pos >= len(c.nodes) {
		return tree.Nil, false
	}
	v := c.nodes[c.pos]
	c.pos++
	return v, true
}

// NextBatch copies the next nodes in preorder into dst and returns how
// many were written; 0 means the answer is exhausted.
func (c *Cursor) NextBatch(dst []tree.NodeID) int {
	n := copy(dst, c.nodes[c.pos:])
	c.pos += n
	return n
}

// Take reads the next n >= 0 nodes (fewer when fewer remain) and
// returns them as a window of the answer, its capacity cut to its
// length so an append to it cannot write over the rest of the answer.
// The window shares the cursor's slice, which nothing writes once it is
// built.
func (c *Cursor) Take(n int) []tree.NodeID {
	end := c.pos + min(n, c.Remaining())
	w := c.nodes[c.pos:end:end]
	c.pos = end
	return w
}

// EvalCursor evaluates a query and returns a cursor over the
// preorder-sorted answer. The strategy semantics match QueryWith.
func (e *Engine) EvalCursor(query string, s Strategy) (*Cursor, error) {
	return e.EvalCursorTrace(query, s, nil)
}

// EvalCursorTrace is EvalCursor recording phase spans (the compiled
// query's lookup, with the parse and Auto's route inside it on a miss,
// and the engine run) into tr, which may be nil (every trace operation
// is a nil-safe no-op — this is the same code path EvalCursor runs).
// Engine-effort counters land on the returned Cursor either way.
//
// A request is one lookup and one run: Auto runs the engine the entry
// was routed to, which never refuses it, and a forced engine runs from
// the entry or returns the refusal the entry kept for it.
func (e *Engine) EvalCursorTrace(query string, s Strategy, tr *obsv.Trace) (*Cursor, error) {
	cv, hit, err := e.lookup(query, tr)
	if err != nil {
		return nil, err
	}
	reason := ""
	if s == Auto {
		s, reason = cv.route, cv.reason
	}
	if s < Naive || s > Stepwise {
		return nil, fmt.Errorf("core: unknown strategy %v", s)
	}
	if err := cv.refused[s]; err != nil {
		return nil, err
	}
	var (
		nodes []tree.NodeID
		work  obsv.Work
		warm  bool
	)
	sp := tr.Begin(obsv.SpanRun)
	switch s {
	case Stepwise:
		res := stepwise.Eval(e.doc, cv.path, stepwise.Default())
		nodes, work = res.Selected, res.Work
	case Hybrid:
		// The hybrid and TDSTA runs append their answers to a buffer
		// the pool lends, copied out once, as the ASTA's is below.
		sc := e.pool.borrow(e.ix)
		res := cv.chain.Eval(e.doc, e.ix, sc.nodes)
		nodes, work = e.pool.answer(sc, res.Selected), res.Work
	case TopDownDet:
		// topdown_jump over jump cursors lent by the pool. A chain's
		// entry builds its automata here, on the first forced run.
		_, det := cv.automata()
		sc := e.pool.borrow(e.ix)
		res := det.EvalTopDownJump(e.doc, &sc.cur, nil, sc.nodes)
		nodes, work = e.pool.answer(sc, res.Selected), res.Work
	default:
		// Naive through Optimized, in a pooled context (warm: the memo
		// world and arenas of earlier runs). The answer is a block in
		// its arena: copied out once, and the context parked again.
		var ctx *asta.Context
		ctx, warm = cv.checkout(s)
		res := ctx.Eval(e.doc, e.ix)
		nodes, work = copyOut(res.Selected), res.Work
		cv.release(s, ctx)
	}
	tr.End(sp)
	c := newCursor(nodes, s, work)
	c.run.QCacheHit, c.run.CtxPoolHit, c.run.AutoReason = hit, warm, reason
	if tr != nil && reason != "" {
		c.autoShape = cv.path.String()
	}
	return c, nil
}

// lookup returns the query's compiled entry and whether the cache held
// it; a miss builds it (compileQuery). An entry of another label table
// (PoolStats.GuardTrips) is answered with one compiled for this table,
// left out of the cache.
func (e *Engine) lookup(query string, tr *obsv.Trace) (*compiled, bool, error) {
	sp := tr.Begin(obsv.SpanCompile)
	names := e.doc.Names()
	build := func() (any, error) { return compileQuery(query, names, e.pool, tr) }
	v, hit, err := e.cache.GetOrCompile(e.cacheKey(query), build)
	if err == nil && v.(*compiled).names != names {
		e.pool.guardTrips.Add(1)
		hit = false
		if v, err = build(); err == nil {
			v.(*compiled).Evicted()
		}
	}
	tr.End(sp)
	if err != nil {
		return nil, false, err
	}
	return v.(*compiled), hit, nil
}

// Auto's reasons, one per route. The explain profile's counters and the
// flight record carry them; constants, so attaching one allocates
// nothing.
const (
	// ReasonChain: hybrid.CheckChain accepts the query, an absolute
	// chain of child and descendant name tests. It runs on Hybrid.
	ReasonChain = "label-chain"
	// ReasonTDSTA: compile.CheckTDSTA accepts it (a `*` test, say). It
	// runs on TopDownDet.
	ReasonTDSTA = "tdsta-fragment"
	// ReasonASTA: compile.CheckASTA accepts it (a predicate, say). It
	// runs on Optimized.
	ReasonASTA = "asta"
	// ReasonOutside: no automaton expresses it (backward axes, text
	// functions, more than 64 states). It runs on Stepwise.
	ReasonOutside = "outside-automata"
)
