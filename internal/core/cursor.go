package core

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/compile"
	"repro/internal/hybrid"
	"repro/internal/obsv"
	"repro/internal/stepwise"
	"repro/internal/tree"
	"repro/internal/xpath"
)

// Cursor is a resumable view of one evaluation's answer: a strictly
// increasing slice of node ids (preorder, duplicate-free) that the
// cursor owns, and a read position. Every engine hands over that one
// form — the ASTA evaluator's answer is copied out of its context's
// arena once, before the context is parked again — so counting is a
// length, seeking a binary search and a page a window of the answer. A
// Cursor is single-use and not safe for concurrent use; resumption
// across requests re-evaluates (hitting the compiled-automaton cache)
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
// run did (obsv.Work), whether the compiled automaton came from the
// query cache (never for stepwise and hybrid, which compile nothing,
// nor for an Auto query routed to either) and the context from the
// pool warm, and why Auto took its route (empty for forced
// strategies).
func (c *Cursor) Run() obsv.Run { return c.run }

// Work is what the run did: visited nodes, index jumps, memo entries
// and hits, whichever engine ran.
func (c *Cursor) Work() obsv.Work { return c.run.Work }

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

// EvalCursorTrace is EvalCursor recording phase spans (parse, strategy
// selection, qcache lookup/compile, automaton run) into tr, which may
// be nil (every trace operation is a nil-safe no-op — this is the same
// code path EvalCursor runs). Engine-effort counters land on the
// returned Cursor either way.
func (e *Engine) EvalCursorTrace(query string, s Strategy, tr *obsv.Trace) (*Cursor, error) {
	sp := tr.Begin(obsv.SpanParse)
	p, err := xpath.Parse(query)
	tr.End(sp)
	if err != nil {
		return nil, err
	}
	return e.evalCursor(query, p, s, tr)
}

func (e *Engine) evalCursor(query string, p *xpath.Path, s Strategy, tr *obsv.Trace) (*Cursor, error) {
	switch s {
	case Stepwise:
		return e.stepwiseCursor(p, tr), nil
	case Hybrid:
		return e.hybridCursor(p, tr)
	case TopDownDet:
		return e.tdstaCursor(query, p, tr)
	case Naive, Jumping, Memoized, Optimized:
		return e.astaCursor(query, p, s, tr)
	case Auto:
		return e.autoCursor(query, p, tr)
	}
	return nil, fmt.Errorf("core: unknown strategy %v", s)
}

// hybridCursor runs the start-anywhere engine; a query outside its chain
// fragment is refused (hybrid.ErrUnsupported), which only a forced
// Hybrid can ask for.
func (e *Engine) hybridCursor(p *xpath.Path, tr *obsv.Trace) (*Cursor, error) {
	sp := tr.Begin(obsv.SpanRun)
	res, err := hybrid.Eval(e.doc, e.ix, p)
	tr.End(sp)
	if err != nil {
		return nil, err
	}
	return newCursor(res.Selected, Hybrid, res.Work), nil
}

// stepwiseCursor runs the step-wise baseline (it cannot fail: the
// full XPath subset of the parser is supported).
func (e *Engine) stepwiseCursor(p *xpath.Path, tr *obsv.Trace) *Cursor {
	sp := tr.Begin(obsv.SpanRun)
	res := stepwise.Eval(e.doc, p, stepwise.Default())
	tr.End(sp)
	return newCursor(res.Selected, Stepwise, res.Work)
}

// lookup returns the query's compiled entry and whether the cache held
// it; a miss builds and keeps the ASTA and, in the TDSTA's fragment, the
// minimal TDSTA. An entry of another label table (PoolStats.GuardTrips)
// is answered with one compiled for this table, left out of the cache.
func (e *Engine) lookup(query string, p *xpath.Path, tr *obsv.Trace) (*compiled, bool, error) {
	sp := tr.Begin(obsv.SpanCompile)
	names := e.doc.Names()
	build := func() (any, error) {
		aut, err := compile.ToASTA(p, names)
		if err != nil {
			return nil, err
		}
		cv := &compiled{aut: aut, names: names, pool: e.pool}
		if compile.CheckTDSTA(p) == nil {
			cv.det = compile.DeterminizeTopDown(aut).MinimizeTopDown()
		}
		return cv, nil
	}
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

// tdstaCursor runs the query's minimal TDSTA with topdown_jump,
// recording no run, over jump cursors lent by the pool. A query outside
// its fragment is refused before anything compiles.
func (e *Engine) tdstaCursor(query string, p *xpath.Path, tr *obsv.Trace) (*Cursor, error) {
	if err := compile.CheckTDSTA(p); err != nil {
		return nil, err
	}
	cv, hit, err := e.lookup(query, p, tr)
	if err != nil {
		return nil, err
	}
	sp := tr.Begin(obsv.SpanRun)
	cur := e.pool.takeCursors(e.ix)
	res := cv.det.EvalTopDownJump(e.doc, cur, nil)
	e.pool.parkCursors(cur)
	tr.End(sp)
	c := newCursor(res.Selected, TopDownDet, res.Work)
	c.run.QCacheHit = hit
	return c, nil
}

// astaCursor runs the ASTA evaluator in a pooled context: warm checkouts
// reuse the memo world and arenas of previous runs of the same
// automaton — over this generation of the document or an earlier one.
// The answer is a block in the context's arena, so it is copied out
// once and the context parked again before the cursor is built.
func (e *Engine) astaCursor(query string, p *xpath.Path, s Strategy, tr *obsv.Trace) (*Cursor, error) {
	cv, hit, err := e.lookup(query, p, tr)
	if err != nil {
		return nil, err
	}
	ctx, warm := cv.checkout(s)
	sp := tr.Begin(obsv.SpanRun)
	res := ctx.Eval(e.doc, e.ix)
	nodes := slices.Clone(res.Selected)
	cv.release(s, ctx)
	tr.End(sp)
	c := newCursor(nodes, s, res.Work)
	c.run.CtxPoolHit, c.run.QCacheHit = warm, hit
	return c, nil
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

// route is Auto: the first engine, in this order, whose own fragment
// test accepts the parsed query, and the step-wise engine when none
// does. It reads the query and nothing else — no clock, no label count,
// no shared state — so a query takes the same route on every document,
// generation and run. The order is measured (DESIGN.md "Auto routes by
// fragment"): hybrid was the fastest engine on every chain tried, and
// the TDSTA on every other shape it accepts but Q06, a tie with the
// ASTA.
func route(p *xpath.Path) (Strategy, string) {
	switch {
	case hybrid.CheckChain(p) == nil:
		return Hybrid, ReasonChain
	case compile.CheckTDSTA(p) == nil:
		return TopDownDet, ReasonTDSTA
	case compile.CheckASTA(p) == nil:
		return Optimized, ReasonASTA
	}
	return Stepwise, ReasonOutside
}

// autoCursor implements the Auto strategy (QueryWith's Auto is this
// same code path): it runs the engine route picks. route offers an
// engine only a query that engine's own fragment test accepts, so an
// error from it is a genuine failure and surfaces as it is.
func (e *Engine) autoCursor(query string, p *xpath.Path, tr *obsv.Trace) (*Cursor, error) {
	sp := tr.Begin(obsv.SpanSelect)
	s, reason := route(p)
	tr.End(sp)
	c, err := e.evalCursor(query, p, s, tr)
	if err != nil {
		return nil, err
	}
	c.run.AutoReason = reason
	if tr != nil {
		c.autoShape = p.String()
	}
	return c, nil
}
