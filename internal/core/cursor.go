package core

import (
	"errors"
	"fmt"
	"slices"
	"sort"

	"repro/internal/compile"
	"repro/internal/hybrid"
	"repro/internal/obsv"
	"repro/internal/sta"
	"repro/internal/stepwise"
	"repro/internal/tree"
	"repro/internal/xpath"
)

// Cursor is a resumable view of one evaluation's answer: a strictly
// increasing slice of node ids (preorder, duplicate-free) and a read
// position. Every engine hands over that one form — the ASTA evaluator
// as a block in its context's arena, the others as a heap slice — so
// counting is a length, seeking a binary search and reading a copy. A
// Cursor is single-use and not safe for concurrent use; resumption
// across requests re-evaluates (hitting the compiled-automaton cache)
// and seeks with SeekPast.
//
// A Cursor over an arena-owned answer holds the pooled evaluation
// context whose arena it reads. The context returns to the engine's
// pool when the cursor is exhausted, materialized, or Closed — callers
// that may abandon a cursor mid-answer (paging) should Close it so the
// warm context is recycled instead of garbage-collected.
type Cursor struct {
	strategy Strategy
	// What the run did and whether the serving caches were warm: how
	// the answer was produced, for explain profiles and the flight
	// recorder.
	work      obsv.Work
	poolHit   bool
	qcacheHit bool

	// autoReason says why Auto took this cursor's route (a Reason*
	// constant), for explain profiles and flight records; autoShape is
	// the query's canonical shape, explained evaluations only.
	autoShape  string
	autoReason string

	// release returns the evaluation context whose arena holds nodes to
	// its pool; nil when nodes are heap-owned and after the first
	// release.
	release func()

	// nodes is the answer, pos the read position in it and total its
	// length — which outlives nodes: Close drops an arena-owned answer.
	nodes []tree.NodeID
	pos   int
	total int
}

// newCursor wraps an answer that is strictly increasing by
// construction. A non-nil release marks it arena-owned; an empty answer
// has nothing to keep the context for and hands it back at once.
func newCursor(nodes []tree.NodeID, release func(), s Strategy, w obsv.Work) *Cursor {
	c := &Cursor{strategy: s, work: w, nodes: nodes, total: len(nodes), release: release}
	if len(nodes) == 0 {
		c.Close()
	}
	return c
}

// newSliceCursor wraps the heap-owned answer of the step-wise, hybrid
// or TDSTA engine, checked rather than trusted.
func newSliceCursor(nodes []tree.NodeID, s Strategy, w obsv.Work) *Cursor {
	return newCursor(ensureSortedDedup(nodes), nil, s, w)
}

// ensureSortedDedup enforces the invariant every cursor depends on —
// strictly increasing preorder — rather than trusting the producing
// engine: SeekPast binary-searches and resumed pages silently skip or
// repeat nodes if a slice ever arrives unsorted or with duplicates. The
// engines do emit sorted duplicate-free answers, so the common case is
// one O(n) verification scan; only a violation pays the sort/compact.
// (The ASTA evaluator needs no such scan: its chain metadata already
// says whether the block is in order, and collect acts on it.)
func ensureSortedDedup(nodes []tree.NodeID) []tree.NodeID {
	sorted, unique := true, true
	for i := 1; i < len(nodes); i++ {
		if nodes[i] < nodes[i-1] {
			sorted = false
			break
		}
		if nodes[i] == nodes[i-1] {
			unique = false
		}
	}
	if sorted && unique {
		return nodes
	}
	if !sorted {
		slices.Sort(nodes)
	}
	return slices.Compact(nodes)
}

// Close returns the cursor's evaluation context to the engine's pool
// without consuming the rest of the answer. It is idempotent, runs
// implicitly on exhaustion and materialization, and leaves a cursor
// over an arena-owned answer in the exhausted state (Count stays valid;
// Next reports done): once the context is handed back the block must
// never be read again, its arena may be serving another evaluation. A
// heap-owned answer stays readable.
func (c *Cursor) Close() {
	if r := c.release; r != nil {
		c.release, c.nodes, c.pos = nil, nil, 0
		r()
	}
}

// Strategy is the strategy that actually ran (never Auto).
func (c *Cursor) Strategy() Strategy { return c.strategy }

// Work is what the run did: visited nodes, index jumps, memo entries
// and hits (obsv.Work), whichever engine ran.
func (c *Cursor) Work() obsv.Work { return c.work }

// Visited counts the nodes the run touched.
func (c *Cursor) Visited() int { return c.work.Visited }

// MemoEntries counts memoized configurations (ASTA engines only).
func (c *Cursor) MemoEntries() int { return c.work.MemoEntries }

// MemoHits counts constant-time memo-table lookups served during the
// run (ASTA engines only).
func (c *Cursor) MemoHits() int { return c.work.MemoHits }

// Jumps counts index jumps (every engine but the step-wise baseline).
func (c *Cursor) Jumps() int { return c.work.Jumps }

// CtxPoolHit reports whether the evaluation ran in a warm pooled
// context (allocation-free steady state) rather than a fresh one.
func (c *Cursor) CtxPoolHit() bool { return c.poolHit }

// QCacheHit reports whether the compiled automaton came from the
// compiled-query cache rather than being compiled for this run. It is
// false for strategies that compile nothing (stepwise, hybrid).
func (c *Cursor) QCacheHit() bool { return c.qcacheHit }

// AutoShape is the canonical shape of an explained Auto evaluation's
// query; empty for forced strategies and unexplained evaluations.
func (c *Cursor) AutoShape() string { return c.autoShape }

// AutoReason is why Auto routed the query to this cursor's strategy
// (one of the Reason* constants); empty for forced strategies.
func (c *Cursor) AutoReason() string { return c.autoReason }

// Count returns the full answer cardinality, independent of the read
// position and of Close.
func (c *Cursor) Count() int { return c.total }

// SeekPast positions the cursor just after node v in preorder, so the
// next read returns the first answer node > v; it is how a continuation
// token resumes a paged answer. A binary search: resuming page p of an
// n-node answer costs O(log n), not O(p·pagesize). (The predicate is
// "> v", never ">= v+1": a token may carry the largest NodeID.)
func (c *Cursor) SeekPast(v tree.NodeID) {
	c.pos = sort.Search(len(c.nodes), func(i int) bool { return c.nodes[i] > v })
}

// Next returns the next answer node in preorder, with ok=false once the
// answer is exhausted. The read that finds the end closes the cursor:
// the answer will never be read again, so its evaluation context can go
// back to work for the next query.
func (c *Cursor) Next() (tree.NodeID, bool) {
	if c.pos >= len(c.nodes) {
		c.Close()
		return tree.Nil, false
	}
	v := c.nodes[c.pos]
	c.pos++
	return v, true
}

// NextBatch fills dst with the next nodes in preorder and returns how
// many were written; 0 means the answer is exhausted. dst receives a
// copy, never a window of the answer, so it outlives the cursor.
func (c *Cursor) NextBatch(dst []tree.NodeID) int {
	n := copy(dst, c.nodes[c.pos:])
	c.pos += n
	if n < len(dst) {
		c.Close()
	}
	return n
}

// materialize converts a freshly created (unread) cursor into the
// classic Answer. An arena-owned answer is cloned — the Answer outlives
// the evaluation context, which goes back to its pool here.
func (c *Cursor) materialize() *Answer {
	nodes := c.nodes
	if c.release != nil {
		nodes = slices.Clone(nodes)
	}
	c.Close()
	return &Answer{Nodes: nodes, Strategy: c.strategy, Work: c.work}
}

// EvalCursor evaluates a query and returns a cursor over the
// preorder-sorted answer, without copying it out of the evaluator's
// arena when that is where the strategy leaves it (the ASTA engines).
// The strategy semantics match QueryWith.
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

// runSpanOK annotates a `run` span with the engine it timed: constants
// indexed by strategy, so annotating on the hot path allocates nothing.
var runSpanOK = [...]string{
	Naive:      "strategy=naive outcome=ok",
	Jumping:    "strategy=jumping outcome=ok",
	Memoized:   "strategy=memoized outcome=ok",
	Optimized:  "strategy=optimized outcome=ok",
	Hybrid:     "strategy=hybrid outcome=ok",
	TopDownDet: "strategy=topdown-det outcome=ok",
	Stepwise:   "strategy=stepwise outcome=ok",
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

// ran is the tail every engine path shares: it ends the run span sp,
// annotates it with the strategy that ran, and hands back c, the
// cursor over the run's answer and work.
func ran(tr *obsv.Trace, sp int8, c *Cursor) *Cursor {
	tr.End(sp)
	tr.Annotate(sp, runSpanOK[c.strategy])
	return c
}

// hybridCursor runs the start-anywhere engine; a query outside its chain
// fragment is refused (hybrid.ErrUnsupported), which only a forced
// Hybrid can ask for.
func (e *Engine) hybridCursor(p *xpath.Path, tr *obsv.Trace) (*Cursor, error) {
	sp := tr.Begin(obsv.SpanRun)
	res, err := hybrid.Eval(e.doc, e.ix, p)
	if err != nil {
		tr.End(sp)
		tr.Annotate(sp, "strategy=hybrid outcome=failed")
		return nil, err
	}
	return ran(tr, sp, newSliceCursor(res.Selected, Hybrid, res.Work)), nil
}

// stepwiseCursor runs the step-wise baseline (it cannot fail: the
// full XPath subset of the parser is supported).
func (e *Engine) stepwiseCursor(p *xpath.Path, tr *obsv.Trace) *Cursor {
	sp := tr.Begin(obsv.SpanRun)
	res := stepwise.Eval(e.doc, p, stepwise.Default())
	return ran(tr, sp, newSliceCursor(res.Selected, Stepwise, res.Work))
}

// tdstaCursor compiles (through the query cache) and runs the
// minimized deterministic TDSTA with topdown_jump, recording no run,
// over jump cursors lent by the pool.
func (e *Engine) tdstaCursor(query string, p *xpath.Path, tr *obsv.Trace) (*Cursor, error) {
	sp := tr.Begin(obsv.SpanCompile)
	v, hit, err := e.cache.GetOrCompile(e.cacheKey("tdsta", query), func() (any, error) {
		aut, err := compile.ToTDSTA(p, e.doc.Names())
		if err != nil {
			return nil, err
		}
		return aut.MinimizeTopDown(), nil
	})
	tr.End(sp)
	if err != nil {
		return nil, err
	}
	sp = tr.Begin(obsv.SpanRun)
	cur := e.pool.takeCursors(e.ix)
	res := v.(*sta.STA).EvalTopDownJump(e.doc, cur, nil)
	e.pool.parkCursors(cur)
	c := ran(tr, sp, newSliceCursor(res.Selected, TopDownDet, res.Work))
	c.qcacheHit = hit
	return c, nil
}

// astaCursor runs the ASTA evaluator in a pooled context: warm checkouts
// reuse the memo world and arenas of previous runs of the same
// automaton — over this generation of the document or an earlier one —
// and the context rides with the cursor (its arena holds the answer)
// until exhaustion or Close.
//
// The cached automaton is checked against the one thing it depends on,
// the label table, in one pointer comparison. The key carries the
// table's id, so a mismatch means the keying broke somewhere: it is
// counted (PoolStats.GuardTrips) and answered with an automaton
// compiled for this table and left out of the cache.
func (e *Engine) astaCursor(query string, p *xpath.Path, s Strategy, tr *obsv.Trace) (*Cursor, error) {
	sp := tr.Begin(obsv.SpanCompile)
	names := e.doc.Names()
	build := func() (any, error) {
		aut, err := compile.ToASTA(p, names)
		if err != nil {
			return nil, err
		}
		return &compiled{aut: aut, names: names, pool: e.pool}, nil
	}
	v, hit, err := e.cache.GetOrCompile(e.cacheKey("asta", query), build)
	if err == nil && v.(*compiled).names != names {
		e.pool.guardTrips.Add(1)
		hit = false
		if v, err = build(); err == nil {
			v.(*compiled).Evicted()
		}
	}
	tr.End(sp)
	if err != nil {
		return nil, err
	}
	cv, opt := v.(*compiled), astaOptions(s)
	ctx, warm := cv.checkout(opt)
	sp = tr.Begin(obsv.SpanRun)
	res := cv.aut.EvalCtx(ctx, e.doc, e.ix, opt)
	c := ran(tr, sp, newCursor(res.Selected, func() { cv.release(opt, ctx) }, s, res.Work))
	c.poolHit, c.qcacheHit = warm, hit
	return c, nil
}

// Auto's reasons, one per route. The select span, the explain profile
// and the flight record carry them; constants, so attaching one
// allocates nothing.
const (
	// ReasonChain: hybrid.CheckChain accepts the query, an absolute
	// chain of child and descendant name tests. It runs on Hybrid.
	ReasonChain = "label-chain"
	// ReasonTDSTA: compile.CheckTDSTA accepts it (a `*` test, say). It
	// runs on TopDownDet.
	ReasonTDSTA = "tdsta-fragment"
	// ReasonASTA: neither does. It runs on Optimized.
	ReasonASTA = "asta"
	// ReasonOutside: the ASTA compiler refused it (compile.ErrUnsupported:
	// backward axes, text functions, more than 64 states). It runs on
	// Stepwise.
	ReasonOutside = "outside-automata"
)

// route is Auto: the first engine, in this order, whose own fragment
// test accepts the parsed query. It reads the query and nothing else —
// no clock, no label count, no shared state — so a query takes the same
// route on every document, generation and run. The order is measured
// (DESIGN.md "Auto routes by fragment"): hybrid was the fastest engine
// on every chain tried, and the TDSTA on every other shape it accepts
// but Q06, a tie with the ASTA.
func route(p *xpath.Path) (Strategy, string) {
	switch {
	case hybrid.CheckChain(p) == nil:
		return Hybrid, ReasonChain
	case compile.CheckTDSTA(p) == nil:
		return TopDownDet, ReasonTDSTA
	}
	return Optimized, ReasonASTA
}

// autoCursor implements the Auto strategy (QueryWith's Auto is this
// same code path): it runs the engine route picks. route offers Hybrid
// and TopDownDet only queries their engines' own fragment tests accept,
// so an error from either is a genuine failure and surfaces as it is.
// The optimized ASTA hands a query it cannot express
// (compile.ErrUnsupported) to the step-wise engine, like the paper's
// black-box handling of XPath 1.0 functions (§6); its other failures
// surface.
func (e *Engine) autoCursor(query string, p *xpath.Path, tr *obsv.Trace) (*Cursor, error) {
	sp := tr.Begin(obsv.SpanSelect)
	s, reason := route(p)
	tr.End(sp)
	var c *Cursor
	var err error
	switch s {
	case Hybrid:
		c, err = e.hybridCursor(p, tr)
	case TopDownDet:
		c, err = e.tdstaCursor(query, p, tr)
	default:
		c, err = e.astaCursor(query, p, Optimized, tr)
		if errors.Is(err, compile.ErrUnsupported) {
			c, err, reason = e.stepwiseCursor(p, tr), nil, ReasonOutside
		}
	}
	if err != nil {
		return nil, err
	}
	c.autoReason = reason
	if tr.Detail() {
		c.autoShape = p.String()
		tr.Annotate(sp, "auto shape="+c.autoShape+" route="+c.strategy.String()+" reason="+reason)
	}
	return c, nil
}
