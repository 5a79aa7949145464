// Package core is the whole-query optimizer: the paper's primary
// contribution assembled into an engine. Given a document it builds the
// jumping index once; given a query it chooses an execution strategy —
//
//   - the minimized deterministic TDSTA with topdown_jump (§3.1) for the
//     restricted child/descendant fragment,
//   - the hybrid start-anywhere run (§4.4) for label chains where some
//     label's global count is very low (the index answers counts in
//     O(1), §5),
//   - the alternating-automaton evaluator with jumping + memoization +
//     information propagation (§4, "Opt. Eval.") for everything else —
//
// and executes it, reporting which strategy ran and how many nodes it
// touched. Explicit strategies are available for experiments and
// ablations.
package core

import (
	"fmt"
	"strconv"

	"repro/internal/asta"
	"repro/internal/index"
	"repro/internal/qcache"
	"repro/internal/tree"
	"repro/internal/xpath"
)

// Strategy selects how a query is executed.
type Strategy int

// Strategies. Auto picks per query; the rest force one engine (the
// series of Figure 4 plus the baselines).
const (
	Auto Strategy = iota
	// Naive is Algorithm 4.1 with no optimization.
	Naive
	// Jumping adds the on-the-fly top-down approximation of relevant
	// nodes with index jumps.
	Jumping
	// Memoized adds the transition memo tables instead.
	Memoized
	// Optimized combines jumping, memoization and information
	// propagation ("Opt. Eval.").
	Optimized
	// Hybrid is the start-anywhere run; only chain queries support it.
	Hybrid
	// TopDownDet compiles to a minimized deterministic TDSTA and runs
	// topdown_jump; only the restricted fragment supports it.
	TopDownDet
	// Stepwise is the Koch/Gottlob-style baseline (the MonetDB stand-in
	// of Appendix D).
	Stepwise
	// EmptyChain is an outcome, not a forceable strategy: Auto proved
	// from the index that a chain label does not occur in the document,
	// so the answer is empty and no engine ran at all. ParseStrategy
	// rejects it.
	EmptyChain
)

func (s Strategy) String() string {
	switch s {
	case Auto:
		return "auto"
	case Naive:
		return "naive"
	case Jumping:
		return "jumping"
	case Memoized:
		return "memoized"
	case Optimized:
		return "optimized"
	case Hybrid:
		return "hybrid"
	case TopDownDet:
		return "topdown-det"
	case Stepwise:
		return "stepwise"
	case EmptyChain:
		return "empty-chain"
	}
	return fmt.Sprintf("Strategy(%d)", int(s))
}

// ParseStrategy maps a strategy name (as printed by String) back to the
// constant; ok is false for unknown names. The empty string is Auto, so
// wire formats can omit the field.
func ParseStrategy(name string) (Strategy, bool) {
	switch name {
	case "", "auto":
		return Auto, true
	case "naive":
		return Naive, true
	case "jumping":
		return Jumping, true
	case "memoized":
		return Memoized, true
	case "optimized":
		return Optimized, true
	case "hybrid":
		return Hybrid, true
	case "topdown-det":
		return TopDownDet, true
	case "stepwise":
		return Stepwise, true
	}
	return Auto, false
}

// hybridCountFraction: the §5 condition — use the hybrid run when the
// cheapest chain label's count is below this fraction of the most
// frequent one ("one of the labels in the query has a low count").
// The selector uses it only for cold shapes; warm shapes route on
// observed latency (see selector.go).
const hybridCountFraction = 0.05

// Engine evaluates queries over one document. It is safe for concurrent
// use: the document and index are immutable and the compiled-query cache
// is a concurrency-safe LRU (each evaluation carries its own run state).
//
// It is a thin binding of one tree to warm state that outlives it, each
// piece kept under what it is a function of, so that engines over
// successive generations of a document share it and none of it is ever
// purged by hand.
type Engine struct {
	doc *tree.Document
	ix  *index.Index

	// cache holds compiled automata (*compiled under kind "asta",
	// minimized *sta.STA under kind "tdsta"), keyed
	// keyPrefix+tableID+kind+query. It may be shared across engines;
	// engines over one label table then share its entries.
	cache     *qcache.Cache
	keyPrefix string

	// pool accounts the warm evaluation contexts parked on the cached
	// automata (ctxpool.go).
	pool *Pool

	// auto is the observed-latency Auto selector (selector.go): its
	// estimates are measurements of the document, whichever generation.
	auto *Selector
}

// New builds the engine, its index, and a private bounded query cache.
func New(d *tree.Document) *Engine {
	return NewWithCache(d, qcache.New(qcache.DefaultCapacity), "")
}

// NewWithCache builds an engine that stores compiled automata in the
// given (possibly shared) cache, namespacing its keys with keyPrefix.
func NewWithCache(d *tree.Document, c *qcache.Cache, keyPrefix string) *Engine {
	return NewWithIndex(d, index.New(d), c, keyPrefix)
}

// NewWithIndex is NewWithCache for a document whose index is already
// built (the document store builds the index once at load time). The
// engine gets a context pool and an Auto selector of its own.
func NewWithIndex(d *tree.Document, ix *index.Index, c *qcache.Cache, keyPrefix string) *Engine {
	e := NewShared(d, ix, c, new(Pool), NewSelector(DefaultAutoConfig()))
	e.keyPrefix = keyPrefix
	return e
}

// NewShared builds an engine over one generation of a document around
// warm state its caller owns: the service's cache and pool, the
// document's selector. It allocates nothing else; the service makes one
// per request.
func NewShared(d *tree.Document, ix *index.Index, c *qcache.Cache, pool *Pool, auto *Selector) *Engine {
	return &Engine{doc: d, ix: ix, cache: c, pool: pool, auto: auto}
}

// ConfigureAuto replaces the Auto selector configuration, resetting
// its learned state. Call before serving traffic (the selector swap is
// not synchronized against in-flight Auto evaluations).
func (e *Engine) ConfigureAuto(cfg AutoConfig) {
	e.auto = NewSelector(cfg)
}

// SelectorStats snapshots the Auto selector: shapes tracked, wins per
// strategy, exploration rate, estimate error, and the per-shape
// candidate tables.
func (e *Engine) SelectorStats() SelectorStats { return e.auto.Stats() }

// PoolStats reports the engine's evaluation-context pool counters: the
// steady-state signal for whether repeated queries are hitting warm
// contexts (near-zero allocation) or rebuilding their scratch.
func (e *Engine) PoolStats() PoolStats { return e.pool.Stats() }

// CacheStats reports the compiled-query cache counters. For engines
// built by NewWithCache the numbers cover every engine sharing the LRU.
func (e *Engine) CacheStats() qcache.Stats { return e.cache.Stats() }

// cacheKey names a compiled automaton by what it is a function of: the
// label table (by id), the automaton kind and the query text. A
// generation with a new label, or a reloaded document, has another
// table and can neither hit nor overwrite the entry.
func (e *Engine) cacheKey(kind, query string) string {
	var buf [20]byte
	table := strconv.AppendUint(buf[:0], e.doc.Names().ID(), 10)
	return e.keyPrefix + string(table) + "\x00" + kind + "\x00" + query
}

// Answer is a query outcome.
type Answer struct {
	// Nodes is the selected node set in document order.
	Nodes []tree.NodeID
	// Strategy is the engine that actually ran (never Auto).
	Strategy Strategy
	// Visited counts the nodes the run touched.
	Visited int
	// MemoEntries counts memoized configurations (ASTA engines only).
	MemoEntries int
}

// Query evaluates with the Auto strategy.
func (e *Engine) Query(query string) (*Answer, error) {
	return e.QueryWith(query, Auto)
}

// QueryWith evaluates with an explicit strategy. Forcing Hybrid or
// TopDownDet on a query outside their fragments returns an error; Auto
// never fails on fragment grounds. (Auto falls back to the step-wise
// engine for features outside the automata fragment — backward axes,
// text functions — like the paper's black-box handling of XPath 1.0
// functions, §6.) It is the materializing counterpart of EvalCursor and
// shares its evaluation path.
func (e *Engine) QueryWith(query string, s Strategy) (*Answer, error) {
	p, err := xpath.Parse(query)
	if err != nil {
		return nil, err
	}
	c, err := e.evalCursor(query, p, s, nil)
	if err != nil {
		return nil, err
	}
	return c.materialize(), nil
}

func astaOptions(s Strategy) asta.Options {
	switch s {
	case Naive:
		return asta.Options{}
	case Jumping:
		return asta.Options{Jump: true}
	case Memoized:
		return asta.Options{Memo: true}
	default:
		return asta.Opt()
	}
}

// chainCounts returns the min and max global label counts of a chain
// query in the engine's generation of the document: the §5 probe, k
// Lookup + Count calls, made at every decision because a patch can
// change them. Whether p is a chain at all is a function of the query
// alone, settled once per shape by hybrid.CheckChain (shapeFor).
func (e *Engine) chainCounts(p *xpath.Path) (min, max int) {
	min = int(^uint(0) >> 1)
	for _, st := range p.Steps {
		n := 0
		if id, found := e.doc.Names().Lookup(st.Test.Name); found {
			n = e.ix.Count(id)
		}
		if n < min {
			min = n
		}
		if n > max {
			max = n
		}
	}
	return min, max
}
