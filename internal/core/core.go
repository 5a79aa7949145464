// Package core is the whole-query optimizer: the paper's primary
// contribution assembled into an engine. Given a document it builds the
// jumping index once; given a query it routes it, by the fragment of
// XPath the parsed query falls in and by nothing else, to an execution
// strategy —
//
//   - the hybrid start-anywhere run (§4.4) for label chains, absolute
//     child/descendant paths of name tests, started at the occurrences
//     of the rarest label (the index answers counts in O(1), §5),
//   - the minimal deterministic TDSTA with topdown_jump (§3.1), built
//     in one determinization of the query's ASTA, for the rest of the
//     restricted child/descendant fragment (`*` tests),
//   - the alternating-automaton evaluator with jumping + memoization +
//     information propagation (§4, "Opt. Eval.") for everything else,
//     and the step-wise baseline for what no automaton expresses —
//
// and executes it, reporting which strategy ran and the work it did —
// one obsv.Work from every engine: nodes visited, index jumps, memo
// entries and hits. Explicit strategies are available for experiments
// and ablations.
package core

import (
	"fmt"
	"strconv"

	"repro/internal/asta"
	"repro/internal/index"
	"repro/internal/obsv"
	"repro/internal/qcache"
	"repro/internal/tree"
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
	// TopDownDet determinizes the query's ASTA into a TDSTA, minimal as
	// built, and runs topdown_jump; only the restricted fragment
	// supports it.
	TopDownDet
	// Stepwise is the Koch/Gottlob-style baseline (the MonetDB stand-in
	// of Appendix D).
	Stepwise
)

// strategies declares each strategy once, indexed by Strategy: its
// wire name (String, ParseStrategy) and, for the four series of Figure
// 4, the ASTA evaluator's options. Information propagation is always on
// in the paper's engine (§4.4's one-witness rule); the series vary
// jumping and memoization.
var strategies = [...]struct {
	name string
	asta asta.Options
}{
	Auto:       {name: "auto"},
	Naive:      {"naive", asta.Options{}},
	Jumping:    {"jumping", asta.Options{Jump: true, InfoProp: true}},
	Memoized:   {"memoized", asta.Options{Memo: true, InfoProp: true}},
	Optimized:  {"optimized", asta.Opt()},
	Hybrid:     {name: "hybrid"},
	TopDownDet: {name: "topdown-det"},
	Stepwise:   {name: "stepwise"},
}

func (s Strategy) String() string {
	if s >= 0 && int(s) < len(strategies) {
		return strategies[s].name
	}
	return fmt.Sprintf("Strategy(%d)", int(s))
}

// ASTAOptions is the ASTA evaluator configuration of Naive, Jumping,
// Memoized and Optimized, the series of Figure 4; zero for the others.
func (s Strategy) ASTAOptions() asta.Options { return strategies[s].asta }

// ParseStrategy maps a strategy name (as printed by String) back to the
// constant; ok is false for unknown names. The empty string is Auto, so
// wire formats can omit the field.
func ParseStrategy(name string) (Strategy, bool) {
	if name == "" {
		return Auto, true
	}
	for s, st := range strategies {
		if st.name == name {
			return Strategy(s), true
		}
	}
	return Auto, false
}

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

	// cache holds one *compiled per (label table, query), keyed
	// keyPrefix+tableID+query: the whole compiled query, for every
	// strategy. It may be shared across engines; engines over one label
	// table then share its entries.
	cache     *qcache.Cache
	keyPrefix string

	// pool accounts the warm evaluation contexts parked on the cached
	// automata (ctxpool.go).
	pool *Pool
}

// New builds the engine, its index, and a private bounded query cache.
func New(d *tree.Document) *Engine {
	return NewWithIndex(d, index.New(d), qcache.New(qcache.DefaultCapacity), "")
}

// NewWithIndex builds an engine over a document whose index is already
// built, storing compiled queries in the given (possibly shared) cache
// under keys namespaced with keyPrefix. The engine gets a context pool
// of its own.
func NewWithIndex(d *tree.Document, ix *index.Index, c *qcache.Cache, keyPrefix string) *Engine {
	return &Engine{doc: d, ix: ix, cache: c, keyPrefix: keyPrefix, pool: new(Pool)}
}

// NewShared builds an engine over one generation of a document around
// warm state its caller owns: the service's cache and pool. It allocates
// nothing else; the service makes one per request.
func NewShared(d *tree.Document, ix *index.Index, c *qcache.Cache, pool *Pool) *Engine {
	return &Engine{doc: d, ix: ix, cache: c, pool: pool}
}

// cacheKey names a compiled query by what it is a function of: the
// label table (by id) and the query text. Every document with the same
// names shares the table, and so the entry; a generation with a new
// label, or a document with other names, has another table and can
// neither hit nor overwrite it.
func (e *Engine) cacheKey(query string) string {
	var buf [20]byte
	table := strconv.AppendUint(buf[:0], e.doc.Names().ID(), 10)
	return e.keyPrefix + string(table) + "\x00" + query
}

// Answer is a query outcome.
type Answer struct {
	// Nodes is the selected node set in document order.
	Nodes []tree.NodeID
	// Strategy is the engine that actually ran (never Auto).
	Strategy Strategy
	// Work is what the run did (Visited, Jumps, MemoEntries, MemoHits).
	obsv.Work
}

// Query evaluates with the Auto strategy.
func (e *Engine) Query(query string) (*Answer, error) {
	return e.QueryWith(query, Auto)
}

// QueryWith evaluates with an explicit strategy. A forced engine
// refuses a query outside its fragment with its own ErrUnsupported;
// Auto never fails on fragment grounds, since it routes what no
// automaton expresses — backward axes, text functions — to the
// step-wise engine, like the paper's black-box handling of XPath 1.0
// functions (§6). It is the materializing counterpart of EvalCursor and
// shares its evaluation path.
func (e *Engine) QueryWith(query string, s Strategy) (*Answer, error) {
	c, err := e.EvalCursor(query, s)
	if err != nil {
		return nil, err
	}
	return &Answer{Nodes: c.nodes, Strategy: c.strategy, Work: c.run.Work}, nil
}
