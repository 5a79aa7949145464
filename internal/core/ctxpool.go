package core

import (
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/asta"
	"repro/internal/compile"
	"repro/internal/hybrid"
	"repro/internal/index"
	"repro/internal/obsv"
	"repro/internal/sta"
	"repro/internal/tree"
	"repro/internal/xpath"
)

// Warm evaluation contexts are kept on what they depend on. An
// asta.Context's memo world is a function of (automaton, options), so
// the contexts of an automaton are parked on its query-cache entry, one
// free list per ASTA strategy, each context made for its pair. The
// steady state of the serving layers — the same query over the same
// document, or over any later generation that added no label — checks
// out a context whose memo world is already derived and whose arenas
// are already sized, evaluates allocation-free, and parks it again.
// Nothing is ever invalidated: a parked context references no
// document, and when the LRU evicts an automaton its contexts go with
// it — one recency policy covers both.

// maxPooledCtxBytes drops contexts whose arenas, and maxPooledNodes
// scratches whose buffers (4 MiB), grew past it: what served one huge
// answer should not pin its peak forever. maxPoolResidentBytes caps
// the summed scratch parked under one Pool — everything else resident
// in the system is byte-budgeted, and so is this. Variables only so
// tests can exercise the drop paths.
var (
	maxPooledCtxBytes    = int64(32 << 20)
	maxPooledNodes       = 1 << 20
	maxPoolResidentBytes = int64(128 << 20)
)

// maxPerKey bounds the contexts parked per (automaton, strategy), and
// a Pool's scratches: enough for every P to run the same hot query
// concurrently, small enough to bound resident scratch.
func maxPerKey() int { return min(runtime.GOMAXPROCS(0), maxParked) }

const maxParked = 8

// PoolStats is a point-in-time picture of a context pool.
type PoolStats struct {
	// Hits counts checkouts served by a parked warm context; Misses
	// counts cold checkouts, each of which constructed a context. A
	// context ends dropped, parked or in use, so Misses - Drops -
	// Resident is the number checked out right now.
	Hits   uint64 `json:"hits"`
	Misses uint64 `json:"misses"`
	// GuardTrips counts cache lookups that returned an automaton compiled
	// against another label table than the evaluated document's. The key
	// carries the table's id, so nonzero means the keying was violated
	// somewhere — the guard contained it.
	GuardTrips uint64 `json:"guard_trips"`
	// Drops counts contexts discarded instead of kept: released over a
	// cap, or parked on an automaton the cache evicted.
	Drops uint64 `json:"drops"`
	// Resident counts contexts currently parked; ArenaBytes is their
	// summed MemBytes — the scratch memory kept warm for reuse.
	Resident   int   `json:"resident"`
	ArenaBytes int64 `json:"arena_bytes"`
}

// HitRate returns Hits/(Hits+Misses), 0 when idle.
func (p PoolStats) HitRate() float64 {
	if p.Hits+p.Misses == 0 {
		return 0
	}
	return float64(p.Hits) / float64(p.Hits+p.Misses)
}

// Pool accounts the warm contexts parked on the automata its engines
// compiled: the counters behind PoolStats and the byte budget releases
// are admitted against. The service has one, an engine built without
// one its own. The zero Pool is ready to use.
// It also lends the hybrid and TDSTA runs their scratch.
type Pool struct {
	hits       atomic.Uint64
	misses     atomic.Uint64
	guardTrips atomic.Uint64
	drops      atomic.Uint64
	resident   atomic.Int64
	arenaBytes atomic.Int64

	mu     sync.Mutex
	n      int
	parked [maxParked]*scratch // an array: parking allocates nothing
}

// scratch is what a hybrid or TDSTA run borrows: the TDSTA's jump
// cursors and the buffer a run appends its answer to.
type scratch struct {
	cur   index.Cursors
	nodes []tree.NodeID
}

// borrow returns a scratch over ix, a parked one when there is one,
// for the caller to hand back through answer.
func (p *Pool) borrow(ix *index.Index) *scratch {
	var sc *scratch
	p.mu.Lock()
	if p.n > 0 {
		p.n--
		sc, p.parked[p.n] = p.parked[p.n], nil
	}
	p.mu.Unlock()
	if sc == nil {
		sc = new(scratch)
	}
	sc.cur.Retarget(ix)
	return sc
}

// answer copies a run's answer out of sc's buffer and parks sc, holding
// no index, unless the buffer grew past maxPooledNodes.
func (p *Pool) answer(sc *scratch, nodes []tree.NodeID) []tree.NodeID {
	out := copyOut(nodes)
	if cap(nodes) > maxPooledNodes {
		return out
	}
	sc.cur.Retarget(nil)
	sc.nodes = nodes[:0]
	p.mu.Lock()
	if p.n < maxPerKey() {
		p.parked[p.n] = sc
		p.n++
	}
	p.mu.Unlock()
	return out
}

// copyOut is how every automaton engine hands over its answer: one
// exactly-sized copy out of its scratch buffer or arena.
func copyOut(nodes []tree.NodeID) []tree.NodeID {
	out := make([]tree.NodeID, len(nodes))
	copy(out, nodes)
	return out
}

// Stats snapshots the pool counters.
func (p *Pool) Stats() PoolStats {
	return PoolStats{
		Hits:       p.hits.Load(),
		Misses:     p.misses.Load(),
		GuardTrips: p.guardTrips.Load(),
		Drops:      p.drops.Load(),
		Resident:   int(p.resident.Load()),
		ArenaBytes: p.arenaBytes.Load(),
	}
}

// compiled is the query cache's value: one query compiled against one
// label table for every strategy, read-only once built (compileQuery)
// but for its automata, built once on first use, and the contexts
// parked on its ASTA between runs, accounted to the pool of the engine
// that compiled it.
type compiled struct {
	// path is the parsed query; route and reason are Auto's choice.
	path   *xpath.Path
	route  Strategy
	reason string
	// chain is the hybrid run's form, nil outside its fragment, and
	// names the label table the entry is compiled against.
	chain *hybrid.Chain
	names *tree.LabelTable
	// refused is, by strategy, the error its fragment test gave: what a
	// request forcing an engine the entry has no form for gets.
	refused [Stepwise + 1]error
	pool    *Pool

	// aut and det are the ASTA and minimal TDSTA, stored once automata
	// has built them under once: SizeBytes reads them without building.
	aut  atomic.Pointer[asta.ASTA]
	det  atomic.Pointer[sta.STA]
	once sync.Once

	// mu guards free, the parked contexts of ASTA strategy s at s-Naive,
	// and gone: a slice push or pop. Nothing else is locked while it is
	// held, and the cache calls Evicted after releasing its own lock.
	mu   sync.Mutex
	free [Optimized - Naive + 1][]parkedCtx
	// gone: the value left (or never entered) the cache, so nothing will
	// look it up again and releases drop instead of parking.
	gone bool
}

// compileQuery builds query's entry over label table names, the one
// place a query is parsed and routed. It runs each engine's fragment
// test once, keeps the refusals, and builds the form Auto's route runs
// (a chain's automata wait for a request that forces them). A parse
// error is returned.
//
// Auto's route is the first engine, in this order, whose fragment test
// accepts the query, and the step-wise engine when none does. It reads
// the query alone, so a query takes the same route on every document,
// generation and run. The order is measured (DESIGN.md "Auto routes by
// fragment"): hybrid was the fastest engine on every chain tried, and
// the TDSTA on every other shape it accepts but Q06, a tie.
func compileQuery(query string, names *tree.LabelTable, pool *Pool, tr *obsv.Trace) (*compiled, error) {
	sp := tr.Begin(obsv.SpanParse)
	p, err := xpath.Parse(query)
	tr.End(sp)
	if err != nil {
		return nil, err
	}
	sp = tr.Begin(obsv.SpanSelect)
	chain, chainErr := hybrid.Compile(p, names)
	detErr, autErr := compile.CheckTDSTA(p), compile.CheckASTA(p)
	cv := &compiled{path: p, chain: chain, names: names, pool: pool, refused: [Stepwise + 1]error{
		Hybrid: chainErr, TopDownDet: detErr,
		Naive: autErr, Jumping: autErr, Memoized: autErr, Optimized: autErr}}
	switch {
	case chainErr == nil:
		cv.route, cv.reason = Hybrid, ReasonChain
	case detErr == nil:
		cv.route, cv.reason = TopDownDet, ReasonTDSTA
	case autErr == nil:
		cv.route, cv.reason = Optimized, ReasonASTA
	default:
		cv.route, cv.reason = Stepwise, ReasonOutside
	}
	tr.End(sp)
	if cv.route == TopDownDet || cv.route == Optimized {
		cv.automata()
	}
	return cv, nil
}

// automata returns the ASTA of a query CheckASTA accepted and its
// minimal TDSTA (nil outside the TDSTA's fragment), built on the first
// call, once, however many goroutines make it.
func (cv *compiled) automata() (*asta.ASTA, *sta.STA) {
	cv.once.Do(func() {
		aut := compile.BuildASTA(cv.path, cv.names)
		if cv.refused[TopDownDet] == nil {
			// The TDSTA's fragment lies inside the ASTA's.
			cv.det.Store(compile.DeterminizeTopDown(aut))
		}
		cv.aut.Store(aut)
	})
	return cv.aut.Load(), cv.det.Load()
}

// parkedCtx is a parked context and the MemBytes it was parked with
// (so the gauges subtract what they added).
type parkedCtx struct {
	ctx   *asta.Context
	bytes int64
}

// entryBytes weighs the entry, its parsed path and its chain: about
// half a kilobyte for a query of a few steps.
const entryBytes = 512

// SizeBytes weighs the entry and the automata built so far (qcache.Sizer).
func (cv *compiled) SizeBytes() int64 {
	return entryBytes + cv.aut.Load().SizeBytes() + cv.det.Load().SizeBytes()
}

// Evicted drops the parked contexts with the automaton (qcache.Evictee):
// cache eviction is pool eviction.
func (cv *compiled) Evicted() {
	cv.mu.Lock()
	cv.gone = true
	for _, list := range cv.free {
		for _, pc := range list {
			cv.pool.resident.Add(-1)
			cv.pool.arenaBytes.Add(-pc.bytes)
			cv.pool.drops.Add(1)
		}
	}
	clear(cv.free[:])
	cv.mu.Unlock()
}

// checkout returns a context that runs the automaton under strategy s,
// one of Naive through Optimized — a parked one when available, a fresh
// one otherwise — and whether it was warm (the observability layer
// lifts this into per-query records). The caller must hand the result
// back via release exactly once.
func (cv *compiled) checkout(s Strategy) (*asta.Context, bool) {
	cv.mu.Lock()
	list := cv.free[s-Naive]
	if len(list) == 0 {
		cv.mu.Unlock()
		cv.pool.misses.Add(1)
		aut, _ := cv.automata()
		return aut.NewContext(s.ASTAOptions()), false
	}
	pc := list[len(list)-1]
	cv.free[s-Naive] = list[:len(list)-1]
	cv.pool.resident.Add(-1)
	cv.pool.arenaBytes.Add(-pc.bytes)
	cv.mu.Unlock()
	cv.pool.hits.Add(1)
	return pc.ctx, true
}

// release parks a context checked out for s for reuse, unless its
// automaton has left the cache, the free list of s is full, the
// context's arenas outgrew the retention cap or the pool's byte budget
// is spent.
func (cv *compiled) release(s Strategy, ctx *asta.Context) {
	bytes := ctx.MemBytes()
	cv.mu.Lock()
	list := cv.free[s-Naive]
	if cv.gone || len(list) >= maxPerKey() || bytes > maxPooledCtxBytes ||
		cv.pool.arenaBytes.Load()+bytes > maxPoolResidentBytes {
		cv.mu.Unlock()
		cv.pool.drops.Add(1)
		return
	}
	cv.free[s-Naive] = append(list, parkedCtx{ctx: ctx, bytes: bytes})
	cv.pool.resident.Add(1)
	cv.pool.arenaBytes.Add(bytes)
	cv.mu.Unlock()
}
