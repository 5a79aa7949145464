package core

import (
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/asta"
	"repro/internal/index"
	"repro/internal/tree"
)

// Warm evaluation contexts are kept on what they depend on. An
// asta.Context's memo world is a function of (automaton, options), so
// the contexts of an automaton are parked on its query-cache entry, one
// free list per option set. The steady state of the serving layers —
// the same query over the same document, or over any later generation
// that added no label — checks out a context whose memo world is
// already derived and whose arenas are already sized, evaluates
// allocation-free, and parks it again. Nothing is ever invalidated: a
// parked context references no document, and when the LRU evicts an
// automaton its contexts go with it — one recency policy covers both.

// maxPooledCtxBytes drops contexts whose arenas grew past this on
// release: a context that served one huge answer should not pin its
// peak forever. maxPoolResidentBytes caps the summed scratch parked
// under one Pool — everything else resident in the system is
// byte-budgeted, and so is this. Variables only so tests can exercise
// the drop paths.
var (
	maxPooledCtxBytes    = int64(32 << 20)
	maxPoolResidentBytes = int64(128 << 20)
)

// maxPerKey bounds the contexts parked per (automaton, options): enough
// for every P to run the same hot query concurrently, small enough to
// bound resident scratch.
func maxPerKey() int {
	n := runtime.GOMAXPROCS(0)
	if n > 8 {
		n = 8
	}
	return n
}

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
// It also keeps the TDSTA's jump cursors, which depend on no automaton,
// on one free list.
type Pool struct {
	hits       atomic.Uint64
	misses     atomic.Uint64
	guardTrips atomic.Uint64
	drops      atomic.Uint64
	resident   atomic.Int64
	arenaBytes atomic.Int64

	mu      sync.Mutex
	cursors []*index.Cursors // parked: rewound, holding no index
}

// takeCursors returns a cursor set over ix, a parked one when there is
// one, for the caller to hand back through parkCursors.
func (p *Pool) takeCursors(ix *index.Index) *index.Cursors {
	var c *index.Cursors
	p.mu.Lock()
	if n := len(p.cursors); n > 0 {
		c, p.cursors = p.cursors[n-1], p.cursors[:n-1]
	}
	p.mu.Unlock()
	if c == nil {
		return ix.NewCursors()
	}
	c.Retarget(ix)
	return c
}

// parkCursors rewinds c and lets go of its index, then parks it unless
// maxPerKey sets are parked already.
func (p *Pool) parkCursors(c *index.Cursors) {
	c.Retarget(nil)
	p.mu.Lock()
	if len(p.cursors) < maxPerKey() {
		p.cursors = append(p.cursors, c)
	}
	p.mu.Unlock()
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

// compiled is the query cache's value for an ASTA: the automaton, the
// label table it was compiled against, and the warm contexts parked on
// it between runs, accounted to the pool of the engine that compiled it.
type compiled struct {
	aut   *asta.ASTA
	names *tree.LabelTable
	pool  *Pool

	// mu guards free and gone: a map lookup and a slice push or pop. It
	// is taken under the cache's lock by Evicted, never the other way.
	mu   sync.Mutex
	free map[asta.Options][]parkedCtx
	// gone: the value left (or never entered) the cache, so nothing will
	// look it up again and releases drop instead of parking.
	gone bool
}

// parkedCtx is a parked context and the MemBytes it was parked with
// (so the gauges subtract what they added).
type parkedCtx struct {
	ctx   *asta.Context
	bytes int64
}

// SizeBytes weighs the cache entry by its automaton (qcache.Sizer).
func (cv *compiled) SizeBytes() int64 { return cv.aut.SizeBytes() }

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
	cv.free = nil
	cv.mu.Unlock()
}

// checkout returns a context for running the automaton under opt — a
// parked one when available, a fresh one otherwise — and whether it was
// warm (the observability layer lifts this into per-query records). A
// context is a hit only for the (automaton, options) pair it last ran:
// pooling mixed-strategy traffic together would count full rebinds as
// warm hits and thrash the memo world. The caller must hand the result
// back via release exactly once.
func (cv *compiled) checkout(opt asta.Options) (*asta.Context, bool) {
	cv.mu.Lock()
	list := cv.free[opt]
	if len(list) == 0 {
		cv.mu.Unlock()
		cv.pool.misses.Add(1)
		return asta.NewContext(), false
	}
	pc := list[len(list)-1]
	cv.free[opt] = list[:len(list)-1]
	cv.pool.resident.Add(-1)
	cv.pool.arenaBytes.Add(-pc.bytes)
	cv.mu.Unlock()
	cv.pool.hits.Add(1)
	return pc.ctx, true
}

// release parks a checked-out context for reuse, unless its automaton
// has left the cache, the free list for opt is full, the context's
// arenas outgrew the retention cap or the pool's byte budget is spent.
func (cv *compiled) release(opt asta.Options, ctx *asta.Context) {
	bytes := ctx.MemBytes()
	cv.mu.Lock()
	list := cv.free[opt]
	if cv.gone || len(list) >= maxPerKey() || bytes > maxPooledCtxBytes ||
		cv.pool.arenaBytes.Load()+bytes > maxPoolResidentBytes {
		cv.mu.Unlock()
		cv.pool.drops.Add(1)
		return
	}
	if cv.free == nil {
		cv.free = make(map[asta.Options][]parkedCtx)
	}
	cv.free[opt] = append(list, parkedCtx{ctx: ctx, bytes: bytes})
	cv.pool.resident.Add(1)
	cv.pool.arenaBytes.Add(bytes)
	cv.mu.Unlock()
}
