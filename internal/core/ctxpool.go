package core

import (
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/asta"
)

// The evaluation-context pool: each engine keeps warm asta.Contexts
// keyed by the compiled automaton they are bound to, so the steady
// state of the serving layers — the same (document, query) evaluated
// thousands of times — checks out a context whose memo world is
// already derived and whose arenas are already sized, evaluates
// allocation-free, and returns it.
//
// Pools are keyed by (automaton pointer, evaluation options), which is
// exactly keying by (document generation, automaton, options): an
// engine is created per resident document handle (the service rebuilds
// it on every reload, i.e. per document generation), a recompiled
// automaton after an LRU eviction has a new pointer, and the options
// distinguish strategy ablations so mixed-strategy traffic on one
// query pools separately instead of thrashing rebinds that would be
// miscounted as warm hits. On top of that structural guarantee sits an
// explicit
// generation guard: every engine carries a process-unique generation
// stamp, every pooled context records the stamp of the engine that
// created it, and a checkout whose stamps disagree resets the context
// to pristine instead of trusting its memo state. The guard is what
// makes "a pooled context never leaks state across a reloaded or
// evicted document" an invariant of the type rather than a property of
// today's call graph.

// engineGen hands out process-unique engine generation stamps.
var engineGen atomic.Uint64

const (
	// maxPoolKeys bounds the distinct (automaton, options) keys one
	// engine pools contexts for; admitting a key beyond it evicts an
	// arbitrary existing key. Keeps a pathological query mix from
	// pinning unbounded scratch.
	maxPoolKeys = 64
)

// maxPooledCtxBytes drops contexts whose arenas grew past this on
// release: a context that served one huge answer should not pin its
// peak forever. maxPoolResidentBytes additionally caps the pool's
// summed resident scratch per engine, so many moderately sized keys
// can't accumulate unbounded memory below the key cap — everything
// else resident in the system is byte-budgeted, and so is this.
// Variables only so tests can exercise the drop paths.
var (
	maxPooledCtxBytes    = int64(32 << 20)
	maxPoolResidentBytes = int64(128 << 20)
)

// maxPerKey bounds the contexts pooled per automaton: enough for every
// P to run the same hot query concurrently, small enough to bound
// resident scratch.
func maxPerKey() int {
	n := runtime.GOMAXPROCS(0)
	if n > 8 {
		n = 8
	}
	return n
}

// pooledCtx is one pool entry: the reusable context, the generation
// stamp of the engine that owns it, and the MemBytes recorded when it
// was pooled (so the resident-bytes gauge subtracts what it added).
type pooledCtx struct {
	ctx   *asta.Context
	gen   uint64
	bytes int64
}

// poolKey identifies one warm binding: a context is only a hit for the
// exact (automaton, options) pair it was bound with — pooling
// mixed-strategy traffic under one key would count full rebinds as
// warm hits and thrash the memo world.
type poolKey struct {
	aut *asta.ASTA
	opt asta.Options
}

// PoolStats is a point-in-time picture of an engine's context pool.
type PoolStats struct {
	// Hits counts checkouts served by a pooled warm context; Misses
	// counts cold checkouts — fresh constructions plus guard-tripped
	// reuses, both of which rebuild the memo world.
	Hits   uint64 `json:"hits"`
	Misses uint64 `json:"misses"`
	// GuardTrips counts checkouts that found a generation-stamp
	// mismatch and reset the context instead of reusing its state.
	// Nonzero means the structural keying was violated somewhere —
	// the guard contained it.
	GuardTrips uint64 `json:"guard_trips"`
	// Drops counts releases that discarded the context (pool full,
	// too many keys, or oversized arenas).
	Drops uint64 `json:"drops"`
	// Resident counts contexts currently parked in the pool;
	// ArenaBytes is their summed MemBytes — the scratch memory kept
	// warm for reuse.
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

// AddTo accumulates p into dst (for per-shard aggregation).
func (p PoolStats) AddTo(dst *PoolStats) {
	dst.Hits += p.Hits
	dst.Misses += p.Misses
	dst.GuardTrips += p.GuardTrips
	dst.Drops += p.Drops
	dst.Resident += p.Resident
	dst.ArenaBytes += p.ArenaBytes
}

// Counters returns p with its gauges (Resident, ArenaBytes) zeroed:
// the part of a pool's stats that outlives the pool. The service adds
// it to a shard's retired totals when an engine is dropped, so the
// counters it exports never decrease.
func (p PoolStats) Counters() PoolStats {
	p.Resident, p.ArenaBytes = 0, 0
	return p
}

// ctxPool is the per-engine pool. All methods are safe for concurrent
// use; the critical sections are a map lookup and a slice push/pop,
// dwarfed by any evaluation.
type ctxPool struct {
	gen uint64

	mu    sync.Mutex
	pools map[poolKey][]pooledCtx

	hits       atomic.Uint64
	misses     atomic.Uint64
	guardTrips atomic.Uint64
	drops      atomic.Uint64
	resident   atomic.Int64
	arenaBytes atomic.Int64
}

func newCtxPool() *ctxPool {
	return &ctxPool{gen: engineGen.Add(1)}
}

// checkout returns a context bound (or bindable) to the key's
// (automaton, options): a warm pooled one when available, a fresh one
// otherwise, plus whether the checkout was warm (the observability
// layer lifts this into per-query records). The caller must hand the
// result back via release exactly once.
func (p *ctxPool) checkout(k poolKey) (pooledCtx, bool) {
	p.mu.Lock()
	if list := p.pools[k]; len(list) > 0 {
		pc := list[len(list)-1]
		p.pools[k] = list[:len(list)-1]
		p.mu.Unlock()
		p.resident.Add(-1)
		p.arenaBytes.Add(-pc.bytes)
		warm := pc.gen == p.gen
		if !warm {
			// Stamp mismatch: this context was created under a
			// different engine (and so possibly a different document
			// generation). Its memo state is untrusted — reset to
			// pristine and adopt it. That makes the checkout cold (the
			// next evaluation rebuilds the memo world), so it counts
			// as a miss, not a hit.
			pc.ctx.Reset()
			pc.gen = p.gen
			p.guardTrips.Add(1)
			p.misses.Add(1)
		} else {
			p.hits.Add(1)
		}
		pc.bytes = 0
		return pc, warm
	}
	p.mu.Unlock()
	p.misses.Add(1)
	return pooledCtx{ctx: asta.NewContext(), gen: p.gen}, false
}

// release parks a checked-out context for reuse, unless the pool for
// its key is full or the context's arenas outgrew the retention cap.
// When the key budget is exhausted an arbitrary existing key is
// evicted to make room: the stale keys are typically automata the
// qcache already dropped (their pointers will never be requested
// again), and letting them squat would both pin their contexts forever
// and permanently disable pooling for every new automaton.
func (p *ctxPool) release(k poolKey, pc pooledCtx) {
	bytes := pc.ctx.MemBytes()
	if bytes > maxPooledCtxBytes ||
		p.arenaBytes.Load()+bytes > maxPoolResidentBytes {
		p.drops.Add(1)
		return
	}
	pc.bytes = bytes
	var evicted []pooledCtx
	p.mu.Lock()
	if p.pools == nil {
		p.pools = make(map[poolKey][]pooledCtx)
	}
	list, ok := p.pools[k]
	if len(list) >= maxPerKey() {
		p.mu.Unlock()
		p.drops.Add(1)
		return
	}
	if !ok && len(p.pools) >= maxPoolKeys {
		for victim, vlist := range p.pools {
			delete(p.pools, victim)
			evicted = vlist
			break
		}
	}
	p.pools[k] = append(list, pc)
	p.mu.Unlock()
	p.resident.Add(1)
	p.arenaBytes.Add(bytes)
	for _, old := range evicted {
		p.resident.Add(-1)
		p.arenaBytes.Add(-old.bytes)
		p.drops.Add(1)
	}
}

// stats snapshots the pool counters.
func (p *ctxPool) stats() PoolStats {
	return PoolStats{
		Hits:       p.hits.Load(),
		Misses:     p.misses.Load(),
		GuardTrips: p.guardTrips.Load(),
		Drops:      p.drops.Load(),
		Resident:   int(p.resident.Load()),
		ArenaBytes: p.arenaBytes.Load(),
	}
}
