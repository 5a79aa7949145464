// Package qcache is the compiled-query cache shared by core.Engine and
// the multi-document query service: a size-bounded LRU of compiled (and
// minimized) automata with single-flight compilation, so that N
// concurrent requests for the same uncached query trigger exactly one
// compilation and the automaton is amortized across every later
// evaluation — the regime where the paper's whole-query optimization
// pays for itself.
//
// Values are opaque (any): the same cache holds ASTA and minimized
// TDSTA artifacts side by side. A key names what its value is a
// function of — core uses labelTableID\x00kind\x00query — so no entry
// ever has to be invalidated: a document whose alphabet changed, or
// that was reloaded, looks its queries up under another table id, and
// the entries of tables no document uses any more go cold and leave by
// the LRU like anything else.
package qcache

import (
	"container/list"
	"fmt"
	"sync"
	"sync/atomic"
)

// Budget is a byte budget shared by several caches — the global
// admission bound over the sharded service's per-shard compiled-query
// LRUs. Each participating cache reports its resident-byte deltas to
// the budget; when the global total exceeds the maximum, the cache
// performing an insertion evicts from its own LRU tail until the total
// fits again (never the entry just inserted; an entry larger than the
// whole budget is not cached at all, since no amount of eviction could
// ever fit it). Enforcement is local to
// the inserting shard by design: no cross-shard lock is ever taken, so
// a hot shard pays its own admission pressure while idle shards keep
// their working sets warm. The atomic total makes over-budget checks
// racy by a single in-flight entry at worst, which is acceptable slack
// for a cache bound.
type Budget struct {
	max  int64
	used atomic.Int64
}

// NewBudget returns a budget of maxBytes shared bytes, or nil (meaning
// "no global bound", which every method tolerates) when maxBytes <= 0.
func NewBudget(maxBytes int64) *Budget {
	if maxBytes <= 0 {
		return nil
	}
	return &Budget{max: maxBytes}
}

func (b *Budget) add(n int64) {
	if b != nil {
		b.used.Add(n)
	}
}

// Over reports whether the summed resident bytes exceed the budget.
func (b *Budget) Over() bool { return b != nil && b.used.Load() > b.max }

// Used returns the summed resident bytes across participating caches.
func (b *Budget) Used() int64 {
	if b == nil {
		return 0
	}
	return b.used.Load()
}

// Max returns the budget bound (0 for a nil budget).
func (b *Budget) Max() int64 {
	if b == nil {
		return 0
	}
	return b.max
}

// BudgetStats is a point-in-time snapshot of a shared budget.
type BudgetStats struct {
	UsedBytes int64 `json:"used_bytes"`
	MaxBytes  int64 `json:"max_bytes"`
}

// Stats snapshots the budget.
func (b *Budget) Stats() BudgetStats {
	return BudgetStats{UsedBytes: b.Used(), MaxBytes: b.Max()}
}

// Cache is a concurrency-safe LRU keyed by string. The zero value is not
// usable; call New or NewSized.
type Cache struct {
	mu       sync.Mutex
	capacity int
	maxBytes int64   // 0 = no byte bound
	budget   *Budget // nil = no shared global bound
	curBytes int64
	ll       *list.List // front = most recently used
	items    map[string]*list.Element
	inflight map[string]*call

	hits      uint64
	misses    uint64
	evictions uint64
}

type entry struct {
	key  string
	val  any
	size int64
}

// Sizer lets cached values report their heap footprint, so the LRU can
// bound bytes instead of entry count: one huge `//a[...]//b[...]` ASTA
// weighs what it costs, not the same as a three-state chain automaton.
// Values without it are charged DefaultEntryBytes.
type Sizer interface {
	SizeBytes() int64
}

// DefaultEntryBytes is the weight charged to values that do not
// implement Sizer — roughly a small compiled automaton.
const DefaultEntryBytes = 2048

// Evictee is implemented by values that keep state outside the cache's
// accounting (core parks an automaton's warm contexts on its entry).
// Evicted is called once when the value leaves the cache — evicted,
// removed, replaced, or refused admission — under the cache's lock: it
// must be brief and must not call back into the cache.
type Evictee interface {
	Evicted()
}

func entrySize(val any) int64 {
	if s, ok := val.(Sizer); ok {
		if n := s.SizeBytes(); n > 0 {
			return n
		}
	}
	return DefaultEntryBytes
}

// call is an in-flight compilation other goroutines wait on.
type call struct {
	done chan struct{}
	val  any
	err  error
}

// DefaultCapacity bounds caches whose creator did not choose a size.
const DefaultCapacity = 256

// New returns a cache holding at most capacity entries; capacity <= 0
// falls back to DefaultCapacity.
func New(capacity int) *Cache {
	return NewSized(capacity, 0)
}

// NewSized returns a cache bounded by both an entry count and a byte
// budget (0 = entries only). Entry weights come from the values' Sizer
// implementation; eviction runs from the LRU tail until both bounds
// hold, but never evicts the entry just inserted (an oversize automaton
// is admitted alone rather than thrashing).
func NewSized(capacity int, maxBytes int64) *Cache {
	return NewShared(capacity, maxBytes, nil)
}

// NewShared returns a cache bounded like NewSized that additionally
// participates in a shared byte Budget (nil budget = NewSized): its
// resident bytes count toward the global total, and an insertion that
// finds the global total over budget evicts from this cache's own LRU
// tail until the total fits (or only the new entry remains).
func NewShared(capacity int, maxBytes int64, budget *Budget) *Cache {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	if maxBytes < 0 {
		maxBytes = 0
	}
	return &Cache{
		capacity: capacity,
		maxBytes: maxBytes,
		budget:   budget,
		ll:       list.New(),
		items:    make(map[string]*list.Element),
		inflight: make(map[string]*call),
	}
}

// Get returns the cached value and marks it most recently used.
func (c *Cache) Get(key string) (any, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		c.hits++
		return el.Value.(*entry).val, true
	}
	c.misses++
	return nil, false
}

// GetOrCompile returns the cached value for key, or runs compile to
// produce it. Concurrent callers with the same key share one compile
// call (single-flight); errors are returned to every waiter and nothing
// is cached. hit reports whether the value came from the cache without
// this caller waiting on a compilation.
func (c *Cache) GetOrCompile(key string, compile func() (any, error)) (val any, hit bool, err error) {
	c.mu.Lock()
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		c.hits++
		c.mu.Unlock()
		return el.Value.(*entry).val, true, nil
	}
	c.misses++
	if cl, ok := c.inflight[key]; ok {
		// Another goroutine is compiling this key; wait for it.
		c.mu.Unlock()
		<-cl.done
		return cl.val, false, cl.err
	}
	cl := &call{done: make(chan struct{})}
	c.inflight[key] = cl
	c.mu.Unlock()

	// A panicking compile must still release the in-flight entry and
	// wake waiters (with an error), or the key wedges forever; the
	// panic is re-raised for the caller after cleanup.
	var panicked any
	func() {
		defer func() {
			if r := recover(); r != nil {
				panicked = r
				cl.err = fmt.Errorf("qcache: compile panicked: %v", r)
			}
		}()
		cl.val, cl.err = compile()
	}()
	close(cl.done)

	c.mu.Lock()
	delete(c.inflight, key)
	if cl.err == nil {
		c.add(key, cl.val)
	}
	c.mu.Unlock()
	if panicked != nil {
		panic(panicked)
	}
	return cl.val, false, cl.err
}

// Put inserts or replaces a value.
func (c *Cache) Put(key string, val any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.add(key, val)
}

// add inserts under c.mu, evicting from the LRU tail while either bound
// (entry count, byte budget) is exceeded.
func (c *Cache) add(key string, val any) {
	size := entrySize(val)
	if el, ok := c.items[key]; ok {
		c.drop(el)
	}
	// An entry larger than the entire shared budget must not be cached:
	// admitting it would leave the budget permanently over, and every
	// other participating cache would evict its whole working set on
	// each insertion trying to fit a total that can never fit. The
	// caller still gets the compiled value — it just isn't resident.
	if c.budget != nil && size > c.budget.max {
		evicted(val)
		return
	}
	c.items[key] = c.ll.PushFront(&entry{key: key, val: val, size: size})
	c.curBytes += size
	c.budget.add(size)
	for c.ll.Len() > c.capacity ||
		(c.ll.Len() > 1 &&
			((c.maxBytes > 0 && c.curBytes > c.maxBytes) || c.budget.Over())) {
		c.drop(c.ll.Back())
		c.evictions++
	}
}

// drop unlinks one entry under c.mu, gives its bytes back and tells an
// Evictee value it is gone.
func (c *Cache) drop(el *list.Element) {
	e := el.Value.(*entry)
	c.ll.Remove(el)
	delete(c.items, e.key)
	c.curBytes -= e.size
	c.budget.add(-e.size)
	evicted(e.val)
}

func evicted(val any) {
	if ev, ok := val.(Evictee); ok {
		ev.Evicted()
	}
}

// Remove drops one key; it reports whether the key was present.
func (c *Cache) Remove(key string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if ok {
		c.drop(el)
	}
	return ok
}

// Len reports the number of cached entries.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// Stats is a point-in-time snapshot of cache effectiveness.
type Stats struct {
	Size     int `json:"size"`
	Capacity int `json:"capacity"`
	// SizeBytes is the summed weight of resident entries; MaxBytes is
	// the byte budget (0 = unbounded, entry count only).
	SizeBytes int64  `json:"size_bytes"`
	MaxBytes  int64  `json:"max_bytes,omitempty"`
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Evictions uint64 `json:"evictions"`
}

// HitRate is hits/(hits+misses), or 0 before any lookup.
func (s Stats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// AddTo accumulates s into dst (for cross-shard aggregation).
func (s Stats) AddTo(dst *Stats) {
	dst.Size += s.Size
	dst.Capacity += s.Capacity
	dst.SizeBytes += s.SizeBytes
	dst.MaxBytes += s.MaxBytes
	dst.Hits += s.Hits
	dst.Misses += s.Misses
	dst.Evictions += s.Evictions
}

// Stats returns a snapshot of the counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Size:      c.ll.Len(),
		Capacity:  c.capacity,
		SizeBytes: c.curBytes,
		MaxBytes:  c.maxBytes,
		Hits:      c.hits,
		Misses:    c.misses,
		Evictions: c.evictions,
	}
}
