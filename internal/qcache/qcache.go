// Package qcache is the compiled-query cache shared by core.Engine and
// the multi-document query service: a size-bounded LRU of compiled (and
// minimized) automata, so that a query is compiled once and the
// automaton is amortized across every later evaluation — the regime
// where the paper's whole-query optimization pays for itself. A miss
// compiles without waiting on anyone; when concurrent misses of one key
// race, the first value published wins and the others are dropped.
// GetOrCompile is the one way a value enters, and eviction off the LRU
// tail the one way it leaves.
//
// Values are opaque (any): core's is one query compiled for every
// strategy (path, route, chain and automata). A key names what its
// value is a function of — core uses labelTableID\x00query — so no
// entry ever has to be invalidated: a document whose alphabet changed,
// or that was reloaded, looks its queries up under another table id,
// and the entries of tables no document uses any more go cold and
// leave by the LRU like anything else.
package qcache

import (
	"container/list"
	"sync"
)

// Cache is a concurrency-safe LRU keyed by string. The zero value is not
// usable; call New.
type Cache struct {
	mu       sync.Mutex
	capacity int
	ll       *list.List // front = most recently used
	items    map[string]*list.Element

	hits      uint64
	misses    uint64
	evictions uint64
}

type entry struct {
	key string
	val any
}

// Sizer lets cached values report their heap footprint, which Stats sums
// as SizeBytes when it is read, so a value that grew after it entered
// is weighed as it is now. SizeBytes runs under the cache's lock: it
// must not block or call the cache. Values without it are charged
// DefaultEntryBytes.
type Sizer interface {
	SizeBytes() int64
}

// DefaultEntryBytes is the weight charged to values that do not
// implement Sizer — roughly a small compiled automaton.
const DefaultEntryBytes = 2048

// Evictee is implemented by values that keep state outside the cache's
// accounting (core parks an automaton's warm contexts on its entry).
// Evicted is called once when the value leaves the cache, which only
// eviction off the LRU tail does, or, for a duplicate compile that lost
// the race to publish, never enters it. It is called after the cache's
// lock is released, so it may take its own locks and call back into the
// cache; no lock of the cache is ever held around another one.
type Evictee interface {
	Evicted()
}

// DefaultCapacity bounds caches whose creator did not choose a size.
const DefaultCapacity = 256

// New returns a cache holding at most capacity entries; capacity <= 0
// falls back to DefaultCapacity. The entry count is the only bound, and
// it bounds bytes too: every automaton has at most asta.MaxStates states
// (compile refuses longer queries), so no entry outweighs the largest
// query compiled over its label table (DESIGN.md has the sizes).
func New(capacity int) *Cache {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Cache{
		capacity: capacity,
		ll:       list.New(),
		items:    make(map[string]*list.Element),
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
// produce it. A miss compiles at once, without waiting on a concurrent
// compile of the same key; the first value published wins, and a later
// duplicate returns that value and drops its own through Evicted.
// Errors are returned and nothing is cached; a panic in compile reaches
// the caller with nothing held. hit reports whether the value came from
// the cache without this caller compiling.
func (c *Cache) GetOrCompile(key string, compile func() (any, error)) (val any, hit bool, err error) {
	if val, ok := c.Get(key); ok {
		return val, true, nil
	}
	if val, err = compile(); err != nil {
		return nil, false, err
	}
	val, gone := c.insert(key, val)
	if ev, ok := gone.(Evictee); ok {
		ev.Evicted() // the cache's lock is released
	}
	return val, false, nil
}

// insert publishes val under key, unless key is resident, evicting the
// LRU tail past the entry bound. It returns the value now resident
// under key and the one value that left (the evicted tail, or val
// itself when it lost to a resident value; one insert displaces at most
// one) or nil, for the caller to tell once the lock is released.
func (c *Cache) insert(key string, val any) (resident, gone any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		return el.Value.(*entry).val, val
	}
	c.items[key] = c.ll.PushFront(&entry{key: key, val: val})
	if c.ll.Len() > c.capacity {
		e := c.ll.Remove(c.ll.Back()).(*entry)
		delete(c.items, e.key)
		c.evictions++
		gone = e.val
	}
	return val, gone
}

// Stats is a point-in-time snapshot of cache effectiveness.
type Stats struct {
	Size     int `json:"size"`
	Capacity int `json:"capacity"`
	// SizeBytes is the summed weight of resident entries, weighed when
	// the snapshot is taken.
	SizeBytes int64  `json:"size_bytes"`
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

// Stats returns a snapshot of the counters, and weighs every resident
// value.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	var bytes int64
	for el := c.ll.Front(); el != nil; el = el.Next() {
		if s, ok := el.Value.(*entry).val.(Sizer); ok {
			bytes += s.SizeBytes()
		} else {
			bytes += DefaultEntryBytes
		}
	}
	return Stats{
		Size:      c.ll.Len(),
		Capacity:  c.capacity,
		SizeBytes: bytes,
		Hits:      c.hits,
		Misses:    c.misses,
		Evictions: c.evictions,
	}
}
