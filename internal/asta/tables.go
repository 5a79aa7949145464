package asta

import "unsafe"

// Open-addressed hash tables over flat slices for the evaluator's three
// hot-path lookups (set interning, eval_trans recipes, information-
// propagation r2 restrictions), which the paper's cost model assumes
// free once memoized. A warm Go map allocates nothing either but is
// slower: backed by maps, warm re-evaluations of the paper queries ran
// 1.07-1.92x slower (geomean 1.34 at XMark 0.05, 1.30 at 0.1; six
// alternating runs of 100 iterations, 2-core Xeon VM). Linear probing
// over power-of-two capacities, entries inline, never cleared: a
// Context's tables belong to its one automaton, and a warm run touches
// them read-mostly.

// hash64 is the splitmix64 finalizer: a full-avalanche mix for machine
// words, which is exactly what StateSets are.
func hash64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

const tableInitCap = 32 // power of two; small queries stay in one cache line's worth of probes

// hash implements tableKey for interned state sets.
func (s StateSet) hash() uint64 { return hash64(uint64(s)) }

// recipeKey identifies one memoized eval_trans outcome: the transInfo
// (which fixes the active transitions) and the children's satisfied
// sets.
type recipeKey struct {
	ti     int32
	s1, s2 StateSet
}

func (k recipeKey) hash() uint64 {
	h := hash64(uint64(uint32(k.ti))*0x9e3779b97f4a7c15 ^ uint64(k.s1))
	return h ^ hash64(uint64(k.s2)+0x9e3779b97f4a7c15)
}

// r2Key identifies one information-propagation restriction: the
// transInfo and the first child's satisfied set.
type r2Key struct {
	ti int32
	s1 StateSet
}

func (k r2Key) hash() uint64 {
	return hash64(uint64(uint32(k.ti))*0x9e3779b97f4a7c15 ^ uint64(k.s1))
}

// tableKey is what an openTable can be keyed on.
type tableKey interface {
	comparable
	hash() uint64
}

// openTable is the open-addressed map: linear probing over a
// power-of-two capacity, entries stored inline in parallel flat
// slices, occupancy in its own byte slice so any key/value types work
// without sentinel values. Zero value is an empty table; put grows at
// 3/4 load.
type openTable[K tableKey, V any] struct {
	keys []K
	vals []V
	used []bool
	n    int
}

func (t *openTable[K, V]) init(capacity int) {
	if capacity < tableInitCap {
		capacity = tableInitCap
	}
	t.keys = make([]K, capacity)
	t.vals = make([]V, capacity)
	t.used = make([]bool, capacity)
	t.n = 0
}

func (t *openTable[K, V]) get(k K) (V, bool) {
	var zero V
	if len(t.used) == 0 {
		return zero, false
	}
	mask := uint64(len(t.used) - 1)
	for i := k.hash() & mask; ; i = (i + 1) & mask {
		if !t.used[i] {
			return zero, false
		}
		if t.keys[i] == k {
			return t.vals[i], true
		}
	}
}

func (t *openTable[K, V]) put(k K, v V) {
	if len(t.used) == 0 {
		t.init(tableInitCap)
	} else if 4*(t.n+1) > 3*len(t.used) {
		t.grow()
	}
	mask := uint64(len(t.used) - 1)
	for i := k.hash() & mask; ; i = (i + 1) & mask {
		if !t.used[i] {
			t.keys[i], t.vals[i], t.used[i] = k, v, true
			t.n++
			return
		}
		if t.keys[i] == k {
			t.vals[i] = v
			return
		}
	}
}

func (t *openTable[K, V]) grow() {
	oldK, oldV, oldU := t.keys, t.vals, t.used
	t.init(2 * len(oldU))
	mask := uint64(len(t.used) - 1)
	for j, used := range oldU {
		if !used {
			continue
		}
		k := oldK[j]
		for i := k.hash() & mask; ; i = (i + 1) & mask {
			if !t.used[i] {
				t.keys[i], t.vals[i], t.used[i] = k, oldV[j], true
				t.n++
				break
			}
		}
	}
}

// memBytes estimates the table's resident bytes given the per-slot
// key+value size.
func (t *openTable[K, V]) memBytes(slotSize int64) int64 {
	return int64(len(t.used)) * (slotSize + 1)
}

// tiStore holds transInfo rows in fixed-size chunks: dense int32 ids
// for table keys, stable addresses (a chunk is never reallocated) so a
// *transInfo held across the recursive child evaluations stays valid,
// and no per-row allocation in steady state.
type tiStore struct {
	chunks [][]transInfo
	n      int32
}

const tiChunk = 64

func (s *tiStore) new() *transInfo {
	ci := int(s.n) / tiChunk
	if ci == len(s.chunks) {
		s.chunks = append(s.chunks, make([]transInfo, tiChunk))
	}
	ti := &s.chunks[ci][int(s.n)%tiChunk]
	*ti = transInfo{id: s.n, r1ID: -1, r2ID: -1}
	s.n++
	return ti
}

func (s *tiStore) at(id int32) *transInfo {
	return &s.chunks[id/tiChunk][id%tiChunk]
}

func (s *tiStore) memBytes() int64 {
	const tiSize = 64 // transInfo struct, padded
	return int64(len(s.chunks)) * tiChunk * tiSize
}

// sliceArena chunk-allocates windows out of []T blocks: transition
// lists, per-set label rows, recipe op-lists, chain cells and id
// storage are carved here instead of per-row make calls. Carved
// windows are never grown — chunks too full for a request are skipped,
// not reallocated — so addresses stay stable; reset rewinds every
// chunk in place for reuse. chunkSize must be set before the first
// carve.
type sliceArena[T any] struct {
	chunks    [][]T
	ci        int
	chunkSize int
}

const (
	i32Chunk = 1024 // int32 arena: transition lists + label rows
	opChunk  = 512  // recipe op-lists
)

// carve returns a zero-length, capacity-n window exclusively the
// caller's: the full-slice-expression cap keeps later carvings (and
// appends past the window) out of it.
func (a *sliceArena[T]) carve(n int) []T {
	for {
		if a.ci == len(a.chunks) {
			c := a.chunkSize
			if n > c {
				c = n
			}
			a.chunks = append(a.chunks, make([]T, 0, c))
		}
		ch := a.chunks[a.ci]
		if cap(ch)-len(ch) >= n {
			base := len(ch)
			a.chunks[a.ci] = ch[: base+n : cap(ch)]
			return ch[base : base : base+n]
		}
		a.ci++
	}
}

// carveFull is carve with the window's length already set to n, for
// callers that index instead of appending.
func (a *sliceArena[T]) carveFull(n int) []T {
	w := a.carve(n)
	return w[:n]
}

func (a *sliceArena[T]) copyOf(src []T) []T {
	if len(src) == 0 {
		return nil
	}
	return append(a.carve(len(src)), src...)
}

func (a *sliceArena[T]) reset() {
	for i := range a.chunks {
		a.chunks[i] = a.chunks[i][:0]
	}
	a.ci = 0
}

// memBytes reports the bytes the arena's chunks hold: their capacity,
// not their use, at the element's own size.
func (a *sliceArena[T]) memBytes() int64 {
	var zero T
	var b int64
	for _, ch := range a.chunks {
		b += int64(cap(ch))
	}
	return b * int64(unsafe.Sizeof(zero))
}
