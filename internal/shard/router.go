// Package shard partitions the multi-document serving layer: a Router
// assigns every document id to one of N partitions, and Store fans the
// single-registry store API out over N goroutine-affine partitions so
// huge corpora stop contending on one registry lock. The assignment is
// hash(id) mod N: N is fixed for the life of a process, and nothing a
// client holds names a shard (a continuation token names a document and
// one of its generations, and generations do not survive the process),
// so there is nothing for a ring's minimal relocation to preserve.
package shard

import "hash/fnv"

// Router maps document ids onto shard indexes. It is immutable after
// construction and safe for concurrent use.
type Router struct {
	n int
}

// NewRouter builds a router over n shards; n < 1 is clamped to 1.
func NewRouter(n int) *Router {
	return &Router{n: max(n, 1)}
}

// NumShards reports the shard count.
func (r *Router) NumShards() int { return r.n }

// Shard returns the shard index owning id.
func (r *Router) Shard(id string) int {
	if r.n == 1 {
		return 0
	}
	return int(hash64(id) % uint64(r.n))
}

// hash64 is FNV-1a over the id bytes followed by a murmur3-style
// 64-bit finalizer. FNV alone leaves similar ids (sequential "doc-N")
// correlated in its low bits, which the modulus reads; the finalizer's
// avalanche restores uniformity. It is stable across processes,
// platforms and Go releases (unlike hash/maphash), so placement is
// reproducible: a test or a benchmark that picks ids per shard picks
// the same ones every run.
func hash64(s string) uint64 {
	f := fnv.New64a()
	f.Write([]byte(s))
	h := f.Sum64()
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}
