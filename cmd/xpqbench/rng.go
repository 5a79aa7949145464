package main

import (
	"hash/fnv"
	"math"
)

// rng is splitmix64: the corpus, the request lists, the zipf draws and
// the patch sequence depend on -seed alone, and an explicit generator
// keeps them identical across Go releases (the request-list hashes are
// pinned by a test).
type rng struct{ s uint64 }

func newRng(seed int64) *rng { return &rng{s: uint64(seed)} }

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// fork derives an independent stream named label, so adding draws to
// one part of a workload never shifts another part.
func (r *rng) fork(label string) *rng {
	h := fnv.New64a()
	h.Write([]byte(label))
	return &rng{s: r.s ^ h.Sum64()}
}

// intn returns a value in [0, n).
func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// float returns a value in [0, 1).
func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// perm returns a random permutation of 0..n-1.
func (r *rng) perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	r.shuffle(n, func(i, j int) { p[i], p[j] = p[j], p[i] })
	return p
}

// shuffle is Fisher–Yates over n elements.
func (r *rng) shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		swap(i, r.intn(i+1))
	}
}

// zipf draws ranks 0..n-1 with P(rank k) ∝ 1/(k+1)^s by inverting the
// cumulative distribution.
type zipf struct{ cdf []float64 }

func newZipf(n int, s float64) *zipf {
	cdf := make([]float64, n)
	sum := 0.0
	for k := range cdf {
		sum += 1 / math.Pow(float64(k+1), s)
		cdf[k] = sum
	}
	for k := range cdf {
		cdf[k] /= sum
	}
	return &zipf{cdf: cdf}
}

func (z *zipf) draw(r *rng) int {
	u := r.float()
	lo, hi := 0, len(z.cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}
