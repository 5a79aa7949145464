package bitvec

import (
	"math/rand"
	"testing"
)

// Paired rank/select benchmarks: the word-level kernels
// (bits.OnesCount64 ranks, the broadword selectInWord) against the
// pre-rewrite per-bit scans, sharing the superblock directory so the
// pair isolates exactly the in-superblock scanning that rewrite
// changed. Not a gate: no daemon path reaches these kernels.

// perbitRank1 is the old shape: superblock counter + bit-at-a-time scan
// of the superblock's prefix.
func perbitRank1(v *Vector, i int) int {
	if i <= 0 {
		return 0
	}
	if i > v.n {
		i = v.n
	}
	sb := i / superBits
	r := int(v.super[sb])
	for p := sb * superBits; p < i; p++ {
		if v.Get(p) {
			r++
		}
	}
	return r
}

// perbitSelect1 is the old shape: superblock binary search + bit-at-a-
// time scan counting set bits.
func perbitSelect1(v *Vector, k int) int {
	if k <= 0 || k > v.ones {
		return -1
	}
	lo, hi := 0, len(v.super)-1
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if v.super[mid] < uint64(k) {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	rem := k - int(v.super[lo])
	for p := lo * superBits; p < v.n; p++ {
		if v.Get(p) {
			rem--
			if rem == 0 {
				return p
			}
		}
	}
	return -1
}

func benchVector(n int) *Vector {
	rng := rand.New(rand.NewSource(42))
	b := NewBuilder(n)
	// Balanced-parentheses density: exactly half ones, in random order,
	// matching the paren vector the BP layer runs rank/select against.
	ones := n / 2
	for i := 0; i < n; i++ {
		if rng.Intn(n-i) < ones {
			b.Append(true)
			ones--
		} else {
			b.Append(false)
		}
	}
	return b.Build()
}

func BenchmarkKernelsVsPerBit(b *testing.B) {
	v := benchVector(4 << 20)
	rng := rand.New(rand.NewSource(7))
	positions := make([]int, 4096)
	for i := range positions {
		positions[i] = rng.Intn(v.Len() + 1)
	}
	ks := make([]int, 4096)
	for i := range ks {
		ks[i] = 1 + rng.Intn(v.Ones())
	}
	sink := 0

	b.Run("rank/word", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sink += v.Rank1(positions[i%len(positions)])
		}
	})
	b.Run("rank/perbit", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sink += perbitRank1(v, positions[i%len(positions)])
		}
	})

	b.Run("select/word", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sink += v.Select1(ks[i%len(ks)])
		}
	})
	b.Run("select/perbit", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sink += perbitSelect1(v, ks[i%len(ks)])
		}
	})

	if sink == 1<<62 {
		b.Fatal("impossible")
	}
}

// TestPerbitBaselinesAgree keeps the paired benchmark honest.
func TestPerbitBaselinesAgree(t *testing.T) {
	v := benchVector(10_000)
	for i := 0; i <= v.Len(); i += 7 {
		if got, want := perbitRank1(v, i), v.Rank1(i); got != want {
			t.Fatalf("perbitRank1(%d) = %d, want %d", i, got, want)
		}
	}
	for k := 1; k <= v.Ones(); k += 13 {
		if got, want := perbitSelect1(v, k), v.Select1(k); got != want {
			t.Fatalf("perbitSelect1(%d) = %d, want %d", k, got, want)
		}
	}
}
