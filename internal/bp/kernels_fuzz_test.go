package bp

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// Differential tests for the byte-parallel excess kernels: fwdSearch and
// bwdSearch (and through them scanFwd/scanBwd and the byteSum/byteMin/
// fwdDepth tables) are checked against per-bit reference scans on every
// call pattern the tree operations generate — FindClose, FindOpen and
// Enclose — so a table or reachability-condition bug cannot hide behind
// the segment-tree layer above the kernels.

// refFwdSearch is the per-bit oracle: smallest j > i with
// Excess(j) == target, or -1.
func refFwdSearch(t *Tree, i, target int) int {
	ex := t.Excess(i)
	for j := i + 1; j < t.paren.Len(); j++ {
		if t.paren.Get(j) {
			ex++
		} else {
			ex--
		}
		if ex == target {
			return j
		}
	}
	return -1
}

// refBwdSearch is the per-bit oracle: largest j < i with
// Excess(j) == target, or -1 (which, exactly like bwdSearch, also encodes
// a hit at position -1 whose excess is 0 — callers add one either way).
func refBwdSearch(t *Tree, i, target int) int {
	ex := t.Excess(i)
	for j := i; j >= 0; j-- {
		if t.paren.Get(j) {
			ex--
		} else {
			ex++
		}
		if ex == target {
			return j - 1
		}
	}
	return -1
}

// checkKernels runs every kernel invocation the tree navigation emits
// against the per-bit oracles.
func checkKernels(t *testing.T, seq []bool) {
	t.Helper()
	bt := FromBools(seq)
	m := bt.paren.Len()
	for p := 0; p < m; p++ {
		ex := bt.Excess(p)
		if bt.paren.Get(p) {
			// FindClose pattern.
			if got, want := bt.fwdSearch(p, ex-1), refFwdSearch(bt, p, ex-1); got != want {
				t.Fatalf("fwdSearch(%d, %d) = %d, want %d (len %d)", p, ex-1, got, want, m)
			}
			// Enclose pattern.
			if p > 0 {
				if got, want := bt.bwdSearch(p, ex-2), refBwdSearch(bt, p, ex-2); got != want {
					t.Fatalf("bwdSearch(%d, %d) = %d, want %d (len %d)", p, ex-2, got, want, m)
				}
			}
		} else {
			// FindOpen pattern.
			if got, want := bt.bwdSearch(p, ex), refBwdSearch(bt, p, ex); got != want {
				t.Fatalf("bwdSearch(%d, %d) = %d, want %d (len %d)", p, ex, got, want, m)
			}
		}
	}
}

// boundarySizes are node counts straddling the byte, word and block
// granularities of the kernels (blockBits=256 ⇒ 128 nodes per block).
var boundarySizes = []int{1, 2, 3, 4, 7, 8, 9, 31, 32, 33, 63, 64, 65, 127, 128, 129, 255, 256, 257, 511}

func TestKernelsAtBoundarySizes(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range boundarySizes {
		checkKernels(t, randomSeq(rng, n))
	}
}

func TestKernelsRandomTrees(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		checkKernels(t, randomSeq(rng, 1+rng.Intn(400)))
		return !t.Failed()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestKernelsDeepTrees covers the worst case for the excess tables: a
// path tree ("((((...))))") whose excess crosses many byte boundaries in
// one direction, plus a comb that repeatedly returns to low excess.
func TestKernelsDeepTrees(t *testing.T) {
	for _, n := range []int{5, 64, 200, 300} {
		path := make([]bool, 0, 2*n)
		for i := 0; i < n; i++ {
			path = append(path, true)
		}
		for i := 0; i < n; i++ {
			path = append(path, false)
		}
		checkKernels(t, path)

		comb := []bool{true}
		for i := 1; i < n; i++ {
			comb = append(comb, true, false)
		}
		comb = append(comb, false)
		checkKernels(t, comb)
	}
}

// FuzzBPKernels drives the kernels from arbitrary bytes: the input bits
// steer a balanced-sequence builder (open when possible and the bit says
// so, else close), and the resulting tree is checked bit-for-bit against
// the oracles.
func FuzzBPKernels(f *testing.F) {
	f.Add([]byte{0x00})
	f.Add([]byte{0xff, 0x0f, 0xf0})
	f.Add([]byte{0xaa, 0x55, 0xaa, 0x55, 0xaa, 0x55})
	f.Add([]byte{0xde, 0xad, 0xbe, 0xef, 0x01, 0x23, 0x45, 0x67, 0x89})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 || len(data) > 256 {
			t.Skip()
		}
		seq := []bool{true} // root open
		depth := 1
		for i := 0; i < len(data)*8; i++ {
			open := data[i/8]&(1<<(i%8)) != 0
			if open {
				seq = append(seq, true)
				depth++
			} else if depth > 1 {
				seq = append(seq, false)
				depth--
			}
		}
		for ; depth > 0; depth-- {
			seq = append(seq, false)
		}
		checkKernels(t, seq)
	})
}
