package bp

import (
	"math/rand"
	"testing"
)

// Paired kernel benchmarks: the byte-parallel excess kernels against the
// pre-rewrite per-bit block scans, on the same trees and the same query
// positions. Not a gate: no daemon path reaches these kernels. The
// per-bit variants below are faithful copies of fwdSearch/bwdSearch with
// the byte-stepping block scans replaced by bit-at-a-time loops — the
// segment-tree climb, which both generations share, is identical, so the
// pair isolates exactly the block-tail scanning that rewrite changed.

func perbitScanFwd(t *Tree, from, to, ex, target int) (int, int) {
	for j := from; j < to; j++ {
		if t.paren.Get(j) {
			ex++
		} else {
			ex--
		}
		if ex == target {
			return j, ex
		}
	}
	return -1, ex
}

func perbitScanBwd(t *Tree, p, lo, ex, target int) (int, bool, int) {
	for j := p; j >= lo; j-- {
		if t.paren.Get(j) {
			ex--
		} else {
			ex++
		}
		if ex == target {
			return j - 1, true, ex
		}
	}
	return -1, false, ex
}

func perbitFwdSearch(t *Tree, i, target int) int {
	m := t.paren.Len()
	ex := t.Excess(i)
	blk := (i + 1) / blockBits
	end := (blk + 1) * blockBits
	if end > m {
		end = m
	}
	j, ex := perbitScanFwd(t, i+1, end, ex, target)
	if j >= 0 {
		return j
	}
	if end == m {
		return -1
	}
	node := t.leafBase + blk
	for {
		for node%2 == 1 {
			node /= 2
			if node == 0 {
				return -1
			}
		}
		node++
		if node >= len(t.blockMin) || t.blockMin[node] == 1<<30 {
			node--
			node /= 2
			if node == 0 {
				return -1
			}
			continue
		}
		if ex+int(t.blockMin[node]) <= target {
			break
		}
		ex += int(t.blockSum[node])
		node /= 2
		if node == 0 {
			return -1
		}
	}
	for node < t.leafBase {
		l := 2 * node
		if t.blockMin[l] != 1<<30 && ex+int(t.blockMin[l]) <= target {
			node = l
		} else {
			ex += int(t.blockSum[l])
			node = l + 1
		}
	}
	blk = node - t.leafBase
	start := blk * blockBits
	stop := start + blockBits
	if stop > m {
		stop = m
	}
	j, _ = perbitScanFwd(t, start, stop, ex, target)
	return j
}

func perbitBwdSearch(t *Tree, i, target int) int {
	ex := t.Excess(i)
	blk := i / blockBits
	start := blk * blockBits
	j, ok, ex := perbitScanBwd(t, i, start, ex, target)
	if ok {
		return j
	}
	if start == 0 {
		return -1
	}
	node := t.leafBase + blk
	for {
		for node%2 == 0 {
			node /= 2
			if node <= 1 {
				return -1
			}
		}
		if node <= 1 {
			return -1
		}
		node--
		exStart := ex - int(t.blockSum[node])
		if t.blockMin[node] != 1<<30 && exStart+int(t.blockMin[node]) <= target {
			break
		}
		ex = exStart
		node /= 2
		if node <= 1 {
			return -1
		}
	}
	for node < t.leafBase {
		r := 2*node + 1
		if t.blockMin[r] != 1<<30 && ex-int(t.blockSum[r])+int(t.blockMin[r]) <= target {
			node = r
		} else {
			if t.blockMin[r] != 1<<30 {
				ex -= int(t.blockSum[r])
			}
			node = 2 * node
		}
	}
	blk = node - t.leafBase
	start = blk * blockBits
	stop := start + blockBits
	if stop > t.paren.Len() {
		stop = t.paren.Len()
	}
	if ex == target {
		return stop - 1
	}
	j, ok, _ = perbitScanBwd(t, stop-1, start+1, ex, target)
	if ok {
		return j
	}
	return -1
}

// benchTree builds a document-shaped tree: a shallow spine of sections,
// each holding record subtrees of mixed depth — the shape the XMark
// documents behind BENCH_eval take, where FindClose spans from a few
// positions (leaf records) to whole sections (block-crossing jumps).
func benchTree(nodes int) *Tree {
	rng := rand.New(rand.NewSource(42))
	seq := make([]bool, 0, 2*nodes)
	depth := 0
	open := func() { seq = append(seq, true); depth++ }
	closeTo := func(d int) {
		for depth > d {
			seq = append(seq, false)
			depth--
		}
	}
	open() // root
	n := 1
	for n < nodes {
		open() // section
		n++
		sectionDepth := depth
		records := 20 + rng.Intn(40)
		for r := 0; r < records && n < nodes; r++ {
			levels := 1 + rng.Intn(8)
			width := 1 + rng.Intn(4)
			recordDepth := depth
			open() // record
			n++
			for lvl := 0; lvl < levels && n < nodes; lvl++ {
				for w := 0; w < width && n < nodes; w++ {
					open() // leaf
					closeTo(depth - 1)
					n++
				}
				if lvl < levels-1 && n < nodes {
					open() // nested wrapper
					n++
				}
			}
			closeTo(recordDepth)
		}
		closeTo(sectionDepth - 1)
	}
	closeTo(0)
	return FromBools(seq)
}

func BenchmarkKernelsVsPerBit(b *testing.B) {
	t := benchTree(200_000)
	rng := rand.New(rand.NewSource(7))
	m := t.paren.Len()
	var opens, closes []int
	for len(opens) < 4096 || len(closes) < 4096 {
		p := rng.Intn(m)
		if t.paren.Get(p) {
			if len(opens) < 4096 {
				opens = append(opens, p)
			}
		} else if len(closes) < 4096 {
			closes = append(closes, p)
		}
	}
	sink := 0

	b.Run("findclose/word", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sink += t.FindClose(opens[i%len(opens)])
		}
	})
	b.Run("findclose/perbit", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			p := opens[i%len(opens)]
			sink += perbitFwdSearch(t, p, t.Excess(p)-1)
		}
	})

	b.Run("findopen/word", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sink += t.FindOpen(closes[i%len(closes)])
		}
	})
	b.Run("findopen/perbit", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			p := closes[i%len(closes)]
			sink += perbitBwdSearch(t, p, t.Excess(p)) + 1
		}
	})

	b.Run("enclose/word", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sink += t.Enclose(opens[i%len(opens)])
		}
	})
	b.Run("enclose/perbit", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			p := opens[i%len(opens)]
			if p == 0 {
				continue
			}
			sink += perbitBwdSearch(t, p, t.Excess(p)-2) + 1
		}
	})

	if sink == 1<<62 {
		b.Fatal("impossible")
	}
}

// TestPerbitBaselinesAgree keeps the benchmark honest: if the baseline
// copies drift from the live kernels, the paired ratios are meaningless.
func TestPerbitBaselinesAgree(t *testing.T) {
	bt := benchTree(5_000)
	for p := 0; p < bt.paren.Len(); p++ {
		ex := bt.Excess(p)
		if bt.paren.Get(p) {
			if got, want := perbitFwdSearch(bt, p, ex-1), bt.FindClose(p); got != want {
				t.Fatalf("perbitFwdSearch(%d) = %d, want %d", p, got, want)
			}
			if p > 0 {
				if got, want := perbitBwdSearch(bt, p, ex-2)+1, bt.Enclose(p); got != want {
					t.Fatalf("perbit enclose(%d) = %d, want %d", p, got, want)
				}
			}
		} else {
			if got, want := perbitBwdSearch(bt, p, ex)+1, bt.FindOpen(p); got != want {
				t.Fatalf("perbit findopen(%d) = %d, want %d", p, got, want)
			}
		}
	}
}
