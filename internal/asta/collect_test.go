package asta

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/tree"
)

// chainBuilder grows one raw chain the ways evaluation does — leaves
// concatenated directly, lists added to a result set, nodes marked one
// by one, result sets unioned — beside the plain slice of everything
// appended so far: the concatenation-order oracle collect is checked
// against.
type chainBuilder struct {
	ar  *cellArena
	nl  *NodeList
	seq []tree.NodeID
}

const chainState = State(3)

// leaf carves ids into the arena and wraps them in a leaf.
func (b *chainBuilder) leaf(ids []tree.NodeID) *NodeList {
	return newLeaf(append(b.ar.allocIDs(len(ids)), ids...), b.ar)
}

// concat appends a leaf by one rawConcat cell.
func (b *chainBuilder) concat(ids []tree.NodeID) {
	b.nl = rawConcat(b.nl, b.leaf(ids), b.ar)
	b.seq = append(b.seq, ids...)
}

// viaSet appends what a result set accumulates from the chain so far,
// a marked node, a list (absorbed into the tail when short, one cell
// otherwise) and the union of a second set holding a list and a
// still-buffered tail.
func (b *chainBuilder) viaSet(mark tree.NodeID, added, unioned []tree.NodeID, tail tree.NodeID) {
	var r, o RSet
	r.add(chainState, b.nl, b.ar)
	r.addNode(chainState, mark, b.ar)
	r.add(chainState, b.leaf(added), b.ar)
	o.add(chainState, b.leaf(unioned), b.ar)
	o.addNode(chainState, tail, b.ar)
	r.union(&o, b.ar)
	b.nl = r.list(chainState, b.ar)
	b.seq = append(b.seq, mark)
	b.seq = append(b.seq, added...)
	b.seq = append(b.seq, unioned...)
	b.seq = append(b.seq, tail)
}

// run returns n ids from base upward: strictly increasing with step >=
// 1, or with repeats when dups is set.
func run(rng *rand.Rand, base, n int, dups bool) []tree.NodeID {
	out := make([]tree.NodeID, n)
	for i := range out {
		if !dups || rng.Intn(3) > 0 {
			base += 1 + rng.Intn(3)
		}
		out[i] = tree.NodeID(base)
	}
	return out
}

// randomChain builds one chain of the named shape.
func randomChain(rng *rand.Rand, b *chainBuilder, shape string) {
	next := func(ids []tree.NodeID) int { return int(ids[len(ids)-1]) }
	switch shape {
	case "empty":
	case "single-leaf":
		b.concat(run(rng, rng.Intn(50), 1+rng.Intn(leafMax), false))
	case "single-leaf-unsorted":
		ids := run(rng, 0, 2+rng.Intn(60), true)
		rng.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
		b.concat(ids)
	case "sorted":
		base := 0
		for i := 0; i < 2+rng.Intn(20); i++ {
			ids := run(rng, base, 1+rng.Intn(40), false)
			b.concat(ids)
			base = next(ids)
		}
	case "adjacent-dups":
		// Non-decreasing, repeats inside leaves and across their seams.
		base := 0
		for i := 0; i < 2+rng.Intn(20); i++ {
			ids := run(rng, base, 1+rng.Intn(40), true)
			b.concat(ids)
			base = next(ids) - rng.Intn(2)
		}
	case "interleaved":
		// Sorted parts over overlapping ranges: out of order across
		// parts, with duplicates that are not adjacent.
		for i := 0; i < 2+rng.Intn(12); i++ {
			b.concat(run(rng, rng.Intn(200), 1+rng.Intn(40), rng.Intn(2) == 0))
		}
	case "sets-sorted":
		base := 0
		for i := 0; i < 1+rng.Intn(6); i++ {
			added := run(rng, base+1, 1+rng.Intn(2*tailAbsorb), false)
			unioned := run(rng, next(added), 1+rng.Intn(2*tailAbsorb), false)
			b.viaSet(tree.NodeID(base+1), added, unioned, tree.NodeID(next(unioned)+1))
			base = next(unioned) + 1
		}
	case "sets-interleaved":
		for i := 0; i < 1+rng.Intn(6); i++ {
			b.viaSet(tree.NodeID(rng.Intn(300)),
				run(rng, rng.Intn(300), 1+rng.Intn(2*tailAbsorb), true),
				run(rng, rng.Intn(300), 1+rng.Intn(2*tailAbsorb), false),
				tree.NodeID(rng.Intn(300)))
		}
	}
}

// TestCollectOracle is the exposure contract: whatever chain evaluation
// accumulated — sorted, interleaved, with adjacent or distant
// duplicates, one leaf, nothing — collect returns the sorted
// duplicate-free elements of its concatenation, the root's count (which
// sizes collect's block) agrees with the concatenation, and both kinds
// of concatenation, already non-decreasing and not, are exercised.
func TestCollectOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(2026))
	shapes := []string{"empty", "single-leaf", "single-leaf-unsorted", "sorted",
		"adjacent-dups", "interleaved", "sets-sorted", "sets-interleaved"}
	var ar cellArena
	var stack []*NodeList
	sortedPath, unsortedPath := 0, 0
	for round := 0; round < 100*len(shapes); round++ {
		shape := shapes[round%len(shapes)]
		ar.reset()
		b := chainBuilder{ar: &ar}
		randomChain(rng, &b, shape)

		want := slices.Clone(b.seq)
		slices.Sort(want)
		want = slices.Compact(want)
		if nl := b.nl; nl != nil {
			if int(nl.count) != len(b.seq) {
				t.Fatalf("%s round %d: root count %d, concatenation %d", shape, round, nl.count, len(b.seq))
			}
			if slices.IsSorted(b.seq) {
				sortedPath++
			} else {
				unsortedPath++
			}
		}
		got := collect(b.nl, &ar, &stack)
		if !slices.Equal(got, want) {
			t.Fatalf("%s round %d: collect = %v, want %v (concatenation %v)", shape, round, got, want, b.seq)
		}
	}
	if sortedPath == 0 || unsortedPath == 0 {
		t.Fatalf("paths taken: %d without a sort, %d with one; both must be exercised", sortedPath, unsortedPath)
	}
}

// TestCollectWarmArenaAllocatesNothing: building a chain and collecting
// it touch the heap only to grow the arena and the traversal stack, so
// the second run over the same arena allocates nothing — on the copy
// path, and on the sort-and-compact path (no closure, no scratch slice).
func TestCollectWarmArenaAllocatesNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, shape := range []string{"sorted", "interleaved"} {
		var parts [][]tree.NodeID
		base := 0
		for i := 0; i < 200; i++ {
			if shape == "interleaved" {
				base = rng.Intn(5000)
			}
			ids := run(rng, base, 1+rng.Intn(leafMax), shape == "interleaved")
			parts = append(parts, ids)
			base = int(ids[len(ids)-1])
		}
		var ar cellArena
		var stack []*NodeList
		b := chainBuilder{ar: &ar}
		n := 0
		allocs := testing.AllocsPerRun(10, func() {
			ar.reset()
			var nl *NodeList
			for _, p := range parts {
				nl = rawConcat(nl, b.leaf(p), &ar)
			}
			n = len(collect(nl, &ar, &stack))
		})
		if allocs != 0 {
			t.Errorf("%s: warm build + collect allocates %.1f/op, want 0", shape, allocs)
		}
		if n == 0 {
			t.Errorf("%s: empty answer", shape)
		}
	}
}
