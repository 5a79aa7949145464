package index_test

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/index"
	"repro/internal/labels"
	"repro/internal/tgen"
	"repro/internal/tree"
)

// TestCursorsNextAfterMonotone: under monotone bounds, NextAfter equals
// the binary-search successor.
func TestCursorsNextAfterMonotone(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d := tgen.Random(seed, tgen.Config{MaxNodes: 300, Labels: []string{"a", "b", "c"}})
		ix := index.New(d)
		cur := ix.NewCursors()
		aID, ok := d.Names().Lookup("a")
		if !ok {
			return true
		}
		occ := slices.Collect(ix.Occurrences(aID).From(0))
		x := tree.NodeID(-1)
		for i := 0; i < 50; i++ {
			x += tree.NodeID(rng.Intn(12)) // non-decreasing bounds
			got := cur.NextAfter(aID, x)
			j := sort.Search(len(occ), func(k int) bool { return tree.NodeID(occ[k]) > x })
			want := index.Nil
			if j < len(occ) {
				want = tree.NodeID(occ[j])
			}
			if got != want {
				t.Logf("seed=%d NextAfter(a, %d) = %d, want %d", seed, x, got, want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestCursorsRtMatchesIndex: cursor Rt equals the naive sibling walk
// under monotone use.
func TestCursorsRtMatchesIndex(t *testing.T) {
	f := func(seed int64) bool {
		d := tgen.Random(seed, tgen.Config{MaxNodes: 250, Labels: []string{"a", "b", "c"}})
		ix := index.New(d)
		aID, ok := d.Names().Lookup("a")
		if !ok {
			return true
		}
		L := labels.Of(aID)
		cur := ix.NewCursors()
		prevBound := tree.NodeID(-1)
		for v := tree.NodeID(1); int(v) < d.NumNodes(); v += tree.NodeID(1 + int(v)%5) {
			// Monotone requirement: Rt queries from lastDesc(v); only
			// issue queries with non-decreasing bounds.
			if d.LastDesc(v) < prevBound {
				continue
			}
			prevBound = d.LastDesc(v)
			if got, want := cur.Rt(v, L), naiveRt(d, v, L); got != want {
				t.Logf("seed=%d Rt(%d) = %d, want %d", seed, v, got, want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestCursorsRtCofinite(t *testing.T) {
	d := tgen.Random(3, tgen.Config{MaxNodes: 100, Labels: []string{"a", "b"}})
	ix := index.New(d)
	aID, _ := d.Names().Lookup("a")
	cur := ix.NewCursors()
	// Co-finite sets take the chain-walk fallback, which is stateless,
	// so monotonicity is not required.
	for v := tree.NodeID(1); int(v) < d.NumNodes(); v++ {
		if got, want := cur.Rt(v, labels.Not(aID)), naiveRt(d, v, labels.Not(aID)); got != want {
			t.Fatalf("Rt(%d, Σ\\{a}) = %d, want %d", v, got, want)
		}
	}
}

func TestCursorsReset(t *testing.T) {
	d := tgen.Star("r", "c", 10)
	ix := index.New(d)
	cID, _ := d.Names().Lookup("c")
	cur := ix.NewCursors()
	first := cur.NextAfter(cID, tree.NodeID(d.NumNodes())) // past the end
	if first != index.Nil {
		t.Fatalf("expected Nil past the end, got %d", first)
	}
	cur.Reset()
	if got := cur.NextAfter(cID, 0); got == index.Nil {
		t.Error("Reset did not rewind the cursor")
	}
}

// TestCursorsResetEqualsFresh is the reuse contract behind pooled
// evaluation contexts: after any monotone use pattern, a Reset cursor
// set must be indistinguishable from a fresh NewCursors — same answers
// for the same (label, bound) sequence, across every label, including
// ones the previous pass never touched. Reset itself is O(touched),
// which this test exercises by touching only a subset of labels per
// round.
func TestCursorsResetEqualsFresh(t *testing.T) {
	names := []string{"a", "b", "c", "d", "e", "f"}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d := tgen.Random(seed, tgen.Config{MaxNodes: 400, Labels: names})
		ix := index.New(d)
		var ids []tree.LabelID
		for _, n := range names {
			if id, ok := d.Names().Lookup(n); ok {
				ids = append(ids, id)
			}
		}
		if len(ids) == 0 {
			return true
		}
		reused := ix.NewCursors()
		for round := 0; round < 4; round++ {
			// Each round touches a random subset of labels with a random
			// monotone bound sequence, then compares the reused (Reset)
			// cursors against brand-new ones, query by query.
			fresh := ix.NewCursors()
			sub := ids[:1+rng.Intn(len(ids))]
			bounds := make(map[tree.LabelID]tree.NodeID, len(sub))
			for _, l := range sub {
				bounds[l] = tree.NodeID(-1)
			}
			for i := 0; i < 60; i++ {
				l := sub[rng.Intn(len(sub))]
				bounds[l] += tree.NodeID(rng.Intn(9))
				got := reused.NextAfter(l, bounds[l])
				want := fresh.NextAfter(l, bounds[l])
				if got != want {
					t.Logf("seed=%d round=%d NextAfter(%d, %d) = %d, want %d",
						seed, round, l, bounds[l], got, want)
					return false
				}
			}
			reused.Reset()
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestCursorsUnknownLabel(t *testing.T) {
	d := tgen.Star("r", "c", 3)
	ix := index.New(d)
	cur := ix.NewCursors()
	if got := cur.NextAfter(tree.LabelID(999), 0); got != index.Nil {
		t.Errorf("unknown label: %d", got)
	}
}
