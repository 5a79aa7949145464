package index_test

import (
	"math/rand"
	"slices"
	"strconv"
	"testing"
	"testing/quick"

	"repro/internal/index"
	"repro/internal/labels"
	"repro/internal/tgen"
	"repro/internal/tree"
)

// --- Naive oracles over the binary (fcns) view ---

// binDescendants lists the binary-tree descendants of v in document order
// (strictly below v: left subtree, then right subtree).
func binDescendants(d *tree.Document, v tree.NodeID) []tree.NodeID {
	var out []tree.NodeID
	var walk func(u tree.NodeID)
	walk = func(u tree.NodeID) {
		if u == tree.Nil {
			return
		}
		out = append(out, u)
		walk(d.FirstChild(u))
		walk(d.NextSibling(u))
	}
	walk(d.FirstChild(v))
	walk(d.NextSibling(v))
	return out
}

func naiveDt(d *tree.Document, v tree.NodeID, L labels.Set) tree.NodeID {
	for _, u := range binDescendants(d, v) {
		if L.Contains(d.Label(u)) {
			return u
		}
	}
	return tree.Nil
}

func naiveRt(d *tree.Document, v tree.NodeID, L labels.Set) tree.NodeID {
	for u := d.NextSibling(v); u != tree.Nil; u = d.NextSibling(u) {
		if L.Contains(d.Label(u)) {
			return u
		}
	}
	return tree.Nil
}

// topMost enumerates the top-most nodes labeled in L of v's binary
// subtree through fresh cursors: dt(v, L), then ft past each answer.
func topMost(d *tree.Document, ix *index.Index, v tree.NodeID, L labels.Set) []tree.NodeID {
	ids, _ := L.Finite()
	cur := ix.NewCursors()
	var out []tree.NodeID
	for u := cur.First(ids, v, d.BinEnd(v)); u != index.Nil; u = cur.First(ids, d.BinEnd(u), d.BinEnd(v)) {
		out = append(out, u)
	}
	return out
}

func randomLabelSet(rng *rand.Rand, d *tree.Document) labels.Set {
	sigma := d.Names().Size()
	n := 1 + rng.Intn(2)
	ids := make([]tree.LabelID, n)
	for i := range ids {
		ids[i] = tree.LabelID(rng.Intn(sigma))
	}
	return labels.Of(ids...)
}

func TestJumpFunctionsAgainstOracle(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d := tgen.Random(seed, tgen.Config{MaxNodes: 120, Labels: []string{"a", "b", "c"}})
		ix := index.New(d)
		for trial := 0; trial < 30; trial++ {
			v := tree.NodeID(rng.Intn(d.NumNodes()))
			L := randomLabelSet(rng, d)
			ids, _ := L.Finite()
			if got := ix.NewCursors().First(ids, v, d.BinEnd(v)); got != naiveDt(d, v, L) {
				return false
			}
			if got := ix.NewCursors().Rt(v, ids); got != naiveRt(d, v, L) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestCount(t *testing.T) {
	d := tgen.Star("r", "c", 9)
	ix := index.New(d)
	c, _ := d.Names().Lookup("c")
	r, _ := d.Names().Lookup("r")
	if ix.Count(c) != 9 || ix.Count(r) != 1 {
		t.Errorf("Count wrong: c=%d r=%d", ix.Count(c), ix.Count(r))
	}
	if ix.Count(tree.LabelID(999)) != 0 {
		t.Errorf("Count of unknown label should be 0")
	}
}

func TestOccurrencesSorted(t *testing.T) {
	d := tgen.Random(11, tgen.Config{MaxNodes: 300})
	ix := index.New(d)
	for l := tree.LabelID(0); int(l) < d.Names().Size(); l++ {
		occ := slices.Collect(ix.Occurrences(l).From(0))
		for i := 1; i < len(occ); i++ {
			if occ[i-1] >= occ[i] {
				t.Fatalf("occurrences of label %d not strictly sorted", l)
			}
		}
		if len(occ) != d.CountLabel(l) {
			t.Fatalf("occurrence count mismatch for label %d", l)
		}
	}
}

// TestNewMatchesScan: on a document of four chunks of ranks — so New's
// passes run on more than one worker and every row crosses chunk lines —
// and 414 names, 159 of them past what a label byte holds, every row and
// count of the index is what one scan of Label finds (#text has a count
// and no row).
func TestNewMatchesScan(t *testing.T) {
	b := tree.NewBuilder()
	b.Open("r")
	for i := range 50_000 {
		b.Open("g" + strconv.Itoa(i%11))
		b.Open("n" + strconv.Itoa(i*37%400))
		b.Close()
		b.Text("t")
		b.Open("n" + strconv.Itoa((i*101+7)%400))
		b.Close()
		b.Close()
	}
	b.Close()
	d := b.MustFinish()
	sigma := d.Names().Size()
	if d.NumNodes() < 3<<16 || sigma <= tree.RareLabel {
		t.Fatalf("%d nodes and %d names: want at least %d and more than %d", d.NumNodes(), sigma, 3<<16, tree.RareLabel)
	}
	want := make([][]uint32, sigma)
	for v := range d.NumNodes() {
		l := d.Label(tree.NodeID(v))
		want[l] = append(want[l], uint32(v))
	}
	ix := index.New(d)
	for l := range tree.LabelID(sigma) {
		row := want[l]
		if l == tree.LabelText {
			row = nil // no row: the label bytes list the #text nodes
		}
		if got := slices.Collect(ix.Occurrences(l).From(0)); !slices.Equal(got, row) {
			t.Fatalf("label %d (%s): %d occurrences, the scan finds %d", l, d.Names().Name(l), len(got), len(want[l]))
		}
		if ix.Count(l) != len(want[l]) {
			t.Fatalf("label %d (%s): Count = %d, the scan finds %d", l, d.Names().Name(l), ix.Count(l), len(want[l]))
		}
	}
}

func TestTopMost(t *testing.T) {
	// <r><a><a/><b/></a><c><a/></c></r>: top-most a's under r's binary
	// subtree are the first a (child of r) and the a under c.
	src := tree.NewBuilder()
	src.Open("r")
	src.Open("a")
	src.Open("a")
	src.Close()
	src.Open("b")
	src.Close()
	src.Close()
	src.Open("c")
	src.Open("a")
	src.Close()
	src.Close()
	src.Close()
	d := src.MustFinish()
	ix := index.New(d)
	a, _ := d.Names().Lookup("a")
	r := d.DocumentElement()
	// Binary-subtree semantics: the first a-child of r has the c-subtree
	// in its *binary* subtree (siblings are binary descendants), so it is
	// the single top-most a.
	tm := topMost(d, ix, r, labels.Of(a))
	if len(tm) != 1 {
		t.Fatalf("top-most a's under r = %v; want exactly the first a", tm)
	}
	if d.Parent(tm[0]) != r || d.LabelName(tm[0]) != "a" {
		t.Errorf("top-most a should be the a-child of r")
	}
	// From that a, the binary subtree spans its own XML subtree plus its
	// following sibling c's subtree: top-most a's are the nested a and
	// the a under c.
	tm2 := topMost(d, ix, tm[0], labels.Of(a))
	if len(tm2) != 2 {
		t.Fatalf("top-most a's under a = %v, want 2 nodes", tm2)
	}
	if d.Parent(tm2[0]) != tm[0] {
		t.Errorf("first should be the nested a")
	}
	if d.LabelName(d.Parent(tm2[1])) != "c" {
		t.Errorf("second should be the a under c")
	}
}

// Property: the top-most enumeration returns exactly the L-labeled binary descendants with
// no L-labeled proper binary ancestor below the scope root.
func TestTopMostProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d := tgen.Random(seed, tgen.Config{MaxNodes: 100, Labels: []string{"a", "b"}})
		ix := index.New(d)
		v := tree.NodeID(rng.Intn(d.NumNodes()))
		aID, ok := d.Names().Lookup("a")
		if !ok {
			return true
		}
		L := labels.Of(aID)
		got := topMost(d, ix, v, L)
		// Oracle: walk binary tree from v, stop descending at matches.
		var want []tree.NodeID
		var walk func(u tree.NodeID)
		walk = func(u tree.NodeID) {
			if u == tree.Nil {
				return
			}
			if L.Contains(d.Label(u)) {
				want = append(want, u)
				return
			}
			walk(d.FirstChild(u))
			walk(d.NextSibling(u))
		}
		walk(d.FirstChild(v))
		walk(d.NextSibling(v))
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestBinEnd(t *testing.T) {
	d := tgen.Random(21, tgen.Config{MaxNodes: 80})
	for v := tree.NodeID(0); int(v) < d.NumNodes(); v++ {
		ds := binDescendants(d, v)
		want := v
		for _, u := range ds {
			if u > want {
				want = u
			}
		}
		if got := d.BinEnd(v); got != want {
			t.Fatalf("BinEnd(%d) = %d, want %d", v, got, want)
		}
	}
}

func BenchmarkDt(b *testing.B) {
	d := tgen.Random(1, tgen.Config{MaxNodes: 100000, Labels: []string{"a", "b", "c", "d", "e"}})
	ix := index.New(d)
	aID, _ := d.Names().Lookup("a")
	ids, cur := []tree.LabelID{aID}, ix.NewCursors()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v := tree.NodeID(i % d.NumNodes())
		if v == 0 {
			cur.Reset() // the bounds start over: so must the cursors
		}
		_ = cur.First(ids, v, d.BinEnd(v))
	}
}

func BenchmarkRtSkipping(b *testing.B) {
	// Wide sibling list where the target label is rare and far right:
	// the skip-based Rt must not scan all siblings.
	bu := tree.NewBuilder()
	bu.Open("r")
	for i := 0; i < 100000; i++ {
		bu.Open("filler")
		bu.Open("x")
		bu.Close()
		bu.Close()
	}
	bu.Open("goal")
	bu.Close()
	bu.Close()
	d := bu.MustFinish()
	ix := index.New(d)
	g, _ := d.Names().Lookup("goal")
	first, ids, cur := d.FirstChild(d.DocumentElement()), []tree.LabelID{g}, ix.NewCursors()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cur.Reset() // every iteration skips the whole list again
		if got := cur.Rt(first, ids); got == tree.Nil {
			b.Fatal("goal not found")
		}
	}
}
