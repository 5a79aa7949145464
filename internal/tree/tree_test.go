package tree_test

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/tgen"
	"repro/internal/tree"
)

// TestSortedSet: SortedSet turns any slice of node ids into the
// strictly increasing answer a cursor resumes over by binary search —
// on the table's cases and on random slices (strictly increasing, with
// repeats, shuffled) against a sort-and-compact oracle — in the slice's
// own memory and without allocating, whichever path it takes.
func TestSortedSet(t *testing.T) {
	cases := []struct {
		name string
		in   []tree.NodeID
		want []tree.NodeID
	}{
		{"sorted-unique", []tree.NodeID{1, 3, 5}, []tree.NodeID{1, 3, 5}},
		{"unsorted", []tree.NodeID{5, 1, 3}, []tree.NodeID{1, 3, 5}},
		{"dups", []tree.NodeID{1, 1, 3, 3, 5}, []tree.NodeID{1, 3, 5}},
		{"unsorted-dups", []tree.NodeID{5, 1, 5, 3, 1}, []tree.NodeID{1, 3, 5}},
		{"empty", nil, nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := tree.SortedSet(slices.Clone(tc.in)); !slices.Equal(got, tc.want) {
				t.Errorf("SortedSet(%v) = %v, want %v", tc.in, got, tc.want)
			}
		})
	}

	rng := rand.New(rand.NewSource(47))
	for round := 0; round < 600; round++ {
		in := make([]tree.NodeID, rng.Intn(300))
		v := tree.NodeID(rng.Intn(3))
		for i := range in {
			in[i] = v
			if round%3 != 1 || rng.Intn(3) > 0 { // shape 1 repeats ids
				v += tree.NodeID(1 + rng.Intn(4))
			}
		}
		if round%3 == 2 {
			rng.Shuffle(len(in), func(i, j int) { in[i], in[j] = in[j], in[i] })
		}
		want := slices.Clone(in)
		slices.Sort(want)
		want = slices.Compact(want)
		buf := slices.Clone(in)
		got := tree.SortedSet(buf)
		if !slices.Equal(got, want) {
			t.Fatalf("round %d: SortedSet(%v) = %v, want %v", round, in, got, want)
		}
		if len(got) > 0 && &got[0] != &buf[0] {
			t.Fatalf("round %d: the set is not in the input's memory", round)
		}
		work := make([]tree.NodeID, len(in))
		if allocs := testing.AllocsPerRun(5, func() {
			copy(work, in)
			tree.SortedSet(work)
		}); allocs != 0 {
			t.Fatalf("round %d: SortedSet allocates %.1f/op, want 0", round, allocs)
		}
	}
}

func TestEmptyDocument(t *testing.T) {
	d := tree.NewBuilder().MustFinish()
	if d.NumNodes() != 1 {
		t.Fatalf("NumNodes = %d, want 1 (synthetic root)", d.NumNodes())
	}
	if d.Label(d.Root()) != tree.LabelDoc {
		t.Errorf("root label = %d, want #doc", d.Label(d.Root()))
	}
	if d.DocumentElement() != tree.Nil {
		t.Errorf("DocumentElement = %d, want Nil", d.DocumentElement())
	}
}

func TestSmallDocument(t *testing.T) {
	b := tree.NewBuilder()
	b.Open("r")
	b.Open("a")
	b.Text("hello")
	b.Close()
	b.Open("b")
	b.Close()
	b.Close()
	d := b.MustFinish()

	if d.NumNodes() != 5 { // #doc, r, a, #text, b
		t.Fatalf("NumNodes = %d, want 5", d.NumNodes())
	}
	r := d.DocumentElement()
	if d.LabelName(r) != "r" {
		t.Errorf("document element = %q, want r", d.LabelName(r))
	}
	a := d.FirstChild(r)
	if d.LabelName(a) != "a" {
		t.Errorf("first child = %q, want a", d.LabelName(a))
	}
	txt := d.FirstChild(a)
	if d.Label(txt) != tree.LabelText || d.Text(txt) != "hello" {
		t.Errorf("text node wrong: label=%d text=%q", d.Label(txt), d.Text(txt))
	}
	bNode := d.NextSibling(a)
	if d.LabelName(bNode) != "b" {
		t.Errorf("sibling = %q, want b", d.LabelName(bNode))
	}
	if d.NextSibling(bNode) != tree.Nil {
		t.Errorf("b should have no next sibling")
	}
	if d.Parent(a) != r || d.Parent(bNode) != r {
		t.Errorf("parent links wrong")
	}
	if d.LastDesc(r) != bNode {
		t.Errorf("LastDesc(r) = %d, want %d", d.LastDesc(r), bNode)
	}
	if d.Depth(txt) != 3 {
		t.Errorf("Depth(text) = %d, want 3", d.Depth(txt))
	}
}

func TestFinishErrorsOnUnclosed(t *testing.T) {
	b := tree.NewBuilder()
	b.Open("r")
	if _, err := b.Finish(); err == nil {
		t.Error("Finish with open element should error")
	}
}

// TestXMLStringRoundTripShape pins the serialized form byte for byte:
// the three characters escaped in text, the quote as well in an attribute
// value, nothing else touched (the apostrophe, an ampersand that already
// reads like an entity), and an attribute without a text child.
func TestXMLStringRoundTripShape(t *testing.T) {
	b := tree.NewBuilder()
	b.Open("r")
	b.Open("@a")
	b.Text(`<"x" & 'y'>`)
	b.Close()
	b.Open("@empty")
	b.Close()
	b.Open("x")
	b.Text("1<2 && 3>2")
	b.Close()
	b.Text(`&amp; "quoted" 'single' >>`)
	b.Close()
	d := b.MustFinish()
	want := `<r a="&lt;&quot;x&quot; &amp; 'y'&gt;" empty=""><x>1&lt;2 &amp;&amp; 3&gt;2</x>&amp;amp; "quoted" 'single' &gt;&gt;</r>`
	for i := 0; i < 2; i++ { // the escaper is shared between calls
		if got := d.XMLString(); got != want {
			t.Errorf("XMLString = %q, want %q", got, want)
		}
	}
}

func TestPath(t *testing.T) {
	b := tree.NewBuilder()
	b.Open("r")
	b.Open("x")
	y := b.Open("y")
	b.Close()
	b.Close()
	b.Close()
	d := b.MustFinish()
	if got := d.Path(y); got != "/r/x/y" {
		t.Errorf("Path = %q, want /r/x/y", got)
	}
}

func TestLabelTable(t *testing.T) {
	lt := tree.NewLabelTable()
	if lt.Size() != tree.ReservedLabels {
		t.Fatalf("fresh table size = %d", lt.Size())
	}
	a := lt.Intern("a")
	if a2 := lt.Intern("a"); a2 != a {
		t.Errorf("re-intern gave different id")
	}
	if id, ok := lt.Lookup("a"); !ok || id != a {
		t.Errorf("Lookup(a) = %d,%v", id, ok)
	}
	if _, ok := lt.Lookup("zz"); ok {
		t.Errorf("Lookup of unknown label succeeded")
	}
	if lt.Name(a) != "a" {
		t.Errorf("Name round-trip failed")
	}
	names := lt.Names()
	if names[int(a)] != "a" {
		t.Errorf("Names() wrong: %v", names)
	}
}

// docWithNames is <r> over one empty element of each name, in order.
func docWithNames(names ...string) *tree.Document {
	b := tree.NewBuilder()
	b.Open("r")
	for _, name := range names {
		b.Open(name)
		b.Close()
	}
	b.Close()
	return b.MustFinish()
}

// TestDocumentTableIsFrozen: a document's label table is shared by every
// document with its names, so interning a name it has answers its id,
// and one it lacks panics instead of changing the other documents'.
func TestDocumentTableIsFrozen(t *testing.T) {
	d := docWithNames("a", "b")
	if a, ok := d.Names().Lookup("a"); !ok || d.Names().Intern("a") != a {
		t.Fatalf("interning a name the table has: %d, want %d", d.Names().Intern("a"), a)
	}
	defer func() {
		if recover() == nil {
			t.Error("interning a new name into a document's table did not panic")
		}
		if d.Names().Size() != 5 {
			t.Errorf("the table has %d names after the refusal, want 5", d.Names().Size())
		}
	}()
	d.Names().Intern("c")
}

// TestTablesKeepNameListsApart: two lists of names whose concatenations
// are equal — "ab", "c" and "a", "bc" — are two tables, each with its
// own names; two lists of the same names in other orders are one.
func TestTablesKeepNameListsApart(t *testing.T) {
	abc, aBC := docWithNames("ab", "c"), docWithNames("a", "bc")
	if abc.Names() == aBC.Names() {
		t.Fatal(`"ab", "c" and "a", "bc" share a label table`)
	}
	for _, c := range []struct {
		d    *tree.Document
		want []string
	}{
		{abc, []string{"#doc", "#text", "ab", "c", "r"}},
		{aBC, []string{"#doc", "#text", "a", "bc", "r"}},
		{docWithNames("c", "ab"), []string{"#doc", "#text", "ab", "c", "r"}},
	} {
		if got := c.d.Names().Names(); !slices.Equal(got, c.want) {
			t.Errorf("names %v, want %v", got, c.want)
		}
	}
	if docWithNames("c", "ab").Names() != abc.Names() {
		t.Error(`"c", "ab" and "ab", "c" have two label tables`)
	}
}

// TestTablesSharedAcrossGoroutines: documents built at once on several
// goroutines, from a few name sets in shuffled orders, get one table per
// name set while any document holds it, and the right names whenever a
// collection has dropped a table and its entry in the registry meanwhile.
func TestTablesSharedAcrossGoroutines(t *testing.T) {
	sets := [][]string{{"a", "b", "c"}, {"a", "b"}, {"x", "@y", "z", "a"}}
	held := make([]*tree.Document, len(sets)) // one document per set, held throughout
	for i, set := range sets {
		held[i] = docWithNames(set...)
	}
	var wg sync.WaitGroup
	for g := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := range 200 {
				k := rng.Intn(len(sets))
				names := slices.Clone(sets[k])
				rng.Shuffle(len(names), func(i, j int) { names[i], names[j] = names[j], names[i] })
				fresh := append(slices.Clone(names), fmt.Sprint("g", g, "-", i%3)) // a set only this goroutine builds
				if d := docWithNames(names...); d.Names() != held[k].Names() {
					t.Errorf("goroutine %d: %v has a table of its own", g, names)
					return
				}
				want := append([]string{"#doc", "#text", "r"}, fresh...)
				slices.Sort(want[2:])
				if got := docWithNames(fresh...).Names().Names(); !slices.Equal(got, want) {
					t.Errorf("goroutine %d: names %v, want %v", g, got, want)
					return
				}
				if i%50 == 0 {
					runtime.GC()
				}
			}
		}()
	}
	wg.Wait()
}

// Property: preorder interval [v, LastDesc(v)] contains exactly the nodes
// reachable from v by child edges.
func TestSubtreeIntervalProperty(t *testing.T) {
	f := func(seed int64) bool {
		d := tgen.Random(seed, tgen.Config{MaxNodes: 150, TextProb: 0.2})
		n := tree.NodeID(d.NumNodes())
		var reach func(v tree.NodeID, set map[tree.NodeID]bool)
		reach = func(v tree.NodeID, set map[tree.NodeID]bool) {
			set[v] = true
			for c := d.FirstChild(v); c != tree.Nil; c = d.NextSibling(c) {
				reach(c, set)
			}
		}
		for v := tree.NodeID(0); v < n; v++ {
			set := make(map[tree.NodeID]bool)
			reach(v, set)
			if len(set) != d.SubtreeSize(v) {
				return false
			}
			for u := range set {
				if u < v || u > d.LastDesc(v) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// TestRandomTreesMatchReference: on random trees with text, every move
// the arrays derive — parent, last descendant, first child, next
// sibling, depth, binary subtree end — and every label and text are
// those the pointer-chasing reference builder writes down.
func TestRandomTreesMatchReference(t *testing.T) {
	for seed := int64(1); seed <= 15; seed++ {
		d := tgen.Random(seed, tgen.Config{MaxNodes: 300, TextProb: 0.15})
		tree.RequireMatchesReference(t, fmt.Sprint("seed ", seed), d)
	}
}

// Property: binary-tree view is the fcns encoding: BinaryLeft==FirstChild,
// BinaryRight==NextSibling, and the binary tree spans all nodes.
func TestBinaryViewSpansAllNodes(t *testing.T) {
	d := tgen.Random(13, tgen.Config{MaxNodes: 400, TextProb: 0.1})
	seen := make(map[tree.NodeID]bool)
	var walk func(v tree.NodeID)
	walk = func(v tree.NodeID) {
		if v == tree.Nil {
			return
		}
		if seen[v] {
			t.Fatalf("node %d visited twice in binary walk", v)
		}
		seen[v] = true
		walk(d.BinaryLeft(v))
		walk(d.BinaryRight(v))
	}
	walk(d.Root())
	if len(seen) != d.NumNodes() {
		t.Errorf("binary walk saw %d nodes, want %d", len(seen), d.NumNodes())
	}
}

func TestGenerators(t *testing.T) {
	chain := tgen.Chain("a", 10)
	if chain.NumNodes() != 11 {
		t.Errorf("Chain nodes = %d, want 11", chain.NumNodes())
	}
	if chain.Depth(tree.NodeID(10)) != 10 {
		t.Errorf("chain depth wrong")
	}
	star := tgen.Star("r", "c", 5)
	if star.NumNodes() != 7 {
		t.Errorf("Star nodes = %d, want 7", star.NumNodes())
	}
	bal := tgen.Balanced([]string{"a", "b"}, 2, 3)
	if bal.NumNodes() != 1+15 { // #doc + complete binary tree of depth 3
		t.Errorf("Balanced nodes = %d, want 16", bal.NumNodes())
	}
	// Determinism of Random.
	d1 := tgen.Random(99, tgen.Config{})
	d2 := tgen.Random(99, tgen.Config{})
	if d1.XMLString() != d2.XMLString() {
		t.Errorf("Random is not deterministic for equal seeds")
	}
}

func TestCountLabel(t *testing.T) {
	d := tgen.Star("r", "c", 7)
	c, _ := d.Names().Lookup("c")
	if got := d.CountLabel(c); got != 7 {
		t.Errorf("CountLabel(c) = %d, want 7", got)
	}
}

func TestXMLStringContainsNoDocTag(t *testing.T) {
	d := tgen.Star("r", "c", 2)
	if strings.Contains(d.XMLString(), "#doc") {
		t.Error("synthetic root leaked into serialization")
	}
}
