package tree

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// mnode is the mutable oracle tree: patches are applied by plain
// pointer surgery, then the whole thing is rebuilt through Builder —
// the parse-from-scratch ground truth the incremental splice must
// match array for array.
type mnode struct {
	name     string
	text     string // non-empty => #text node
	children []*mnode
}

// toMutable converts the element/text subtree rooted at v.
func toMutable(d *Document, v NodeID) *mnode {
	if d.Label(v) == LabelText {
		return &mnode{name: "#text", text: d.Text(v)}
	}
	n := &mnode{name: d.LabelName(v)}
	for c := d.FirstChild(v); c != Nil; c = d.NextSibling(c) {
		n.children = append(n.children, toMutable(d, c))
	}
	return n
}

// build rebuilds a Document from the oracle tree (children of the
// synthetic root).
func buildMutable(roots []*mnode) *Document {
	b := NewBuilder()
	var walk func(n *mnode)
	walk = func(n *mnode) {
		if n.text != "" || n.name == "#text" {
			b.Text(n.text)
			return
		}
		b.Open(n.name)
		for _, c := range n.children {
			walk(c)
		}
		b.Close()
	}
	for _, r := range roots {
		walk(r)
	}
	return b.MustFinish()
}

// locate finds the oracle node with preorder rank v (>0) and its parent
// plus child position, by walking in preorder alongside a counter.
func locate(roots []*mnode, v NodeID) (parent *mnode, idx int, node *mnode) {
	rank := NodeID(0) // rank 0 is the synthetic root, not in the oracle
	var walk func(p *mnode, i int, n *mnode) bool
	walk = func(p *mnode, i int, n *mnode) bool {
		rank++
		if rank == v {
			parent, idx, node = p, i, n
			return true
		}
		for ci, c := range n.children {
			if walk(n, ci, c) {
				return true
			}
		}
		return false
	}
	for i, r := range roots {
		if walk(nil, i, r) {
			return
		}
	}
	panic(fmt.Sprintf("locate: rank %d not found", v))
}

// applyOracle performs the patch on the mutable tree. roots is the
// child list of the synthetic root (len 1 in any valid document).
func applyOracle(roots []*mnode, pt Patch, frag *mnode) []*mnode {
	switch pt.Op {
	case OpDelete, OpReplace:
		parent, idx, _ := locate(roots, pt.Node)
		var list []*mnode
		if parent == nil {
			list = roots
		} else {
			list = parent.children
		}
		if pt.Op == OpDelete {
			list = append(list[:idx:idx], list[idx+1:]...)
		} else {
			list = append(append(list[:idx:idx], frag), list[idx+1:]...)
		}
		if parent == nil {
			return list
		}
		parent.children = list
		return roots
	case OpInsert:
		_, _, parent := locate(roots, pt.Node)
		if pt.Before == Nil {
			parent.children = append(parent.children, frag)
			return roots
		}
		_, idx, _ := locate(roots, pt.Before)
		parent.children = append(parent.children[:idx:idx],
			append([]*mnode{frag}, parent.children[idx:]...)...)
		return roots
	}
	panic("bad op")
}

var patchLabels = []string{"a", "b", "c", "item", "name"}

// randomFragment builds a small random fragment document plus its
// oracle form.
func randomFragment(rng *rand.Rand) (*Document, *mnode) {
	b := NewBuilder()
	var gen func(depth int) *mnode
	gen = func(depth int) *mnode {
		name := patchLabels[rng.Intn(len(patchLabels))]
		b.Open(name)
		n := &mnode{name: name}
		kids := rng.Intn(3)
		if depth >= 3 {
			kids = 0
		}
		for i := 0; i < kids; i++ {
			if rng.Intn(4) == 0 {
				txt := fmt.Sprintf("t%d", rng.Intn(100))
				b.Text(txt)
				n.children = append(n.children, &mnode{name: "#text", text: txt})
			} else {
				n.children = append(n.children, gen(depth+1))
			}
		}
		b.Close()
		return n
	}
	root := gen(0)
	return b.MustFinish(), root
}

// randomPatch draws one applicable patch against d.
func randomPatch(rng *rand.Rand, d *Document) (Patch, *mnode) {
	n := NodeID(d.NumNodes())
	frag, fragOracle := randomFragment(rng)
	for tries := 0; ; tries++ {
		switch rng.Intn(3) {
		case 0: // insert
			parent := NodeID(1 + rng.Intn(int(n-1)))
			if d.Label(parent) == LabelText {
				continue
			}
			before := Nil
			// Half the time insert before a random existing child.
			if rng.Intn(2) == 0 && d.FirstChild(parent) != Nil {
				kids := []NodeID{}
				for c := d.FirstChild(parent); c != Nil; c = d.NextSibling(c) {
					kids = append(kids, c)
				}
				before = kids[rng.Intn(len(kids))]
			}
			return Patch{Op: OpInsert, Node: parent, Before: before, Frag: frag}, fragOracle
		case 1: // delete
			v := NodeID(1 + rng.Intn(int(n-1)))
			if v == d.DocumentElement() {
				continue
			}
			return Patch{Op: OpDelete, Node: v, Before: Nil}, nil
		default: // replace
			v := NodeID(1 + rng.Intn(int(n-1)))
			return Patch{Op: OpReplace, Node: v, Before: Nil, Frag: frag}, fragOracle
		}
	}
}

// relink builds d's tree again under a label table that holds table's
// names in table's order: the document Join makes of that tree when its
// labels have the ids table gives them.
func relink(table *LabelTable, d *Document) *Document {
	b := NewBuilder()
	for _, name := range table.names {
		b.Names().Intern(name)
	}
	var ends []NodeID // of the open elements
	for v := NodeID(1); int(v) < d.NumNodes(); v++ {
		for len(ends) > 0 && ends[len(ends)-1] < v {
			b.Close()
			ends = ends[:len(ends)-1]
		}
		if d.Label(v) == LabelText {
			b.Text(d.Text(v))
			continue
		}
		b.Open(d.LabelName(v))
		ends = append(ends, d.LastDesc(v))
	}
	for range ends {
		b.Close()
	}
	return b.MustFinish()
}

// requireEqualDocs compares every array of the two documents, and the
// navigation each derives from them. The topology — wide with the entry
// around each entry — the two sequences and the text ranks' directory
// are compared as they are stored, halves and chunk starts, and so are
// the label bytes and the
// rare labels, against want's tree linked again under got's label table
// (want's own may number the names otherwise): against a document Join
// built, that proves a spliced or opened one canonical — no chunk line,
// escape or table entry of an earlier generation survives.
func requireEqualDocs(t *testing.T, step int, got, want *Document) {
	t.Helper()
	if got.NumNodes() != want.NumNodes() {
		t.Fatalf("step %d: nodes = %d, want %d", step, got.NumNodes(), want.NumNodes())
	}
	RequireSameTopology(t, fmt.Sprint("step ", step), got, want)
	fresh := relink(got.names, want)
	if !slices.Equal(got.labels, fresh.labels) {
		t.Fatalf("step %d: the label bytes differ from the built document's (first at node %d)", step, firstDiff(got.labels, fresh.labels))
	}
	if !slices.Equal(got.rareIDs, fresh.rareIDs) {
		t.Fatalf("step %d: the rare labels' ids are %v, the built document's %v", step, got.rareIDs, fresh.rareIDs)
	}
	if !slices.Equal(got.textBefore, want.textBefore) {
		t.Fatalf("step %d: the text ranks' directory is %v, the built document's %v", step, got.textBefore, want.textBefore)
	}
	for name, seq := range map[string][2]Seq{"text offsets": {got.textOff, want.textOff}, "rare labels": {got.rare, fresh.rare}} {
		if !slices.Equal(seq[0].Start, seq[1].Start) {
			t.Fatalf("step %d: the %s' chunks start at %v, want %v", step, name, seq[0].Start, seq[1].Start)
		}
		if !slices.Equal(seq[0].Lo, seq[1].Lo) {
			t.Fatalf("step %d: the %s' halves differ from the built document's", step, name)
		}
	}
	for v := NodeID(0); int(v) < want.NumNodes(); v++ {
		if got.LabelName(v) != want.LabelName(v) {
			t.Fatalf("step %d node %d: label %q, want %q", step, v, got.LabelName(v), want.LabelName(v))
		}
		if got.Parent(v) != want.Parent(v) || got.LastDesc(v) != want.LastDesc(v) ||
			got.FirstChild(v) != want.FirstChild(v) || got.NextSibling(v) != want.NextSibling(v) ||
			got.Depth(v) != want.Depth(v) || got.BinEnd(v) != want.BinEnd(v) {
			t.Fatalf("step %d node %d: links (p=%d ld=%d fc=%d ns=%d d=%d be=%d), want (p=%d ld=%d fc=%d ns=%d d=%d be=%d)",
				step, v,
				got.Parent(v), got.LastDesc(v), got.FirstChild(v), got.NextSibling(v), got.Depth(v), got.BinEnd(v),
				want.Parent(v), want.LastDesc(v), want.FirstChild(v), want.NextSibling(v), want.Depth(v), want.BinEnd(v))
		}
		if got.Text(v) != want.Text(v) {
			t.Fatalf("step %d node %d: text %q, want %q", step, v, got.Text(v), want.Text(v))
		}
	}
	if got.XMLString() != want.XMLString() {
		t.Fatalf("step %d: serialized documents differ", step)
	}
}

// TestPatchPropertyVsRebuild drives random patch sequences against the
// parse-from-scratch oracle: the incrementally spliced document arrays
// must match a full rebuild after every step. Every other seed runs
// under a label table long enough that most of the labels are rare.
func TestPatchPropertyVsRebuild(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			frag, oracle := randomFragment(rng)
			doc := frag
			if seed%2 == 0 {
				// 251 names that sort ahead of the document's own: of the five
				// labels the patches draw from, the first two fit a byte and
				// the others are rare.
				pad := NewLabelTable()
				for i := 0; i < RareLabel-4; i++ {
					pad.Intern(fmt.Sprint("Pad", i))
				}
				doc = relink(pad, doc)
			}
			roots := []*mnode{oracle}
			for step := 0; step < 60; step++ {
				pt, fragOracle := randomPatch(rng, doc)
				next, dl, err := doc.Apply(pt)
				if err != nil {
					t.Fatalf("step %d: %v (patch %+v)", step, err, pt)
				}
				if got := doc.NumNodes() + dl.Inserted - dl.Removed; got != next.NumNodes() {
					t.Fatalf("step %d: delta says %d nodes, want %d", step, got, next.NumNodes())
				}
				roots = applyOracle(roots, pt, fragOracle)
				want := buildMutable(roots)
				requireEqualDocs(t, step, next, want)
				doc = next
			}
		})
	}
}

// TestPatchValidation pins the refusal surface: malformed patches must
// error without producing a document.
func TestPatchValidation(t *testing.T) {
	b := NewBuilder()
	b.Open("r")
	b.Open("a")
	b.Text("x")
	b.Close()
	b.Close()
	d := b.MustFinish() // 0=#doc 1=r 2=a 3=#text
	frag := func() *Document {
		fb := NewBuilder()
		fb.Open("new")
		fb.Close()
		return fb.MustFinish()
	}()
	cases := []struct {
		name string
		pt   Patch
	}{
		{"delete-root", Patch{Op: OpDelete, Node: 0, Before: Nil}},
		{"delete-document-element", Patch{Op: OpDelete, Node: 1, Before: Nil}},
		{"delete-out-of-range", Patch{Op: OpDelete, Node: 99, Before: Nil}},
		{"replace-root", Patch{Op: OpReplace, Node: 0, Before: Nil, Frag: frag}},
		{"replace-nil-frag", Patch{Op: OpReplace, Node: 2, Before: Nil}},
		{"insert-under-doc-root", Patch{Op: OpInsert, Node: 0, Before: Nil, Frag: frag}},
		{"insert-under-text", Patch{Op: OpInsert, Node: 3, Before: Nil, Frag: frag}},
		{"insert-before-non-child", Patch{Op: OpInsert, Node: 1, Before: 3, Frag: frag}},
		{"insert-nil-frag", Patch{Op: OpInsert, Node: 2, Before: Nil}},
		{"unknown-op", Patch{Op: 0, Node: 1, Before: Nil}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, _, err := d.Apply(tc.pt); err == nil {
				t.Fatalf("patch %+v: expected error", tc.pt)
			}
		})
	}
	// Replacing the document element is legal (the document stays
	// well-formed); the old label survives in the table but not the tree.
	nd, _, err := d.Apply(Patch{Op: OpReplace, Node: 1, Before: Nil, Frag: frag})
	if err != nil {
		t.Fatalf("replace document element: %v", err)
	}
	if nd.XMLString() != "<new></new>" {
		t.Fatalf("replace document element: got %q", nd.XMLString())
	}
}

// attributeDoc is <a q="v"><c/></a>: 0=#doc 1=a 2=@q 3=#text 4=c.
func attributeDoc() (d, frag *Document) {
	b := NewBuilder()
	b.Open("a")
	b.Open("@q")
	b.Text("v")
	b.Close()
	b.Open("c")
	b.Close()
	b.Close()
	fb := NewBuilder()
	fb.Open("x")
	fb.Close()
	return b.MustFinish(), fb.MustFinish()
}

// requireAttributeRefusal: the patch is refused with the rule in the
// error, and the document still serializes as it did.
func requireAttributeRefusal(t *testing.T, d *Document, pt Patch) {
	t.Helper()
	const rule = "attributes are the leading @name children of an element, each holding at most one text child"
	if nd, _, err := d.Apply(pt); err == nil {
		t.Fatalf("%s node %d before %d: accepted, and serializes as %s", pt.Op, pt.Node, pt.Before, nd.XMLString())
	} else if !strings.Contains(err.Error(), rule) {
		t.Fatalf("%s node %d before %d: error %q does not name the rule", pt.Op, pt.Node, pt.Before, err)
	}
	if got, want := d.XMLString(), `<a q="v"><c></c></a>`; got != want {
		t.Fatalf("the refused patch left %s, want %s", got, want)
	}
}

// TestApplyRefusesInsertUnderAttribute: an element under @q would be in
// the tree and absent from the serialization.
func TestApplyRefusesInsertUnderAttribute(t *testing.T) {
	d, frag := attributeDoc()
	requireAttributeRefusal(t, d, Patch{Op: OpInsert, Node: 2, Before: Nil, Frag: frag})
	requireAttributeRefusal(t, d, Patch{Op: OpInsert, Node: 2, Before: 3, Frag: frag})
}

// TestApplyRefusesReplacingAttributeText: an element in place of @q's
// text would serialize as q="".
func TestApplyRefusesReplacingAttributeText(t *testing.T) {
	d, frag := attributeDoc()
	requireAttributeRefusal(t, d, Patch{Op: OpReplace, Node: 3, Before: Nil, Frag: frag})
}

// TestApplyRefusesElementAheadOfAttribute: an element before @q, by
// insert or by replacing an attribute that another follows, would make
// @q a child that is no longer leading, serialized as <@q>.
func TestApplyRefusesElementAheadOfAttribute(t *testing.T) {
	d, frag := attributeDoc()
	requireAttributeRefusal(t, d, Patch{Op: OpInsert, Node: 1, Before: 2, Frag: frag})
	two, _, err := d.Apply(Patch{Op: OpDelete, Node: 4, Before: Nil}) // <a q="v"/>, then a second attribute by hand
	if err != nil {
		t.Fatal(err)
	}
	if got := two.XMLString(); got != `<a q="v"></a>` {
		t.Fatalf("after deleting c: %s", got)
	}
	b := NewBuilder()
	b.Open("a")
	for _, name := range []string{"@p", "@q"} {
		b.Open(name)
		b.Text("v")
		b.Close()
	}
	b.Close()
	pq := b.MustFinish() // 1=a 2=@p 3=#text 4=@q 5=#text
	if _, _, err := pq.Apply(Patch{Op: OpReplace, Node: 2, Before: Nil, Frag: frag}); err == nil {
		t.Fatal("replacing @p, which @q follows, by an element: accepted")
	}
	// The last attribute may become an element, and attributes and their
	// text may go: each leaves attributes leading.
	for _, tc := range []struct {
		pt   Patch
		want string
	}{
		{Patch{Op: OpReplace, Node: 4, Before: Nil, Frag: frag}, `<a p="v"><x></x></a>`},
		{Patch{Op: OpDelete, Node: 2, Before: Nil}, `<a q="v"></a>`},
		{Patch{Op: OpDelete, Node: 5, Before: Nil}, `<a p="v" q=""></a>`},
		{Patch{Op: OpInsert, Node: 1, Before: Nil, Frag: frag}, `<a p="v" q="v"><x></x></a>`},
	} {
		nd, _, err := pq.Apply(tc.pt)
		if err != nil {
			t.Fatalf("%s node %d: %v", tc.pt.Op, tc.pt.Node, err)
		}
		if got := nd.XMLString(); got != tc.want {
			t.Errorf("%s node %d: %s, want %s", tc.pt.Op, tc.pt.Node, got, tc.want)
		}
	}
	// A fragment that is itself an attribute has no XML form to arrive in.
	ab := NewBuilder()
	ab.Open("@r")
	ab.Close()
	if _, _, err := pq.Apply(Patch{Op: OpInsert, Node: 1, Before: Nil, Frag: ab.MustFinish()}); err == nil {
		t.Fatal("a fragment rooted at an attribute: accepted")
	}
}

// TestPatchAcrossTheWideLine walks one child's distance to its parent
// over 255 and back, by insert, delete and replace ahead of it, once
// with a fragment whose own children are that far from it; after every
// step the spliced document, and what it opens as from its sections, hold
// the arrays Join builds for the same tree — up, size and wide element
// for element, so no stale escape and no orphan entry survives. up and
// size escape at the same line, so a parent enters wide with its first
// child that far, and leaves it with its last (the line crossed by size
// alone, under parents too short for any child to escape:
// TestPatchAcrossTheSizeLine).
func TestPatchAcrossTheWideLine(t *testing.T) {
	// 0=#doc 1=a 2=b, k leaves under b at 3..k+2, then item at k+3: b spans
	// k ranks, item is k+2 from a, which spans k+2, and #doc k+3.
	const k = big - 3
	b := NewBuilder()
	b.Open("a")
	b.Open("b")
	for i := 0; i < k; i++ {
		b.Open("c")
		b.Close()
	}
	b.Close()
	b.Open("item")
	b.Close()
	b.Close()
	doc := b.MustFinish()
	large := NewBuilder()
	large.Open("b")
	for i := 0; i < big+100; i++ {
		large.Open("name")
		large.Close()
	}
	large.Close()
	one, two, wideFrag := docOf("c", "/"), docOf("c", "name", "/", "/"), large.MustFinish()
	const bNode = NodeID(2)
	steps := []struct {
		what string
		pt   func(d *Document) Patch
		wide []NodeID // the wide nodes afterwards
		far  int      // the nodes far from their parent afterwards
	}{
		// b spans k = 252, item is 254 from a, which spans 254; only #doc is
		// wide.
		{"two nodes ahead of b's children", func(d *Document) Patch {
			return Patch{Op: OpInsert, Node: bNode, Before: d.FirstChild(bNode), Frag: two}
		}, []NodeID{0, 1}, 1}, // b 254, item 256 away: a wide
		{"one more at the end of b", func(d *Document) Patch {
			return Patch{Op: OpInsert, Node: bNode, Before: Nil, Frag: one}
		}, []NodeID{0, 1, 2}, 2}, // b 255: its last child far, b wide
		{"a leaf of b replaced by two nodes", func(d *Document) Patch {
			return Patch{Op: OpReplace, Node: d.LastDesc(bNode), Before: Nil, Frag: two}
		}, []NodeID{0, 1, 2}, 2}, // b 256
		{"the two nodes ahead deleted", func(d *Document) Patch {
			return Patch{Op: OpDelete, Node: d.FirstChild(bNode), Before: Nil}
		}, []NodeID{0, 1}, 1}, // b 254 again: its last child 253 away
		{"b's first leaf replaced by one node", func(d *Document) Patch {
			return Patch{Op: OpReplace, Node: d.FirstChild(bNode), Before: Nil, Frag: one}
		}, []NodeID{0, 1}, 1},
		{"two leaves of b deleted, one by one", func(d *Document) Patch {
			return Patch{Op: OpDelete, Node: d.FirstChild(bNode), Before: Nil}
		}, []NodeID{0, 1}, 1}, // item 255 away: still far
		{"", func(d *Document) Patch {
			return Patch{Op: OpDelete, Node: d.FirstChild(bNode), Before: Nil}
		}, []NodeID{0}, 0}, // item 254 away: a no longer wide
		{"b replaced by a wide fragment", func(d *Document) Patch {
			return Patch{Op: OpReplace, Node: bNode, Before: Nil, Frag: wideFrag}
		}, []NodeID{0, 1, 2}, 100 + 1 + 1}, // the fragment's last 101 leaves, and item
		{"a wide fragment inserted ahead of it", func(d *Document) Patch {
			return Patch{Op: OpInsert, Node: 1, Before: bNode, Frag: wideFrag}
		}, []NodeID{0, 1, 2, 2 + big + 101}, 2*101 + 1 + 1}, // the second b is far from a too
		{"a wide fragment under item", func(d *Document) Patch {
			return Patch{Op: OpInsert, Node: d.LastDesc(1), Before: Nil, Frag: wideFrag}
		}, []NodeID{0, 1, 2, 2 + big + 101, 2 + 2*(big+101), 3 + 2*(big+101)}, 3*101 + 1 + 1}, // item enters wide after two entries that are no ancestors
		{"and deleted", func(d *Document) Patch {
			return Patch{Op: OpDelete, Node: 3 + 2*(big+101), Before: Nil}
		}, []NodeID{0, 1, 2, 2 + big + 101}, 2*101 + 1 + 1},
		{"the first deleted", func(d *Document) Patch {
			return Patch{Op: OpDelete, Node: bNode, Before: Nil}
		}, []NodeID{0, 1, 2}, 100 + 1 + 1},
		{"the second replaced by a leaf", func(d *Document) Patch {
			return Patch{Op: OpReplace, Node: bNode, Before: Nil, Frag: one}
		}, nil, 0},
	}
	roots := []*mnode{toMutable(doc, doc.DocumentElement())}
	for i, step := range steps {
		pt := step.pt(doc)
		next, _, err := doc.Apply(pt)
		if err != nil {
			t.Fatalf("step %d (%s): %v", i, step.what, err)
		}
		var fragOracle *mnode
		if pt.Frag != nil {
			fragOracle = toMutable(pt.Frag, pt.Frag.DocumentElement())
		}
		roots = applyOracle(roots, pt, fragOracle)
		want := buildMutable(roots)
		requireEqualDocs(t, i, next, want)
		requireEqualDocs(t, i, atRest(t, next), want)
		if got := next.WideNodes(); !slices.Equal(got, step.wide) {
			t.Errorf("step %d (%s): wide nodes %v, want %v", i, step.what, got, step.wide)
		}
		if got := next.FarParents(); got != step.far {
			t.Errorf("step %d (%s): %d nodes far from their parent, want %d", i, step.what, got, step.far)
		}
		doc = next
	}
}

// TestPatchAcrossTheChunkLine walks a text node's rank and its offset
// over 65 535 and back, one at a time, by inserts, deletes and replaces
// of one or two nodes and one or two bytes ahead of it, and once by a
// fragment longer than a chunk; after every step the spliced document,
// and what it opens as from its sections, hold the two text sequences
// Join builds for the same tree, halves and chunk starts — the number of
// chunks included, which the node count takes across the line as well.
func TestPatchAcrossTheChunkLine(t *testing.T) {
	// 0=#doc 1=a 2=b 3=a text of 65 533 bytes, k leaves c at 4..k+3, item
	// at k+4 with its text at k+5 = 65 534, offset 65 533; the document has
	// 65 535 nodes, one chunk.
	const line, k = 1 << 16, 1<<16 - 7
	b := NewBuilder()
	b.Open("a")
	b.Open("b")
	b.Close()
	b.Text(strings.Repeat("x", line-3))
	for i := 0; i < k; i++ {
		b.Open("c")
		b.Close()
	}
	b.Open("item")
	b.Text("tail")
	b.Close()
	b.Close()
	doc := b.MustFinish()
	big := NewBuilder()
	big.Open("b")
	for i := 0; i < line+100; i++ {
		big.Open("name")
		big.Text("n")
		big.Close()
	}
	big.Close()
	leaf, text1, text2, chunk := docOf("c", "/"), docOf("c", "#y", "/"), docOf("c", "#yz", "/"), big.MustFinish()
	const bNode = NodeID(2)
	steps := []struct {
		what   string
		pt     func(d *Document) Patch
		rank   NodeID // of the tail text afterwards
		offset int    // of its text in the blob
	}{
		{"a leaf ahead", func(d *Document) Patch {
			return Patch{Op: OpInsert, Node: bNode, Before: Nil, Frag: leaf}
		}, line - 1, line - 3}, // the last rank of the first chunk; 65 536 nodes
		{"another", func(d *Document) Patch {
			return Patch{Op: OpInsert, Node: bNode, Before: d.FirstChild(bNode), Frag: leaf}
		}, line, line - 3}, // the first of the second; a second chunk of ranks
		{"the first replaced by one with a byte of text", func(d *Document) Patch {
			return Patch{Op: OpReplace, Node: d.FirstChild(bNode), Before: Nil, Frag: text1}
		}, line + 1, line - 2},
		{"the second replaced by one with two", func(d *Document) Patch {
			return Patch{Op: OpReplace, Node: d.LastDesc(bNode), Before: Nil, Frag: text2}
		}, line + 2, line}, // offsets 65 535 and 65 536 skipped over: the blob's end takes a second chunk
		{"two bytes replaced by one", func(d *Document) Patch {
			return Patch{Op: OpReplace, Node: d.LastDesc(bNode) - 1, Before: Nil, Frag: text1}
		}, line + 2, line - 1}, // the last offset of the first chunk
		{"one byte more", func(d *Document) Patch {
			return Patch{Op: OpInsert, Node: bNode, Before: Nil, Frag: text1}
		}, line + 4, line}, // the first of the second
		{"and deleted", func(d *Document) Patch {
			return Patch{Op: OpDelete, Node: d.LastDesc(bNode) - 1, Before: Nil}
		}, line + 2, line - 1},
		{"a fragment longer than a chunk ahead", func(d *Document) Patch {
			return Patch{Op: OpInsert, Node: bNode, Before: d.FirstChild(bNode), Frag: chunk}
		}, 3*line + 203, 2*line + 99},
		{"and replaced by a leaf", func(d *Document) Patch {
			return Patch{Op: OpReplace, Node: d.FirstChild(bNode), Before: Nil, Frag: leaf}
		}, line + 3, line - 1},
		{"b's children deleted, one by one", func(d *Document) Patch {
			return Patch{Op: OpDelete, Node: d.FirstChild(bNode), Before: Nil}
		}, line + 2, line - 1},
		{"", func(d *Document) Patch {
			return Patch{Op: OpDelete, Node: d.FirstChild(bNode), Before: Nil}
		}, line, line - 2},
		{"", func(d *Document) Patch {
			return Patch{Op: OpDelete, Node: d.FirstChild(bNode), Before: Nil}
		}, line - 2, line - 3}, // one chunk of ranks again, and of offsets
	}
	roots := []*mnode{toMutable(doc, doc.DocumentElement())}
	for i, step := range steps {
		pt := step.pt(doc)
		next, _, err := doc.Apply(pt)
		if err != nil {
			t.Fatalf("step %d (%s): %v", i, step.what, err)
		}
		var fragOracle *mnode
		if pt.Frag != nil {
			fragOracle = toMutable(pt.Frag, pt.Frag.DocumentElement())
		}
		roots = applyOracle(roots, pt, fragOracle)
		want := buildMutable(roots)
		requireEqualDocs(t, i, next, want)
		requireEqualDocs(t, i, atRest(t, next), want)
		tail := NodeID(next.NumNodes() - 1)
		if tail != step.rank || next.Text(tail) != "tail" {
			t.Fatalf("step %d (%s): the last node is %d reading %q, want the tail text at %d", i, step.what, tail, next.Text(tail), step.rank)
		}
		if got := int(next.textOff.At(next.TextRank(tail))); got != step.offset {
			t.Fatalf("step %d (%s): the tail text starts at byte %d, want %d", i, step.what, got, step.offset)
		}
		doc = next
	}
}

// docOf builds a document from events: a name opens an element, "#text"
// adds a text node, "/" closes.
func docOf(events ...string) *Document {
	b := NewBuilder()
	for _, e := range events {
		switch {
		case e == "/":
			b.Close()
		case e[0] == '#':
			b.Text(e[1:])
		default:
			b.Open(e)
		}
	}
	return b.MustFinish()
}

// leaves is n empty elements of one name, as events.
func leaves(name string, n int) []string {
	var events []string
	for i := 0; i < n; i++ {
		events = append(events, name, "/")
	}
	return events
}

// TestPatchAcrossTheSizeLine walks a subtree's length over 255 and back —
// 254, 255, 256, 255, 254 by inserts, deletes and replaces of one node
// more or fewer, then to 554 by a fragment of 300 nodes, back onto the
// line when a leaf takes its place, and under it —
// once for the splice parent itself (q) and once for an ancestor three
// levels above it (a, over b, c and p, which stay short until the
// fragment takes all four across at once), each step from the heap
// generation and from what it opens as from its sections. After every
// step the spliced document, and what that opens as, hold the arrays Join
// builds for the same tree: size, and wide with the entry around each
// entry, element for element.
func TestPatchAcrossTheSizeLine(t *testing.T) {
	// a spans 3 + 10 + 240 = 253 ranks, q 253; r and #doc are wide throughout.
	events := []string{"r", "a", "b", "c", "p"}
	events = append(events, leaves("x", 10)...)
	events = append(events, "/", "/", "/")
	events = append(events, leaves("y", Big-15)...)
	events = append(events, "/", "q")
	events = append(events, leaves("z", Big-2)...)
	events = append(events, "/", "tail", "/", "/")
	doc := docOf(events...)
	one, two := docOf("x", "/"), docOf("x", "x", "/", "/")
	large := docOf(append(append([]string{"large"}, leaves("x", Big+44)...), "/")...)
	node := func(d *Document, name string) NodeID {
		l, _ := d.names.Lookup(name)
		for v := NodeID(0); ; v++ {
			if d.Label(v) == l {
				return v
			}
		}
	}
	under := func(parent string) []struct {
		what string
		pt   func(d *Document) Patch
	} {
		return []struct {
			what string
			pt   func(d *Document) Patch
		}{
			{"a leaf more", func(d *Document) Patch { return Patch{Op: OpInsert, Node: node(d, parent), Before: Nil, Frag: one} }},
			{"another", func(d *Document) Patch {
				return Patch{Op: OpInsert, Node: node(d, parent), Before: d.FirstChild(node(d, parent)), Frag: one}
			}},
			{"a leaf replaced by two nodes", func(d *Document) Patch {
				return Patch{Op: OpReplace, Node: d.LastDesc(node(d, parent)), Before: Nil, Frag: two}
			}},
			{"and the two by a leaf", func(d *Document) Patch {
				return Patch{Op: OpReplace, Node: d.LastDesc(node(d, parent)) - 1, Before: Nil, Frag: one}
			}},
			{"a leaf deleted", func(d *Document) Patch { return Patch{Op: OpDelete, Node: d.LastDesc(node(d, parent)), Before: Nil} }},
			{"300 nodes ahead", func(d *Document) Patch {
				return Patch{Op: OpInsert, Node: node(d, parent), Before: d.FirstChild(node(d, parent)), Frag: large}
			}},
			{"and replaced by a leaf", func(d *Document) Patch {
				return Patch{Op: OpReplace, Node: node(d, "large"), Before: Nil, Frag: one}
			}},
			{"which is deleted", func(d *Document) Patch {
				return Patch{Op: OpDelete, Node: d.FirstChild(node(d, parent)), Before: Nil}
			}},
		}
	}
	wides := [][]string{
		{"#doc", "r"}, {"#doc", "r", "a"}, {"#doc", "r", "a"}, {"#doc", "r", "a"}, {"#doc", "r"},
		{"#doc", "r", "a", "b", "c", "p", "large"}, {"#doc", "r", "a"}, {"#doc", "r"},
		{"#doc", "r"}, {"#doc", "r", "q"}, {"#doc", "r", "q"}, {"#doc", "r", "q"}, {"#doc", "r"},
		{"#doc", "r", "q", "large"}, {"#doc", "r", "q"}, {"#doc", "r"},
	}
	roots := []*mnode{toMutable(doc, doc.DocumentElement())}
	for i, step := range append(under("p"), under("q")...) {
		pt := step.pt(doc)
		var fragOracle *mnode
		if pt.Frag != nil {
			fragOracle = toMutable(pt.Frag, pt.Frag.DocumentElement())
		}
		roots = applyOracle(roots, pt, fragOracle)
		want := buildMutable(roots)
		var next *Document
		for origin, base := range map[string]*Document{"heap": doc, "mapped": atRest(t, doc)} {
			got, _, err := base.Apply(pt)
			if err != nil {
				t.Fatalf("step %d (%s), %s base: %v", i, step.what, origin, err)
			}
			requireEqualDocs(t, i, got, want)
			requireEqualDocs(t, i, atRest(t, got), want)
			var names []string
			for _, v := range got.WideNodes() {
				names = append(names, got.LabelName(v))
			}
			if !slices.Equal(names, wides[i]) {
				t.Errorf("step %d (%s), %s base: wide nodes %v, want %v", i, step.what, origin, names, wides[i])
			}
			if origin == "heap" {
				next = got
			}
		}
		doc = next
	}
}
