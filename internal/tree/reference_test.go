package tree

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

// refDoc holds the arrays a Document stored before its navigation was
// derived from parent and lastDesc and its text directory cut down to
// the text nodes: first child, next sibling, depth and a text offset
// written down per node, labels at full width, as the events arrive.
type refDoc struct {
	labels      []LabelID
	parent      []NodeID
	firstChild  []NodeID
	nextSibling []NodeID
	lastDesc    []NodeID
	depth       []int32
	textOff     []uint32
	textBlob    []byte
	names       *LabelTable
}

// refBuilder is the Builder this package had before its documents were
// derived from relative arrays: it grows the arrays by append and
// maintains the links by pointer chasing as the opens, texts and closes
// arrive. Kept, for tests only, as the independent definition of what
// such a stream of calls means; requireMatchesReference holds Join, the
// splice and the derived navigation to it.
type refBuilder struct {
	doc   *refDoc
	stack []NodeID
	prev  []NodeID // last closed child per stack level, for sibling links
}

func newRefBuilder() *refBuilder {
	b := &refBuilder{doc: &refDoc{names: NewLabelTable()}}
	b.open(LabelDoc)
	return b
}

func (b *refBuilder) open(l LabelID) NodeID {
	d := b.doc
	v := NodeID(len(d.labels))
	d.labels = append(d.labels, l)
	d.parent = append(d.parent, Nil)
	d.firstChild = append(d.firstChild, Nil)
	d.nextSibling = append(d.nextSibling, Nil)
	d.lastDesc = append(d.lastDesc, v)
	d.depth = append(d.depth, int32(len(b.stack)))
	d.textOff = append(d.textOff, uint32(len(d.textBlob)))
	if len(b.stack) > 0 {
		p := b.stack[len(b.stack)-1]
		d.parent[v] = p
		if d.firstChild[p] == Nil {
			d.firstChild[p] = v
		} else {
			d.nextSibling[b.prev[len(b.stack)-1]] = v
		}
	}
	b.stack = append(b.stack, v)
	b.prev = append(b.prev, Nil)
	return v
}

func (b *refBuilder) text(content string) NodeID {
	v := b.open(LabelText)
	b.doc.textBlob = append(b.doc.textBlob, content...)
	b.close()
	return v
}

func (b *refBuilder) close() {
	v := b.stack[len(b.stack)-1]
	b.stack = b.stack[:len(b.stack)-1]
	b.prev = b.prev[:len(b.prev)-1]
	b.doc.lastDesc[v] = NodeID(len(b.doc.labels) - 1)
	if len(b.prev) > 0 {
		b.prev[len(b.prev)-1] = v
	}
}

// finish closes what is still open, the synthetic root last.
func (b *refBuilder) finish() *refDoc {
	for len(b.stack) > 0 {
		b.close()
	}
	return b.doc
}

// sorted renumbers the reference's labels as Join numbers a document's:
// the reserved two, then the other names in byte order.
func (d *refDoc) sorted() *refDoc {
	names := NewLabelTable()
	for _, name := range slices.Sorted(slices.Values(d.names.names[ReservedLabels:])) {
		names.Intern(name)
	}
	for v, l := range d.labels {
		d.labels[v], _ = names.Lookup(d.names.Name(l))
	}
	d.names = names
	return d
}

// replay feeds d's event stream to the reference builder. The stream is
// read off labels, Parent and the text alone — a node's open elements
// close until its parent is the innermost — so nothing else the reference
// is compared against (LastDesc, the derived moves) takes part in making
// it.
func replay(d *Document) *refDoc {
	b := newRefBuilder()
	for _, name := range d.names.names {
		b.doc.names.Intern(name)
	}
	for v := NodeID(1); int(v) < d.NumNodes(); v++ {
		for b.stack[len(b.stack)-1] != d.Parent(v) {
			b.close()
		}
		if d.Label(v) == LabelText {
			b.text(d.Text(v))
		} else {
			b.open(d.Label(v))
		}
	}
	return b.finish()
}

// requireMatchesReference compares d with what the reference builder
// makes of d's own event stream: the stored arrays whole — the topology
// as the absolute ranks up, size and wide stand for — and what a
// Document derives — FirstChild, NextSibling, Depth, BinEnd, Text —
// against the reference's per-node arrays node by node.
func requireMatchesReference(t *testing.T, what string, d *Document) {
	t.Helper()
	requireEqualsReference(t, what, d, replay(d))
}

func requireEqualsReference(t *testing.T, what string, got *Document, want *refDoc) {
	t.Helper()
	// The reference's text of v, from its per-node offsets; what a
	// Document keeps of them is the entries of the text nodes.
	n := len(want.labels)
	wantText := func(v NodeID) string {
		end := len(want.textBlob)
		if int(v)+1 < n {
			end = int(want.textOff[v+1])
		}
		return string(want.textBlob[want.textOff[v]:end])
	}
	labels := make([]LabelID, len(got.labels))
	parent, lastDesc := make([]NodeID, len(got.labels)), make([]NodeID, len(got.labels))
	for v := range got.labels {
		labels[v] = got.Label(NodeID(v))
		parent[v], lastDesc[v] = got.Parent(NodeID(v)), got.LastDesc(NodeID(v))
	}
	// Every rank's text rank, the rank past the last included: the #text
	// nodes before it.
	var textOff []uint32
	textRank, gotRank := make([]int, n+1), make([]int, n+1)
	for v, l := range want.labels {
		textRank[v+1] = textRank[v]
		if l == LabelText {
			textOff = append(textOff, want.textOff[v])
			textRank[v+1]++
		}
	}
	for v := range gotRank {
		gotRank[v] = got.TextRank(NodeID(v))
	}
	textOff = append(textOff, uint32(len(want.textBlob)))
	for _, f := range []struct {
		name      string
		got, want any
	}{
		{"labels", labels, want.labels}, {"parent", parent, want.parent},
		{"lastDesc", lastDesc, want.lastDesc},
		{"textRank", gotRank, textRank}, {"textOff", slices.Collect(got.textOff.From(0)), textOff},
		{"textBlob", string(got.textBlob), string(want.textBlob)},
		{"names", got.names.names, want.names.names},
	} {
		if !reflect.DeepEqual(f.got, f.want) {
			t.Fatalf("%s: %s\n got %v\nwant %v", what, f.name, f.got, f.want)
		}
	}
	if got, want := got.DocumentElement(), want.firstChild[0]; got != want {
		t.Fatalf("%s: DocumentElement() = %d, want %d", what, got, want)
	}
	for v := NodeID(0); int(v) < n; v++ {
		binEnd := want.lastDesc[0]
		if p := want.parent[v]; p != Nil {
			binEnd = want.lastDesc[p]
		}
		// Depth walks to the root: from depth 1024 on it is asked of one
		// node in 64, or a chain of 70 000 would cost 2.4e9 steps. Every
		// node's parent was compared above, which is what the walk reads.
		depth := int(want.depth[v])
		if depth < 1024 || v%64 == 0 {
			depth = got.Depth(v)
		}
		if got.FirstChild(v) != want.firstChild[v] || got.BinaryLeft(v) != want.firstChild[v] ||
			got.NextSibling(v) != want.nextSibling[v] || got.BinaryRight(v) != want.nextSibling[v] ||
			depth != int(want.depth[v]) || got.BinEnd(v) != binEnd {
			t.Fatalf("%s node %d: derived (fc=%d ns=%d depth=%d binEnd=%d), reference (fc=%d ns=%d depth=%d binEnd=%d)",
				what, v, got.FirstChild(v), got.NextSibling(v), depth, got.BinEnd(v),
				want.firstChild[v], want.nextSibling[v], want.depth[v], binEnd)
		}
		if got.Text(v) != wantText(v) {
			t.Fatalf("%s node %d (%s): Text = %q, reference %q", what, v, got.LabelName(v), got.Text(v), wantText(v))
		}
	}
	for _, v := range []NodeID{Nil, NodeID(n), NodeID(n) + 7, -9} {
		if got.Text(v) != "" {
			t.Fatalf("%s: Text(%d) = %q for an id that is no node of %d", what, v, got.Text(v), n)
		}
	}
}

// TestLinkMatchesReferenceBuilder drives random open/text/close
// sequences into the Builder (a piece, then Join) and into the reference
// builder, and compares every array, the blob, the label table and the
// derived navigation. The reference numbers labels as they first occur;
// its ids are sorted before the comparison, as Join sorts them.
func TestLinkMatchesReferenceBuilder(t *testing.T) {
	labels := []string{"a", "b", "c", "@x", "long-name.with:chars"}
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		b, ref := NewBuilder(), newRefBuilder()
		depth := 0
		for steps := rng.Intn(300); steps > 0; steps-- {
			switch r := rng.Intn(10); {
			case r < 4:
				name := labels[rng.Intn(len(labels))]
				if got, want := b.Open(name), ref.open(ref.doc.names.Intern(name)); got != want {
					t.Fatalf("seed %d: Open returned node %d, want %d", seed, got, want)
				}
				depth++
			case r < 6:
				content := string(make([]byte, rng.Intn(4))) + "t"
				if got, want := b.Text(content), ref.text(content); got != want {
					t.Fatalf("seed %d: Text returned node %d, want %d", seed, got, want)
				}
			case depth > 0:
				b.Close()
				ref.close()
				depth--
			}
		}
		if b.Depth() != depth+1 {
			t.Fatalf("seed %d: Depth() = %d, want %d", seed, b.Depth(), depth+1)
		}
		for ; depth > 0; depth-- {
			b.Close()
		}
		got, want := b.MustFinish(), ref.finish().sorted()
		requireEqualsReference(t, fmt.Sprint("seed ", seed), got, want)
		requireMatchesReference(t, fmt.Sprint("seed ", seed, " replayed"), got)
	}
}

// atRest takes d through its XQO2 sections and back: the document a
// mapped file opens as, its arrays aliasing the container's bytes.
func atRest(t *testing.T, d *Document) *Document {
	t.Helper()
	w := NewLayoutWriter()
	AddDocumentSections(w, d, nil)
	var buf bytes.Buffer
	if _, err := w.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	l, err := OpenLayout(buf.Bytes(), nil)
	if err != nil {
		t.Fatal(err)
	}
	opened, err := DocumentFromLayout(l)
	if err != nil {
		t.Fatal(err)
	}
	if err := opened.VerifyStructure(); err != nil {
		t.Fatal(err)
	}
	return opened
}

// TestFileInAnyNameOrderOpens: a file whose label table is not sorted —
// its ids in another order than Join gives them — opens with a table of
// its own, in the file's order, and reads every label as written; a
// patch that brings a name moves it to the sorted table, as a document
// Join built would be.
func TestFileInAnyNameOrderOpens(t *testing.T) {
	b := NewBuilder()
	b.Open("r")
	for _, name := range []string{"a", "b", "c", "a"} {
		b.Open(name)
		b.Text(name)
		b.Close()
	}
	b.Close()
	d := b.MustFinish()
	// The names reversed after the reserved two: "r", "c", "b", "a".
	reversed := &Document{}
	*reversed = *d
	reversed.names = NewLabelTable()
	for _, name := range slices.Backward(d.names.names[ReservedLabels:]) {
		reversed.names.Intern(name)
	}
	reversed.labels = slices.Clone(d.labels)
	for v, l := range reversed.labels {
		reversed.labels[v] = uint8(reversed.names.Intern(d.names.Name(LabelID(l))))
	}
	opened := atRest(t, reversed)
	if opened.Names() == d.Names() || !slices.Equal(opened.Names().Names(), []string{"#doc", "#text", "r", "c", "b", "a"}) {
		t.Fatalf("opened with the table %v (shared with the sorted one: %v)", opened.Names().Names(), opened.Names() == d.Names())
	}
	if opened.XMLString() != d.XMLString() {
		t.Fatalf("opened as %s, want %s", opened.XMLString(), d.XMLString())
	}
	frag := NewBuilder()
	frag.Open("z")
	frag.Close()
	next, _, err := opened.Apply(Patch{Op: OpInsert, Node: 1, Before: Nil, Frag: frag.MustFinish()})
	if err != nil {
		t.Fatal(err)
	}
	if want := relink(next.names, next); next.Names() != want.Names() || !slices.Equal(next.labels, want.labels) {
		t.Fatalf("patched: names %v, labels %v; built: %v, %v", next.Names().Names(), next.labels, want.Names().Names(), want.labels)
	}
}

// TestTextAcrossOriginsAndPatches: a built document, the same document
// opened from its sections, and every generation one patch away from
// either — each subtree deleted, each replaced, a graft before each
// child and after the last, which on this document is a splice at the
// first node, at the last, inside a run of text nodes, between two runs
// and into an element without text, with fragments that have text or
// none and labels the document knows or does not — hold the text the
// rebuilt-from-scratch oracle holds, node for node and serialized, in
// the arrays the reference builder makes of the same events.
func TestTextAcrossOriginsAndPatches(t *testing.T) {
	b := NewBuilder()
	b.Open("r") // 1
	b.Text("head")
	b.Open("a") // 3, over the run 4-6
	b.Text("a1")
	b.Text("")
	b.Text("a3")
	b.Close()
	b.Open("b") // 7
	b.Close()
	b.Text("mid")
	b.Open("c") // 9
	b.Open("d")
	b.Text("deep")
	b.Close()
	b.Close()
	b.Text("tail") // 12, the last node
	b.Close()
	built := b.MustFinish()
	mapped := atRest(t, built)
	requireMatchesReference(t, "built", built)
	requireMatchesReference(t, "mapped", mapped)
	requireEqualDocs(t, 0, mapped, built)

	var frags []*Document
	for _, events := range [][]string{
		{"a", "#f1", "b", "#f2", "/", "#f3", "/"}, // text at both ends, known labels
		{"fresh", "#f4", "/"},                     // a label the document lacks
		{"b", "/"},                                // no text at all
	} {
		fb := NewBuilder()
		for _, e := range events {
			switch {
			case e == "/":
				fb.Close()
			case e[0] == '#':
				fb.Text(e[1:])
			default:
				fb.Open(e)
			}
		}
		frags = append(frags, fb.MustFinish())
	}
	var patches []Patch
	for v := NodeID(1); int(v) < built.NumNodes(); v++ {
		if v != built.DocumentElement() {
			patches = append(patches, Patch{Op: OpDelete, Node: v, Before: Nil})
		}
		for _, frag := range frags {
			patches = append(patches, Patch{Op: OpReplace, Node: v, Before: Nil, Frag: frag})
			if built.Label(v) == LabelText {
				continue
			}
			for c := built.FirstChild(v); c != Nil; c = built.NextSibling(c) {
				patches = append(patches, Patch{Op: OpInsert, Node: v, Before: c, Frag: frag})
			}
			patches = append(patches, Patch{Op: OpInsert, Node: v, Before: Nil, Frag: frag})
		}
	}
	for i, pt := range patches {
		var fragOracle *mnode
		if pt.Frag != nil {
			fragOracle = toMutable(pt.Frag, pt.Frag.DocumentElement())
		}
		want := buildMutable(applyOracle([]*mnode{toMutable(built, built.DocumentElement())}, pt, fragOracle))
		for origin, base := range map[string]*Document{"built": built, "mapped": mapped} {
			what := fmt.Sprintf("%s, %s node %d before %d (patch %d)", origin, pt.Op, pt.Node, pt.Before, i)
			got, _, err := base.Apply(pt)
			if err != nil {
				t.Fatalf("%s: %v", what, err)
			}
			requireMatchesReference(t, what, got)
			requireEqualDocs(t, i, got, want)
			requireEqualDocs(t, i, atRest(t, got), want)
		}
	}
}
