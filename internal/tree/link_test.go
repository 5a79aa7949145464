package tree_test

import (
	"bytes"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"repro/internal/tgen"
	"repro/internal/tree"
	"repro/internal/xmark"
	"repro/internal/xmlparse"
)

// TestExactArrays: a built document holds no capacity beyond its
// lengths, whether it was parsed (entities decoded or not, one chunk or
// several), generated or patched — so Document.MemBytes, which sums the
// lengths, describes memory the process really holds.
func TestExactArrays(t *testing.T) {
	big := xmark.Generate(xmark.Config{Scale: 0.1, Seed: 1})
	docs := map[string]*tree.Document{"generated": big}
	frag := tgen.Chain("graft", 3)
	for name, pt := range map[string]tree.Patch{
		"patched insert":  {Op: tree.OpInsert, Node: big.DocumentElement(), Before: tree.Nil, Frag: frag},
		"patched replace": {Op: tree.OpReplace, Node: big.FirstChild(big.DocumentElement()), Before: tree.Nil, Frag: frag},
		"patched delete":  {Op: tree.OpDelete, Node: big.FirstChild(big.DocumentElement()), Before: tree.Nil},
	} {
		d, _, err := big.Apply(pt)
		if err != nil {
			t.Fatal(err)
		}
		docs[name] = d
	}
	for name, src := range map[string]string{
		"parsed":          big.XMLString(), // 3 MB: more than one chunk
		"parsed entities": `<r a="&lt;1&gt;">&amp;<e>&#65;</e><![CDATA[x]]></r>`,
	} {
		d, err := xmlparse.ParseString(src)
		if err != nil {
			t.Fatal(err)
		}
		docs[name] = d
	}
	for name, d := range docs {
		if spare := d.SpareCapacity(); spare != 0 {
			t.Errorf("%s document: %d bytes of capacity beyond the arrays' lengths", name, spare)
		}
	}
}

// TestNavigationMatchesReferenceOnXMark: on a document of the shape the
// benchmark serves, and on a patched generation of it, the moves derived
// from parent and lastDesc are those the pointer-chasing reference
// builder writes down.
func TestNavigationMatchesReferenceOnXMark(t *testing.T) {
	d := xmark.Generate(xmark.Config{Scale: 0.01, Seed: 3})
	tree.RequireMatchesReference(t, "xmark", d)
	regions := d.FirstChild(d.DocumentElement())
	patched, _, err := d.Apply(tree.Patch{Op: tree.OpInsert, Node: regions, Before: d.FirstChild(regions), Frag: tgen.Random(7, tgen.Config{MaxNodes: 40, TextProb: 0.3})})
	if err != nil {
		t.Fatal(err)
	}
	tree.RequireMatchesReference(t, "xmark patched", patched)
}

// layout is d at rest: every array, the text blob and the label table.
func layout(t *testing.T, d *tree.Document) []byte {
	t.Helper()
	lw := tree.NewLayoutWriter()
	tree.AddDocumentSections(lw, d, nil)
	var buf bytes.Buffer
	if _, err := lw.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestLinkParts: an event stream cut into parts at arbitrary points,
// each with its own label numbering, links into the same document as
// the uncut stream — elements may open in one part and close in another.
func TestLinkParts(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for seed := int64(0); seed < 40; seed++ {
		want := tgen.Random(seed, tgen.Config{MaxNodes: 200, TextProb: 0.3})
		// Replay want as one event stream.
		var ev []int32
		var textLen []uint32
		var blob []byte
		var walk func(v tree.NodeID)
		walk = func(v tree.NodeID) {
			for c := want.FirstChild(v); c != tree.Nil; c = want.NextSibling(c) {
				ev = append(ev, int32(want.Label(c)))
				if want.Label(c) == tree.LabelText {
					textLen = append(textLen, uint32(len(want.Text(c))))
					blob = append(blob, want.Text(c)...)
					continue
				}
				walk(c)
				ev = append(ev, tree.EvClose)
			}
		}
		walk(want.Root())

		// Cut it, renumbering each part's labels by a random permutation.
		names := tree.NewLabelTable()
		for _, name := range want.Names().Names() {
			names.Intern(name)
		}
		var parts []tree.Part
		for len(ev) > 0 {
			n := 1 + rng.Intn(len(ev))
			perm := rng.Perm(names.Size() - tree.ReservedLabels)
			p := tree.Part{Remap: make([]tree.LabelID, names.Size())}
			local := make([]int32, names.Size()) // document label -> part label
			p.Remap[tree.LabelDoc], p.Remap[tree.LabelText] = tree.LabelDoc, tree.LabelText
			local[tree.LabelText] = int32(tree.LabelText)
			for i, j := range perm {
				p.Remap[tree.ReservedLabels+j] = tree.LabelID(tree.ReservedLabels + i)
				local[tree.ReservedLabels+i] = int32(tree.ReservedLabels + j)
			}
			for _, e := range ev[:n] {
				if e == tree.EvClose {
					p.Ev = append(p.Ev, e)
					continue
				}
				p.Ev = append(p.Ev, local[e])
				p.Nodes++
				if e == int32(tree.LabelText) {
					p.TextLen = append(p.TextLen, textLen[0])
					p.Blob = append(p.Blob, blob[:textLen[0]]...)
					blob, textLen = blob[textLen[0]:], textLen[1:]
				}
			}
			ev = ev[n:]
			parts = append(parts, p)
		}
		got, err := tree.Link(names, parts)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !bytes.Equal(layout(t, got), layout(t, want)) {
			t.Fatalf("seed %d: %d parts link into\n%s\nwant\n%s", seed, len(parts), got.XMLString(), want.XMLString())
		}
		if err := got.VerifyStructure(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

// TestLinkRejectsUnbalanced: Link reports, not panics on, a stream that
// closes more than it opened or leaves elements open.
func TestLinkRejectsUnbalanced(t *testing.T) {
	names := tree.NewLabelTable()
	a := names.Intern("a")
	remap := []tree.LabelID{0, 1, a}
	for _, ev := range [][]int32{
		{tree.EvClose},
		{int32(a), tree.EvClose, tree.EvClose},
		{int32(a), int32(a), tree.EvClose},
	} {
		nodes := 0
		for _, e := range ev {
			if e >= 0 {
				nodes++
			}
		}
		if _, err := tree.Link(names, []tree.Part{{Ev: ev, Remap: remap, Nodes: nodes}}); err == nil {
			t.Errorf("Link(%v) succeeded", ev)
		}
	}
}

// wideDoc is <r> over one empty child per further name, up to a label
// table of the given size, the two reserved labels included.
func wideDoc(labels int) (*tree.Document, error) {
	b := tree.NewBuilder()
	b.Open("r")
	for i := tree.ReservedLabels + 1; i < labels; i++ {
		b.Open("n" + strconv.Itoa(i))
		b.Close()
	}
	b.Close()
	return b.Finish()
}

// TestLinkRefusesLabelsPastTheLimit: a node's label is stored in 16
// bits, so a table of MaxLabels names links and the next name is an
// error that says what the limit is, not a label that wraps around.
func TestLinkRefusesLabelsPastTheLimit(t *testing.T) {
	d, err := wideDoc(tree.MaxLabels)
	if err != nil {
		t.Fatalf("%d labels: %v", tree.MaxLabels, err)
	}
	last := d.LastDesc(d.Root())
	if d.Names().Size() != tree.MaxLabels || d.Label(last) != tree.MaxLabels-1 || d.LabelName(last) != "n65535" {
		t.Fatalf("%d labels, the last node carrying %d (%s)", d.Names().Size(), d.Label(last), d.LabelName(last))
	}
	if _, err := wideDoc(tree.MaxLabels + 1); err == nil || !strings.Contains(err.Error(), "limit of 65536") {
		t.Fatalf("%d labels: err = %v, want the limit of 65536 named", tree.MaxLabels+1, err)
	}
}

// TestApplyRefusesLabelsPastTheLimit: a patch whose fragment brings the
// name that does not fit is refused the same way, and one that stays
// within the table applies.
func TestApplyRefusesLabelsPastTheLimit(t *testing.T) {
	d, err := wideDoc(tree.MaxLabels)
	if err != nil {
		t.Fatal(err)
	}
	insert := func(name string) (*tree.Document, error) {
		nd, _, err := d.Apply(tree.Patch{Op: tree.OpInsert, Node: d.DocumentElement(), Before: tree.Nil, Frag: tgen.Chain(name, 1)})
		return nd, err
	}
	if _, err := insert("one-too-many"); err == nil || !strings.Contains(err.Error(), "limit of 65536") {
		t.Fatalf("a fragment with a new name: err = %v, want the limit of 65536 named", err)
	}
	nd, err := insert("n65535")
	if err != nil {
		t.Fatalf("a fragment of known names: %v", err)
	}
	if nd.Names() != d.Names() || nd.LabelName(nd.LastDesc(nd.Root())) != "n65535" {
		t.Fatalf("patched within the table: table shared = %v, last node %s", nd.Names() == d.Names(), nd.LabelName(nd.LastDesc(nd.Root())))
	}
}
