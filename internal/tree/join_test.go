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

// event is one call on a Piece: an element to open by name, a text node
// ("#text" and its content) or a close ("/").
type event struct{ name, text string }

// pieces writes the events into one piece per cut: events [cuts[i-1],
// cuts[i]) into piece i, each labelling its nodes in a table of its own
// that order interns first, the reserved labels aside.
func pieces(events []event, cuts []int, order func(i int) []string) []*tree.Piece {
	var ps []*tree.Piece
	for i, from := 0, 0; from < len(events); i++ {
		to := len(events)
		if i < len(cuts) {
			to = cuts[i]
		}
		names := tree.NewLabelTable()
		for _, name := range order(i) {
			names.Intern(name)
		}
		p := tree.NewPiece(names, 0, 0, 0)
		for _, e := range events[from:to] {
			p.Reserve(1)
			switch e.name {
			case "/":
				p.Close()
			case "#text":
				p.Text()
				p.Blob = append(p.Blob, e.text...)
			default:
				p.Open(names.Intern(e.name))
			}
		}
		ps, from = append(ps, p), to
	}
	return ps
}

// TestLinkParts: a document cut into pieces at arbitrary points, each
// with its own label numbering, joins into the same document as the
// uncut one — elements may open in one piece and close in another.
func TestLinkParts(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for seed := int64(0); seed < 40; seed++ {
		want := tgen.Random(seed, tgen.Config{MaxNodes: 200, TextProb: 0.3})
		var events []event
		var walk func(v tree.NodeID)
		walk = func(v tree.NodeID) {
			for c := want.FirstChild(v); c != tree.Nil; c = want.NextSibling(c) {
				if want.Label(c) == tree.LabelText {
					events = append(events, event{"#text", want.Text(c)})
					continue
				}
				events = append(events, event{name: want.LabelName(c)})
				walk(c)
				events = append(events, event{name: "/"})
			}
		}
		walk(want.Root())

		// The first piece numbers the labels as want does, so the joined
		// table is want's; every later one by a random permutation.
		var cuts []int
		for at := 0; at < len(events); {
			at += 1 + rng.Intn(len(events)-at)
			cuts = append(cuts, at)
		}
		order := func(i int) []string {
			names := want.Names().Names()[tree.ReservedLabels:]
			if i > 0 {
				rng.Shuffle(len(names), func(a, b int) { names[a], names[b] = names[b], names[a] })
			}
			return names
		}
		ps := pieces(events, cuts, order)
		got, err := tree.Join(ps)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !bytes.Equal(layout(t, got), layout(t, want)) {
			t.Fatalf("seed %d: %d pieces join into\n%s\nwant\n%s", seed, len(ps), got.XMLString(), want.XMLString())
		}
		if err := got.VerifyStructure(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

// TestLinkRejectsUnbalanced: Join reports, not panics on, pieces that
// close more than they opened or leave elements open, within one piece
// or across a cut.
func TestLinkRejectsUnbalanced(t *testing.T) {
	a, end := event{name: "a"}, event{name: "/"}
	for _, c := range []struct {
		events []event
		cuts   []int
	}{
		{[]event{end}, nil},
		{[]event{a, end, end}, nil},
		{[]event{a, a, end}, nil},
		{[]event{a, end, end}, []int{1}},
		{[]event{a, a, end}, []int{1}},
		{[]event{a, a, end}, []int{2}},
	} {
		ps := pieces(c.events, c.cuts, func(int) []string { return nil })
		if _, err := tree.Join(ps); err == nil {
			t.Errorf("Join(%v cut at %v) succeeded", c.events, c.cuts)
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
// bits, so a table of MaxLabels names joins and the next name is an
// error that says what the limit is, not a label that wraps around.
func TestLinkRefusesLabelsPastTheLimit(t *testing.T) {
	d, err := wideDoc(tree.MaxLabels)
	if err != nil {
		t.Fatalf("%d labels: %v", tree.MaxLabels, err)
	}
	// The names sort "n10" to "n99999" and then "r": the document
	// element carries the largest id, and the last node its own name.
	r, last := d.DocumentElement(), d.LastDesc(d.Root())
	if d.Names().Size() != tree.MaxLabels || d.Label(r) != tree.MaxLabels-1 || d.LabelName(r) != "r" || d.LabelName(last) != "n65535" {
		t.Fatalf("%d labels, the document element carrying %d (%s), the last node %s", d.Names().Size(), d.Label(r), d.LabelName(r), d.LabelName(last))
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
