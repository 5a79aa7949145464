package xmlparse

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/tgen"
	"repro/internal/tree"
	"repro/internal/xmark"
)

// forcedChunks are the chunk counts every differential input runs at,
// whatever its size: one, and splits that put cuts at the halves, thirds
// and sevenths of the source.
var forcedChunks = []int{1, 2, 3, 7}

// docBytes is d at rest: every array, the text blob and the label
// table, so equal bytes are equal documents.
func docBytes(t testing.TB, d *tree.Document) []byte {
	t.Helper()
	lw := tree.NewLayoutWriter()
	tree.AddDocumentSections(lw, d, nil)
	var buf bytes.Buffer
	if _, err := lw.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// matchesReference holds parse at every forced chunk count to the
// reference parser: the same document bit for bit, or the same
// SyntaxError, offset and message.
func matchesReference(t testing.TB, src []byte) {
	t.Helper()
	matchesReferenceAt(t, src, forcedChunks)
}

// matchesReferenceAt is matchesReference at the chunk counts given.
func matchesReferenceAt(t testing.TB, src []byte, chunkCounts []int) {
	t.Helper()
	want, wantErr := referenceParse(src)
	var wantBytes []byte
	if wantErr == nil {
		wantBytes = docBytes(t, want)
	}
	for _, k := range chunkCounts {
		got, err := parse(src, k)
		if wantErr != nil {
			we := wantErr.(*SyntaxError)
			ge, ok := err.(*SyntaxError)
			if !ok || *ge != *we {
				t.Fatalf("k=%d: %q\n got error %v\nwant error %v", k, clip(src), err, wantErr)
			}
			continue
		}
		if err != nil {
			t.Fatalf("k=%d: %q\n got error %v, want a document", k, clip(src), err)
		}
		if !bytes.Equal(docBytes(t, got), wantBytes) {
			t.Fatalf("k=%d: %q\n got %s\nwant %s", k, clip(src), got.XMLString(), want.XMLString())
		}
	}
}

func clip(b []byte) []byte {
	if len(b) > 200 {
		return b[:200]
	}
	return b
}

// straddlers are constructs with a '<' inside that is not markup in
// element content: a chunk cut there must be noticed and redone.
var straddlers = []string{
	"<!-- <x> </y> <!-- -->",
	"<![CDATA[ <x> </r> ]]>",
	"<?pi <x> </y> ?>",
	`<q a="<x>" b='</r><z>'/>`,
	`<q a = "1" >&lt;<!---->&#60;<![CDATA[]]>&#x3c;</q >`,
	"<!-->", "<?>",
}

// differentialSeeds are well-formed and broken documents that exercise
// every construct, with the straddlers moved across every cut point.
func differentialSeeds() [][]byte {
	seeds := [][]byte{
		[]byte(xmark.Generate(xmark.Config{Scale: 0.01, Seed: 1}).XMLString()),
		[]byte(`<?xml version="1.0"?><!DOCTYPE r [<!ELEMENT r ANY> <x>]><!-- c --><r a="1" b='&amp;&#65;&#x42;&bogus;'> t <![CDATA[<c>]]><e/>&lt;&#xZ;&#-3;</r><?pi?> `),
		[]byte("<!DOCTYPE r [ <r/>"), []byte("<!DOCTYPE r <r/>"), []byte("<?xml <r/>"),
		[]byte("<r/><!-- open"), []byte("<r/> "), []byte("<r>  </r>"), []byte("<r> x</r>"),
		[]byte("<r></r></r>"), []byte("<r><a></r></a>"), []byte("<r><a/></r><b/>"), []byte("<r>&#x41zz;&# 66;&#x1_0;& x &#67;</r>"),
	}
	const fillers = 24
	for _, s := range straddlers {
		for at := 0; at <= fillers; at++ {
			doc := "<r>" + strings.Repeat("<e>t</e>", at) + s + strings.Repeat("<e>t</e>", fillers-at) + "</r>"
			seeds = append(seeds, []byte(doc))
		}
	}
	// A DOCTYPE long enough to hold the first cuts.
	seeds = append(seeds, []byte("<!DOCTYPE r ["+strings.Repeat("<!ENTITY e '<x>'>", 12)+"]><r><e>t</e></r>"))
	// The byte-level mutations of robust_test.go.
	base := []byte(tgen.Random(3, tgen.Config{MaxNodes: 80, TextProb: 0.3}).XMLString())
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < len(base); i += 2 {
		m := append([]byte(nil), base...)
		m[i] ^= byte(1 + rng.Intn(255))
		seeds = append(seeds, m)
	}
	for i := 0; i < len(base); i += 7 {
		seeds = append(seeds, base[:i])
	}
	return seeds
}

func TestParseMatchesReference(t *testing.T) {
	for _, src := range differentialSeeds() {
		matchesReference(t, src)
	}
}

// crossCuts is a document built so that what crosses a cut is every kind
// of thing tree.Join links across pieces: one element of 70 000
// children spans every cut, so the later children of each chunk hang 65
// 535 ranks or more under it (an up escape); twenty subtrees of 301
// nodes hold nearly all the bytes, with 1 KB of text a node, so most
// cuts fall inside one (a wide entry closed in a later piece); a chain
// 300 deep lies in the middle; and 306 names are more than a label byte
// holds, in a different first-occurrence order in every chunk.
func crossCuts() []byte {
	var b strings.Builder
	text := strings.Repeat("x", 1000)
	b.WriteString("<d><w>")
	for i := range 70_000 {
		switch {
		case i%3500 == 0:
			b.WriteString("<s>")
			for j := range 150 {
				fmt.Fprintf(&b, "<n%d>%s</n%d>", (i+7*j)%300, text, (i+7*j)%300)
			}
			b.WriteString("</s>")
		case i == 35_001:
			b.WriteString(strings.Repeat("<c>", 300) + strings.Repeat("</c>", 300))
		default:
			fmt.Fprintf(&b, "<n%d/>", (i*13)%300)
			if i%4 == 0 {
				b.WriteString("t")
			}
		}
	}
	b.WriteString("</w></d>")
	return []byte(b.String())
}

// TestLargeInputsMatchReference: the concurrent join, which only a
// source of several chunks reaches, against the reference parser on
// documents past 65 536 ranks, so that their text and rare-label
// directories cross chunk lines too: XMark 0.1 (215 k nodes) and
// crossCuts, at forced chunk counts of two, three and seven.
func TestLargeInputsMatchReference(t *testing.T) {
	for _, src := range [][]byte{[]byte(xmark.Generate(xmark.Config{Scale: 0.1, Seed: 1}).XMLString()), crossCuts()} {
		matchesReferenceAt(t, src, []int{2, 3, 7})
	}
}

// FuzzParseMatchesReference is the differential proof of the kernel:
// whatever the bytes and wherever the chunks are cut, Parse is the
// reference parser.
func FuzzParseMatchesReference(f *testing.F) {
	for _, src := range differentialSeeds() {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src []byte) {
		matchesReference(t, src)
	})
}

// TestChunkCutsAreRedone: a cut inside a comment makes the second chunk
// start where no markup starts; the document still comes out right, and
// without the sequential re-run an error would need.
func TestChunkCutsAreRedone(t *testing.T) {
	half := strings.Repeat("<e>t</e>", 50)
	src := []byte("<r>" + half + "<!--" + strings.Repeat(" <x> ", 40) + "-->" + half + "</r>")
	chunks := tokenizeChunks(src, 2)
	if len(chunks) != 2 || chunks[1].start != chunks[0].end {
		t.Fatalf("chunks do not meet: %d chunks", len(chunks))
	}
	if at := bytes.Index(src, []byte("-->")) + 3; chunks[1].start != at {
		t.Errorf("second chunk starts at %d, want %d (just past the comment)", chunks[1].start, at)
	}
	if _, err := assemble(src, chunks); err != nil {
		t.Errorf("assemble: %v", err)
	}
	matchesReference(t, src)
}

func ExampleSyntaxError() {
	_, err := ParseString("<a></b>")
	fmt.Println(err)
	// Output: xmlparse: offset 6: mismatched end tag </b>, open element is <a>
}

// TestSameNamesShareOneTable: documents with the same names share one
// label table, whatever order the names first occur in and however the
// source is cut: two sources whose names come in other orders, each
// parsed in one, two and four chunks, and a document tree.Builder makes
// with the names in a third order, all have the one table, which lists
// the names sorted.
func TestSameNamesShareOneTable(t *testing.T) {
	source := func(names ...string) []byte {
		var b strings.Builder
		b.WriteString("<r>")
		for i := range 200 {
			for j := range names {
				name := names[(i+j)%len(names)]
				fmt.Fprintf(&b, "<%s k='%d'>t</%s>", name, i, name)
			}
		}
		b.WriteString("</r>")
		return []byte(b.String())
	}
	var docs []*tree.Document
	for _, src := range [][]byte{source("c", "b", "a"), source("a", "c", "b")} {
		for _, k := range []int{1, 2, 4} {
			if n := len(tokenizeChunks(src, k)); n != k {
				t.Fatalf("%d chunks, want %d", n, k)
			}
			d, err := parse(src, k)
			if err != nil {
				t.Fatal(err)
			}
			docs = append(docs, d)
		}
	}
	b := tree.NewBuilder()
	b.Open("r")
	for _, name := range []string{"b", "@k", "a", "c"} {
		b.Open(name)
		b.Close()
	}
	b.Close()
	docs = append(docs, b.MustFinish())
	want := []string{"#doc", "#text", "@k", "a", "b", "c", "r"}
	for i, d := range docs {
		if got := d.Names().Names(); !slices.Equal(got, want) {
			t.Fatalf("document %d: names %v, want %v", i, got, want)
		}
		if d.Names() != docs[0].Names() {
			t.Errorf("document %d has a label table of its own", i)
		}
	}
}
