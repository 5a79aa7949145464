package xmlparse_test

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/index"
	"repro/internal/tgen"
	"repro/internal/tree"
	"repro/internal/xmark"
	"repro/internal/xmlparse"
)

func mustParse(t *testing.T, src string) *tree.Document {
	t.Helper()
	d, err := xmlparse.ParseString(src)
	if err != nil {
		t.Fatalf("ParseString(%q): %v", src, err)
	}
	return d
}

func TestMinimal(t *testing.T) {
	d := mustParse(t, "<a/>")
	if d.NumNodes() != 2 {
		t.Fatalf("NumNodes = %d, want 2", d.NumNodes())
	}
	if d.LabelName(d.DocumentElement()) != "a" {
		t.Errorf("root element = %q", d.LabelName(d.DocumentElement()))
	}
}

func TestNested(t *testing.T) {
	d := mustParse(t, "<a><b><c/></b><b/></a>")
	a := d.DocumentElement()
	b1 := d.FirstChild(a)
	c := d.FirstChild(b1)
	b2 := d.NextSibling(b1)
	if d.LabelName(b1) != "b" || d.LabelName(c) != "c" || d.LabelName(b2) != "b" {
		t.Errorf("structure wrong: %s %s %s", d.LabelName(b1), d.LabelName(c), d.LabelName(b2))
	}
	if d.NextSibling(b2) != tree.Nil {
		t.Errorf("unexpected extra sibling")
	}
}

func TestText(t *testing.T) {
	d := mustParse(t, "<a>hello <b>world</b>!</a>")
	a := d.DocumentElement()
	t1 := d.FirstChild(a)
	if d.Label(t1) != tree.LabelText || d.Text(t1) != "hello " {
		t.Errorf("first text node: %q", d.Text(t1))
	}
	b := d.NextSibling(t1)
	if d.LabelName(b) != "b" {
		t.Errorf("expected b element")
	}
	t2 := d.NextSibling(b)
	if d.Text(t2) != "!" {
		t.Errorf("trailing text: %q", d.Text(t2))
	}
}

func TestWhitespaceOnlyTextDropped(t *testing.T) {
	d := mustParse(t, "<a>\n  <b/>\n</a>")
	a := d.DocumentElement()
	b := d.FirstChild(a)
	if d.LabelName(b) != "b" || d.NextSibling(b) != tree.Nil {
		t.Errorf("whitespace-only text should be dropped")
	}
}

func TestAttributes(t *testing.T) {
	d := mustParse(t, `<a x="1" y='two'><b z="3"/></a>`)
	a := d.DocumentElement()
	x := d.FirstChild(a)
	if d.LabelName(x) != "@x" {
		t.Fatalf("first child = %q, want @x", d.LabelName(x))
	}
	if d.Text(d.FirstChild(x)) != "1" {
		t.Errorf("@x value = %q", d.Text(d.FirstChild(x)))
	}
	y := d.NextSibling(x)
	if d.LabelName(y) != "@y" || d.Text(d.FirstChild(y)) != "two" {
		t.Errorf("@y wrong")
	}
	b := d.NextSibling(y)
	z := d.FirstChild(b)
	if d.LabelName(z) != "@z" || d.Text(d.FirstChild(z)) != "3" {
		t.Errorf("@z wrong")
	}
}

func TestEntities(t *testing.T) {
	d := mustParse(t, `<a p="&lt;&amp;&gt;">&lt;x&gt; &#65;&#x42;</a>`)
	a := d.DocumentElement()
	p := d.FirstChild(a)
	if got := d.Text(d.FirstChild(p)); got != "<&>" {
		t.Errorf("attr entities = %q, want <&>", got)
	}
	txt := d.NextSibling(p)
	if got := d.Text(txt); got != "<x> AB" {
		t.Errorf("text entities = %q, want %q", got, "<x> AB")
	}
}

func TestCDATA(t *testing.T) {
	d := mustParse(t, "<a><![CDATA[<raw> & text]]></a>")
	a := d.DocumentElement()
	if got := d.Text(d.FirstChild(a)); got != "<raw> & text" {
		t.Errorf("CDATA = %q", got)
	}
}

func TestCommentsAndPIs(t *testing.T) {
	d := mustParse(t, `<?xml version="1.0"?><!-- top --><a><!-- in --><b/><?pi data?></a><!-- after -->`)
	a := d.DocumentElement()
	b := d.FirstChild(a)
	if d.LabelName(b) != "b" || d.NextSibling(b) != tree.Nil {
		t.Errorf("comments/PIs should be invisible")
	}
}

func TestDoctypeSkipped(t *testing.T) {
	d := mustParse(t, `<!DOCTYPE a SYSTEM "a.dtd" [<!ELEMENT a ANY>]><a/>`)
	if d.LabelName(d.DocumentElement()) != "a" {
		t.Errorf("DOCTYPE not skipped correctly")
	}
}

func TestErrors(t *testing.T) {
	bad := []string{
		"",
		"<a>",
		"<a></b>",
		"<a",
		"<a x=1/>",
		`<a x="1/>`,
		"<a/><b/>",
		"plain text",
		"<a><!-- unterminated</a>",
		"<a><![CDATA[x</a>",
		"<1abc/>",
	}
	for _, src := range bad {
		if _, err := xmlparse.ParseString(src); err == nil {
			t.Errorf("ParseString(%q) succeeded, want error", src)
		}
	}
	// Errors carry offsets.
	_, err := xmlparse.ParseString("<a></b>")
	var se *xmlparse.SyntaxError
	if !asSyntaxError(err, &se) {
		t.Fatalf("error type = %T", err)
	}
	if se.Offset <= 0 || !strings.Contains(se.Error(), "mismatched") {
		t.Errorf("unhelpful error: %v", se)
	}
}

func asSyntaxError(err error, out **xmlparse.SyntaxError) bool {
	se, ok := err.(*xmlparse.SyntaxError)
	if ok {
		*out = se
	}
	return ok
}

func TestNameCharacters(t *testing.T) {
	d := mustParse(t, `<ns:el-em.2 ns:at-tr="v"/>`)
	if d.LabelName(d.DocumentElement()) != "ns:el-em.2" {
		t.Errorf("name = %q", d.LabelName(d.DocumentElement()))
	}
}

// TestRoundTripAttributes: WriteXML puts an element's "@name" children
// back into its start tag, so a document with attributes re-parses to
// the same tree.
func TestRoundTripAttributes(t *testing.T) {
	const src = `<r a="1" b="x &amp; &quot;y&quot; &lt;"><c empty=""><d></d></c>t</r>`
	d := mustParse(t, src)
	if got := d.XMLString(); got != src {
		t.Errorf("serialized %s, want %s", got, src)
	}
}

// Property: serialize∘parse is the identity on generated documents.
func TestRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		d := tgen.Random(seed, tgen.Config{MaxNodes: 120, TextProb: 0.25})
		if d.DocumentElement() == tree.Nil {
			return true // empty doc serializes to nothing parseable
		}
		src := d.XMLString()
		d2, err := xmlparse.ParseString(src)
		if err != nil {
			return false
		}
		return d2.XMLString() == src
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestDeepNesting: nesting depth is bounded by memory, not by the
// goroutine stack. The recursive parser this kernel replaced died with
// "fatal error: stack overflow" — which no recover() contains — a little
// past five million levels.
func TestDeepNesting(t *testing.T) {
	const depth = 2_000_000
	src := strings.Repeat("<a>", depth) + strings.Repeat("</a>", depth)
	d := mustParse(t, src)
	if d.NumNodes() != depth+1 {
		t.Errorf("NumNodes = %d, want %d", d.NumNodes(), depth+1)
	}
	if last := tree.NodeID(depth); d.Depth(last) != depth || d.LastDesc(d.DocumentElement()) != last {
		t.Errorf("innermost element: depth %d, want %d", d.Depth(last), depth)
	}

	const unclosed = 6_000_000
	_, err := xmlparse.ParseString(strings.Repeat("<a>", unclosed))
	var se *xmlparse.SyntaxError
	if !errors.As(err, &se) || se.Offset != 3*unclosed || se.Msg != "missing end tag </a>" {
		t.Errorf("%d unclosed levels: err = %v, want a SyntaxError at the end of the source", unclosed, err)
	}
}

// xmarkXML is the XML text of an XMark document.
func xmarkXML(scale float64) []byte {
	return []byte(xmark.Generate(xmark.Config{Scale: scale, Seed: 1}).XMLString())
}

// TestParseAllocations pins the parse by counts, not clocks: a handful
// of allocations per document (the chunk's scratch, the document's
// arrays) plus the label table's strings and map growth — none per
// element, attribute or text node.
func TestParseAllocations(t *testing.T) {
	src := xmarkXML(0.01)
	d, err := xmlparse.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	limit := float64(64 + 2*d.Names().Size())
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := xmlparse.Parse(src); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%d nodes, %d labels: %.0f allocations per Parse (limit %.0f)", d.NumNodes(), d.Names().Size(), allocs, limit)
	if allocs > limit {
		t.Errorf("%.0f allocations per Parse of %d nodes, want at most %.0f", allocs, d.NumNodes(), limit)
	}
}

// BenchmarkParse parses the XML of an XMark 0.05 document, the size the
// benchmark's patch-mix workload preloads eight of.
func BenchmarkParse(b *testing.B) {
	src := xmarkXML(0.05)
	b.SetBytes(int64(len(src)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := xmlparse.Parse(src); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLoad times what loading an XML document costs before its
// first query: the parse and the jumping index over the result. XMark
// 0.05 (1.5 MB) is one chunk, the size patch-mix preloads eight of;
// XMark 0.5 (15.6 MB) is paper-mix's document, cut into a chunk per
// processor.
func BenchmarkLoad(b *testing.B) {
	for _, scale := range []float64{0.05, 0.5} {
		b.Run(fmt.Sprintf("xmark=%g", scale), func(b *testing.B) {
			src := xmarkXML(scale)
			b.SetBytes(int64(len(src)))
			b.ReportAllocs()
			for b.Loop() {
				d, err := xmlparse.Parse(src)
				if err != nil {
					b.Fatal(err)
				}
				index.New(d)
			}
		})
	}
}
