package tree_test

import (
	"strings"
	"testing"

	"repro/internal/tgen"
	"repro/internal/tree"
	"repro/internal/xmark"
)

// concatTexts is the string value as the step-wise evaluator built it
// before StringValue: a text node's own text, else the texts of the
// #text nodes in the subtree, concatenated node by node.
func concatTexts(d *tree.Document, u tree.NodeID) string {
	if d.Label(u) == tree.LabelText {
		return d.Text(u)
	}
	var sb strings.Builder
	for v := u; v <= d.LastDesc(u); v++ {
		if d.Label(v) == tree.LabelText {
			sb.WriteString(d.Text(v))
		}
	}
	return sb.String()
}

// TestStringValueIsTheConcatenation holds StringValue, one slice of the
// text blob, to the node-by-node concatenation on every node of: an
// XMark document; generated documents with attributes (whose values are
// text nodes under "@name" children); documents with empty texts and
// with none at all; and a patched generation, whose blob the splice
// rewrote.
func TestStringValueIsTheConcatenation(t *testing.T) {
	docs := map[string]*tree.Document{
		"xmark":    xmark.Generate(xmark.Config{Scale: 0.01, Seed: 1}),
		"empty":    tree.NewBuilder().MustFinish(),
		"no text":  tgen.Random(1, tgen.Config{MaxNodes: 50}),
		"attrs 1":  tgen.Random(1, tgen.Config{MaxNodes: 300, TextProb: 0.3, AttrProb: 0.5}),
		"attrs 2":  tgen.Random(2, tgen.Config{MaxNodes: 300, TextProb: 0.6, AttrProb: 1}),
		"attrs 3":  tgen.Random(3, tgen.Config{MaxNodes: 300, MaxDepth: 3, TextProb: 0.1, AttrProb: 0.2}),
		"empties":  emptyTexts(),
		"patched":  nil,
		"patched2": nil,
	}
	var err error
	if docs["patched"], _, err = docs["attrs 1"].Apply(tree.Patch{Op: tree.OpInsert, Node: docs["attrs 1"].DocumentElement(), Before: tree.Nil, Frag: emptyTexts()}); err != nil {
		t.Fatal(err)
	}
	if docs["patched2"], _, err = docs["empties"].Apply(tree.Patch{Op: tree.OpDelete, Node: 3, Before: tree.Nil}); err != nil {
		t.Fatal(err)
	}
	for name, d := range docs {
		nonEmpty := 0
		for v := tree.NodeID(0); int(v) < d.NumNodes(); v++ {
			got, want := d.StringValue(v), concatTexts(d, v)
			if got != want {
				t.Fatalf("%s node %d (%s): StringValue %q, concatenation %q", name, v, d.Names().Name(d.Label(v)), got, want)
			}
			if got != "" {
				nonEmpty++
			}
		}
		if name != "empty" && name != "no text" && nonEmpty == 0 {
			t.Errorf("%s: no node has a non-empty string value", name)
		}
	}
	if got := docs["empty"].StringValue(-1) + docs["empty"].StringValue(1); got != "" {
		t.Errorf("nodes out of range: %q", got)
	}
}

// emptyTexts is an element whose text nodes include empty ones, between,
// before and after non-empty ones.
func emptyTexts() *tree.Document {
	b := tree.NewBuilder()
	b.Open("r")
	b.Text("")
	b.Open("a")
	b.Text("")
	b.Text("x")
	b.Close()
	b.Open("b")
	b.Text("")
	b.Close()
	b.Text("yz")
	b.Text("")
	b.Close()
	return b.MustFinish()
}
