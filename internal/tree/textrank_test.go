package tree

import (
	"fmt"
	"testing"
)

// requireTextRanksCounted holds TextRank and NextText to a count of the
// label bytes at every rank: TextRank(v) the #text nodes before v, for v
// up to the node count, and NextText(x) the first after x, for x from
// Nil to the last node.
func requireTextRanksCounted(t *testing.T, what string, d *Document) {
	t.Helper()
	n, count := NodeID(len(d.labels)), 0
	for v := NodeID(0); v <= n; v++ {
		if got := d.TextRank(v); got != count {
			t.Fatalf("%s: TextRank(%d) = %d, the labels count %d", what, v, got, count)
		}
		if v < n && d.labels[v] == byte(LabelText) {
			count++
		}
	}
	next := Nil
	for x := n - 1; x >= Nil; x-- {
		if got := d.NextText(x); got != next {
			t.Fatalf("%s: NextText(%d) = %d, the labels say %d", what, x, got, next)
		}
		if x >= 0 && d.labels[x] == byte(LabelText) {
			next = x
		}
	}
	if got := d.NextText(n); got != Nil {
		t.Fatalf("%s: NextText(%d), past the last node, = %d", what, n, got)
	}
}

// blockEdges are the ranks around the first three lines of textBlock
// ranks.
var blockEdges = []NodeID{1022, 1023, 1024, 1025, 2046, 2047, 2048, 2049, 3071, 3072, 3073}

// groupedTexts builds n nodes: the root element r over groups g of 15
// leaves each (the last group shorter), each leaf a text node if its
// rank is one of blockEdges or a multiple of 5, else an empty element e.
func groupedTexts(n int) *Document {
	b := NewBuilder()
	b.Open("r")
	text := make(map[NodeID]bool, len(blockEdges))
	for _, v := range blockEdges {
		text[v] = true
	}
	for v := NodeID(2); int(v) < n; v++ {
		switch {
		case (v-2)%16 == 0:
			if v > 2 {
				b.Close()
			}
			b.Open("g")
		case text[v] || v%5 == 0:
			b.Text(fmt.Sprint(v))
		default:
			b.Open("e")
			b.Close()
		}
	}
	if n > 2 {
		b.Close()
	}
	b.Close()
	return b.MustFinish()
}

// TestTextRankIsTheCount: on documents whose node count ends just
// before, on and just after a line of 1 024 ranks, with text nodes at
// and around every line, built and opened from their sections, the
// text rank of every node is the count of #text labels before it and
// the scan finds every next one; and so after every patch whose splice
// crosses a line — a group across it deleted, replaced and grafted
// before, and a fragment longer than a whole block grafted — compared
// with the document Join builds of the patched tree.
func TestTextRankIsTheCount(t *testing.T) {
	for _, n := range []int{textBlock - 1, textBlock, textBlock + 1, 2*textBlock - 1, 2 * textBlock, 2*textBlock + 1, 3*textBlock + 2} {
		d := groupedTexts(n)
		if d.NumNodes() != n {
			t.Fatalf("built %d nodes, want %d", d.NumNodes(), n)
		}
		requireTextRanksCounted(t, fmt.Sprintf("%d nodes, built", n), d)
		requireTextRanksCounted(t, fmt.Sprintf("%d nodes, at rest", n), atRest(t, d))
	}

	d := groupedTexts(3*textBlock + 2)
	small := docOf("f", "#s1", "e", "#s2", "/", "#s3", "/")
	long := NewBuilder()
	long.Open("f")
	for i := 0; i < textBlock+50; i++ {
		if i%2 == 0 {
			long.Text("l")
		} else {
			long.Open("e")
			long.Close()
		}
	}
	long.Close()
	frags := []*Document{small, long.MustFinish()}
	patches := 0
	for _, edge := range []NodeID{textBlock, 2 * textBlock, 3 * textBlock} {
		// The groups around the line: the one across it and its two
		// neighbours on either side.
		across := (edge-2)/16*16 + 2
		for g := across - 32; g <= across+32 && int(g) < d.NumNodes(); g += 16 {
			pts := []Patch{{Op: OpDelete, Node: g, Before: Nil}}
			for _, frag := range frags {
				pts = append(pts,
					Patch{Op: OpReplace, Node: g, Before: Nil, Frag: frag},
					Patch{Op: OpInsert, Node: d.DocumentElement(), Before: g, Frag: frag},
					Patch{Op: OpInsert, Node: g, Before: Nil, Frag: frag})
			}
			for _, pt := range pts {
				next, _, err := d.Apply(pt)
				if err != nil {
					t.Fatalf("%s of node %d: %v", pt.Op, pt.Node, err)
				}
				what := fmt.Sprintf("%s of node %d", pt.Op, pt.Node)
				if pt.Frag != nil {
					what += fmt.Sprintf(" (a fragment of %d nodes)", pt.Frag.NumNodes())
				}
				requireTextRanksCounted(t, what, next)
				requireEqualDocs(t, patches, next, relink(next.names, next))
				patches++
			}
		}
	}
}
