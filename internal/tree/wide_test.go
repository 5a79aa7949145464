package tree_test

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/tgen"
	"repro/internal/tree"
)

// TestBothSidesOfTheLine: the two shapes that put nodes past what up's
// and size's 8 bits hold, built and opened from their sections. A fan of
// 70 000 leaves has two wide nodes (the root and the element) and all
// but its first 254 leaves far from their parent; a chain 70 000 deep has
// every node above the last 255 wide, each entry inside the one before
// it, and no parent further than the rank before.
// Each is the document the reference builder makes of the same events,
// array for array and move for move (BinEnd and every node's parent
// included), is walked in preorder by FirstChild and NextSibling alone,
// and its deepest or last node walks up to the root.
func TestBothSidesOfTheLine(t *testing.T) {
	const fanout = 70000
	for name, tc := range map[string]struct {
		doc       *tree.Document
		wide, far int
	}{
		"fan":   {tgen.Star("r", "e", fanout), 2, fanout + 2 - (tree.Big + 1)},
		"chain": {tgen.Chain("a", fanout), fanout + 1 - tree.Big, 0},
	} {
		for origin, d := range map[string]*tree.Document{"built": tc.doc, "at rest": tree.AtRest(t, tc.doc)} {
			what := name + ", " + origin
			if got := len(d.WideNodes()); got != tc.wide {
				t.Errorf("%s: %d wide nodes, want %d", what, got, tc.wide)
			}
			if got := d.FarParents(); got != tc.far {
				t.Errorf("%s: %d nodes far from their parent, want %d", what, got, tc.far)
			}
			tree.RequireMatchesReference(t, what, d)
			tree.RequireSameTopology(t, what, d, tc.doc)
			requirePreorderWalk(t, what, d)
			last := tree.NodeID(d.NumNodes() - 1)
			steps := 0
			for v := last; v != d.Root(); v = d.Parent(v) {
				if steps++; v <= 0 || v > last || steps > d.NumNodes() {
					t.Fatalf("%s: the parent walk from node %d does not reach the root", what, last)
				}
			}
			if want := d.Depth(last); steps != want {
				t.Errorf("%s: %d steps from node %d to the root, Depth says %d", what, steps, last, want)
			}
		}
	}
}

// requirePreorderWalk visits d by the two moves alone — down if
// possible, else to the next sibling of the nearest ancestor-or-self
// that has one — and requires every rank once, in order.
func requirePreorderWalk(t *testing.T, what string, d *tree.Document) {
	t.Helper()
	visited, v := tree.NodeID(0), d.Root()
	for v != tree.Nil {
		if v != visited {
			t.Fatalf("%s: the preorder walk reaches node %d as its %dth", what, v, visited)
		}
		visited++
		next := d.FirstChild(v)
		for next == tree.Nil && v != tree.Nil {
			if next = d.NextSibling(v); next == tree.Nil {
				v = d.Parent(v)
			}
		}
		v = next
	}
	if int(visited) != d.NumNodes() {
		t.Fatalf("%s: the preorder walk visits %d of %d nodes", what, visited, d.NumNodes())
	}
}

// TestParentUnderManyWideSiblings: 300 sibling subtrees of 303 nodes
// under one parent, each three wide nodes deep (s over t over u over 300
// leaves), so that the table holds 902 entries and every s from the
// second on is far from the parent, as are the last 46 leaves of every u. Its up escape is answered by one
// binary search and a climb out of the sibling before it — u, t, s, then
// the parent: three hops, the depth of the nesting — not by a walk back
// over the entries of all the siblings before; counted, not timed.
func TestParentUnderManyWideSiblings(t *testing.T) {
	const siblings, leaves = 300, 300
	b := tree.NewBuilder()
	b.Open("r")
	for i := 0; i < siblings; i++ {
		b.Open("s")
		b.Open("t")
		b.Open("u")
		for j := 0; j < leaves; j++ {
			b.Open("e")
			b.Close()
		}
		b.Close()
		b.Close()
		b.Close()
	}
	b.Close()
	built := b.MustFinish()
	for origin, d := range map[string]*tree.Document{"built": built, "at rest": tree.AtRest(t, built)} {
		if got := len(d.WideNodes()); got != 2+3*siblings {
			t.Fatalf("%s: %d wide nodes, want %d", origin, got, 2+3*siblings)
		}
		r, far := d.DocumentElement(), 0
		for s := d.FirstChild(r); s != tree.Nil; s = d.NextSibling(s) {
			if s-r >= tree.Big {
				far++
			}
			p, hops := d.WideParentHops(s)
			if p != r || d.Parent(s) != r || hops > 3 {
				t.Fatalf("%s: the table puts node %d under %d after %d hops, Parent under %d; want %d within 3", origin, s, p, hops, d.Parent(s), r)
			}
			// One level down the entry before is s itself, which holds t.
			if p, hops := d.WideParentHops(s + 1); p != s || hops != 0 {
				t.Fatalf("%s: the table puts node %d under %d after %d hops, want %d after none", origin, s+1, p, hops, s)
			}
		}
		// The leaves of each u from the 255th on are that far from it too.
		if got, want := d.FarParents(), far+siblings*(leaves-(tree.Big-1)); got != want || far == 0 {
			t.Fatalf("%s: %d nodes hold an up escape, want %d: %d children that far from node %d, and u's last leaves", origin, got, want, far, r)
		}
	}
}

// threeOfEach is a document of the given number of names (#doc, #text, r
// and n0, n1, ...): three nodes of each n-name under r, and a text under
// every other.
func threeOfEach(names int) *tree.Document {
	b := tree.NewBuilder()
	b.Open("r")
	for round := 0; round < 3; round++ {
		for i := 0; i < names-3; i++ {
			b.Open(fmt.Sprint("n", i))
			if i%2 == round%2 {
				b.Text(fmt.Sprint(round, ".", i))
			}
			b.Close()
		}
	}
	b.Close()
	return b.MustFinish()
}

// rareNodes lists d's nodes as rare lists them.
func rareNodes(d *tree.Document) []tree.NodeID {
	rare, _ := d.Rare()
	var got []tree.NodeID
	for u := range rare.From(0) {
		got = append(got, tree.NodeID(u))
	}
	return got
}

// TestPatchPushesAnOldNamePastTheByte pins what canonical ids cost a
// wide document: a patch that brings one name sorting before the others
// ("a" before every n-name) moves every later name's id up by one, so the
// name that held id 254 now holds 255 and its three nodes join rare —
// 4 bytes each and a search per Label — though no node of it changed.
// The patched generation's rare list is exactly its nodes of id 255 or
// more, as a rebuild from the same events would list them.
func TestPatchPushesAnOldNamePastTheByte(t *testing.T) {
	d := threeOfEach(300)
	pushed := d.Names().Name(tree.RareLabel - 1)
	b := tree.NewBuilder()
	b.Open("a")
	b.Close()
	next, _, err := d.Apply(tree.Patch{Op: tree.OpInsert, Node: d.DocumentElement(), Before: tree.Nil, Frag: b.MustFinish()})
	if err != nil {
		t.Fatal(err)
	}
	if id, _ := next.Names().Lookup(pushed); id != tree.RareLabel {
		t.Fatalf("%s holds id %d after the patch, want %d", pushed, id, tree.RareLabel)
	}
	before, after := len(rareNodes(d)), len(rareNodes(next))
	if before != 3*(300-tree.RareLabel-1)+1 || after != before+3 {
		t.Fatalf("%d nodes rare before the patch and %d after, want %d and %d", before, after, 3*(300-tree.RareLabel-1)+1, 3*(300-tree.RareLabel-1)+4)
	}
	var want []tree.NodeID
	for v := tree.NodeID(0); int(v) < next.NumNodes(); v++ {
		if next.Label(v) >= tree.RareLabel {
			want = append(want, v)
		}
	}
	if got := rareNodes(next); !slices.Equal(got, want) {
		t.Fatalf("rare lists %v, want %v", got, want)
	}
	tree.RequireMatchesReference(t, "patched", next)
}

// TestLabelsOnBothSidesOfTheByte: a document of 300 names, three nodes of
// each and a text under every other, built and opened from its sections.
// The nodes whose id is 255 or more — the three of each of the last 44
// n-names in byte order, and the document element, whose "r" sorts after
// them all — and no others are listed as rare, in
// order, with their ids; Label, CountLabel and the serialized form read
// through the list; the arrays hold no spare capacity; and everything is
// what the reference builder makes of the same events. A document of 255
// names lists none.
func TestLabelsOnBothSidesOfTheByte(t *testing.T) {
	for names, rares := range map[int]int{tree.RareLabel: 0, 300: 3*(300-tree.RareLabel-1) + 1} {
		built := threeOfEach(names)
		if built.Names().Size() != names {
			t.Fatalf("%d names, want %d", built.Names().Size(), names)
		}
		for origin, d := range map[string]*tree.Document{"built": built, "at rest": tree.AtRest(t, built)} {
			what := fmt.Sprint(names, " names, ", origin)
			var want []tree.NodeID
			var wantIDs []uint16
			for v := tree.NodeID(0); int(v) < d.NumNodes(); v++ {
				id, ok := d.Names().Lookup(built.LabelName(v))
				if !ok || d.Label(v) != id {
					t.Fatalf("%s: node %d is labelled %d, want %s = %d", what, v, d.Label(v), built.LabelName(v), id)
				}
				if id >= tree.RareLabel {
					want, wantIDs = append(want, v), append(wantIDs, uint16(id))
				}
			}
			_, gotIDs := d.Rare()
			got := rareNodes(d)
			if len(got) != rares || !slices.Equal(got, want) || !slices.Equal(gotIDs, wantIDs) {
				t.Fatalf("%s: %d nodes listed as rare, want %d:\n%v %v\n%v %v", what, len(got), rares, got, gotIDs, want, wantIDs)
			}
			for _, l := range []tree.LabelID{tree.LabelText, 2, tree.RareLabel - 1, tree.RareLabel, tree.LabelID(names - 1)} {
				if int(l) >= names {
					continue
				}
				if d.CountLabel(l) != built.CountLabel(l) || built.CountLabel(l) == 0 {
					t.Fatalf("%s: %d nodes labelled %d, built %d", what, d.CountLabel(l), l, built.CountLabel(l))
				}
			}
			if d.XMLString() != built.XMLString() {
				t.Fatalf("%s: serialized otherwise than the built document", what)
			}
			tree.RequireMatchesReference(t, what, d)
			if origin == "built" && d.SpareCapacity() != 0 {
				t.Errorf("%s: %d bytes of capacity beyond the arrays' lengths", what, d.SpareCapacity())
			}
		}
	}
}
