package tree_test

import (
	"testing"

	"repro/internal/tgen"
	"repro/internal/tree"
)

// TestBothSidesOfTheLine: the two shapes that put nodes past what 16
// bits hold, built and opened from their sections. A fan of 70 000
// leaves has two wide nodes (the root and the element) and its last
// 4 466 leaves far from their parent; a chain 70 000 deep has every node
// above the last 65 535 wide and no parent further than the rank before.
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
		"fan":   {tgen.Star("r", "e", fanout), 2, fanout + 2 - (tree.Far + 1)},
		"chain": {tgen.Chain("a", fanout), fanout + 1 - tree.Far, 0},
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
