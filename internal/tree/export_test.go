package tree

import (
	"slices"
	"testing"
)

// SpareCapacity reports how many bytes d's arrays and text blob hold
// beyond their lengths.
func (d *Document) SpareCapacity() int {
	return cap(d.labels) - len(d.labels) + cap(d.up) - len(d.up) + cap(d.size) - len(d.size) +
		2*(cap(d.rareIDs)-len(d.rareIDs)) +
		12*(cap(d.wide)-len(d.wide)) +
		4*(cap(d.textBefore)-len(d.textBefore)) + d.rare.spare() + d.textOff.spare() +
		cap(d.textBlob) - len(d.textBlob)
}

func (s Seq) spare() int {
	return 2*(cap(s.Lo)-len(s.Lo)) + 4*(cap(s.Start)-len(s.Start))
}

// Big is the distance from which up holds an escape, and the length
// from which size does.
const Big = big

// WideParentHops answers Parent(v) from the wide table, whatever up
// holds, and reports how many entries the lookup climbed over after its
// binary search.
func (d *Document) WideParentHops(v NodeID) (NodeID, int) {
	i, hops := d.wideAround(v)
	if i < 0 {
		return Nil, hops
	}
	return d.wide[i].node, hops
}

// WideNodes returns the nodes listed in d's wide table.
func (d *Document) WideNodes() []NodeID {
	nodes := make([]NodeID, len(d.wide))
	for i, s := range d.wide {
		nodes[i] = s.node
	}
	return nodes
}

// FarParents counts the nodes whose up is an escape.
func (d *Document) FarParents() int {
	far := 0
	for _, u := range d.up {
		if u == Big {
			far++
		}
	}
	return far
}

// RequireSameTopology compares the stored topology of two documents —
// up, size and wide, the entry around each entry included, element for
// element. Held against a document Join
// built from the same tree, it proves a spliced or opened one canonical:
// no stale escape, no orphan wide entry, no distance stored the long way.
func RequireSameTopology(t *testing.T, what string, got, want *Document) {
	t.Helper()
	if !slices.Equal(got.up, want.up) {
		t.Fatalf("%s: up differs from the built document's (first at node %d)", what, firstDiff(got.up, want.up))
	}
	if !slices.Equal(got.size, want.size) {
		t.Fatalf("%s: size differs from the built document's (first at node %d)", what, firstDiff(got.size, want.size))
	}
	if !slices.Equal(got.wide, want.wide) {
		t.Fatalf("%s: wide = %v, the built document's %v", what, got.wide, want.wide)
	}
}

func firstDiff[T comparable](a, b []T) int {
	for i := range a {
		if i >= len(b) || a[i] != b[i] {
			return i
		}
	}
	return len(a)
}

// RequireMatchesReference is the reference builder's check and AtRest
// the trip through the XQO2 sections (see reference_test.go) for the
// tests outside the package, which can import the generators.
var (
	RequireMatchesReference = requireMatchesReference
	AtRest                  = atRest
)
