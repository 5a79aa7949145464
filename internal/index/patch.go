package index

import (
	"sort"

	"repro/internal/tree"
)

// Apply derives the jumping index of a patched document from its parent
// generation's index and the splice Delta, without re-scanning the
// whole document. Occurrence lists are per-label sorted preorder
// arrays, and a subtree patch is one contiguous preorder splice, so
// each list updates with two binary searches plus a shifted copy, and
// nothing else is kept per node. The text nodes' list is not derived
// here: the document's splice already made it, and the index borrows it.
func Apply(old *Index, newDoc *tree.Document, dl *tree.Delta) *Index {
	sigma := newDoc.Names().Size()
	ix := &Index{doc: newDoc, occ: make([][]tree.NodeID, sigma)}
	var (
		q     = dl.At
		cut   = dl.At + tree.NodeID(dl.Removed)
		delta = tree.NodeID(dl.Inserted - dl.Removed)
	)
	// Occurrences of the grafted interval [q, q+Inserted), gathered from
	// the new document's label array (already remapped into the patched
	// label table by the splice).
	var inserted map[tree.LabelID][]tree.NodeID
	if dl.Inserted > 0 {
		inserted = make(map[tree.LabelID][]tree.NodeID)
		for v := q; v < q+tree.NodeID(dl.Inserted); v++ {
			if l := newDoc.Label(v); l != tree.LabelText {
				inserted[l] = append(inserted[l], v)
			}
		}
	}
	for l := 0; l < sigma; l++ {
		if tree.LabelID(l) == tree.LabelText {
			ix.occ[l] = newDoc.TextNodes()
			continue
		}
		var occ []tree.NodeID
		if l < len(old.occ) {
			occ = old.occ[l]
		}
		// The removed interval [q, cut) occupies one contiguous run of
		// each sorted occurrence list.
		lo := sort.Search(len(occ), func(i int) bool { return occ[i] >= q })
		hi := lo + sort.Search(len(occ[lo:]), func(i int) bool { return occ[lo:][i] >= cut })
		ins := inserted[tree.LabelID(l)]
		out := make([]tree.NodeID, 0, lo+len(ins)+len(occ)-hi)
		out = append(out, occ[:lo]...)
		out = append(out, ins...)
		for _, v := range occ[hi:] {
			out = append(out, v+delta)
		}
		ix.occ[l] = out
	}
	return ix
}
