package index

import "repro/internal/tree"

// Apply derives the jumping index of a patched document from its parent
// generation's index and the splice Delta, without re-scanning the
// whole document. A subtree patch is one contiguous preorder splice, so
// every row is three stretches: the occurrences before the splice point,
// copied as they lie; the grafted interval's, gathered from the new
// document's labels; and those past the removed interval, shifted chunk
// by chunk (tree.SeqWriter.Append) — a shift moves values across chunk
// lines, and the rows may have a chunk more or fewer than they had.
// #text has no row to derive.
func Apply(old *Index, newDoc *tree.Document, dl *tree.Delta) *Index {
	n := newDoc.NumNodes()
	ix := &Index{doc: newDoc, sigma: newDoc.Names().Size(), chunks: tree.Chunks(n)}
	q, cut, delta := uint32(dl.At), uint32(dl.At)+uint32(dl.Removed), dl.Inserted-dl.Removed
	// Occurrences of the grafted interval [q, q+Inserted), by label (the
	// splice already translated them into the patched label table).
	inserted := make(map[tree.LabelID][]uint32)
	for v := q; v < q+uint32(dl.Inserted); v++ {
		l := newDoc.Label(tree.NodeID(v))
		inserted[l] = append(inserted[l], v)
	}
	// A label's old row is the row of its name: the ids are the same
	// unless the fragment brought names, which take ids among the old
	// ones in the patched table (and have no old row: -1).
	names, oldNames := newDoc.Names(), old.doc.Names()
	oldID := make([]tree.LabelID, ix.sigma)
	for l := range oldID {
		oldID[l] = tree.LabelID(l)
		if names != oldNames {
			if id, ok := oldNames.Lookup(names.Name(tree.LabelID(l))); ok {
				oldID[l] = id
			} else {
				oldID[l] = -1
			}
		}
	}
	w := tree.NewSeqWriter(n-newDoc.TextRank(tree.NodeID(n)), ix.sigma*ix.chunks)
	for l := 0; l < ix.sigma; l++ {
		if tree.LabelID(l) == tree.LabelText {
			continue
		}
		// The removed interval [q, cut) occupies one contiguous run of
		// the row (which is empty for a label the fragment brought).
		base, row := l*ix.chunks, old.Occurrences(oldID[l])
		lo, _ := row.Search(q)
		hi, _ := row.Search(cut)
		w.Append(base, row, 0, lo, 0)
		for _, v := range inserted[tree.LabelID(l)] {
			w.Put(base, v)
		}
		w.Append(base, row, hi, row.Len(), delta)
	}
	ix.occ = w.Done()
	return ix
}
