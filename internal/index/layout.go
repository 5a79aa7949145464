package index

import (
	"fmt"

	"repro/internal/tree"
)

// XQO2 sections for the jumping index: the occurrence table as it lies
// in memory, the halves of every row in one array and the label-major
// directory of chunk starts, so opening a mapped file aliases both in
// place and builds nothing per label. #text has no row: its chunks in the
// directory are empty, and the document's label bytes list those nodes.
//
// Section kinds 32+ belong to this package (tree owns kinds below 32).
// Kind 34 (version 2's binEnd) is retired and stays reserved.
const (
	SecOccOff uint32 = 32 // []uint32, len sigma*chunks+1: where the occurrences of each (label, rank>>16) start in SecOccAll
	SecOccAll uint32 = 33 // []uint16: the halves of the occurrences of all labels but #text, label after label
)

// AddSections serializes ix into w: its table's two arrays.
func AddSections(w *tree.LayoutWriter, ix *Index) {
	w.Add(SecOccOff, tree.SliceBytes(ix.occ.Start))
	w.Add(SecOccAll, tree.SliceBytes(ix.occ.Lo))
}

// FromLayout reassembles the index for d from an opened container,
// aliasing the mapped sections; d must be the document opened from the
// same container. What is checked is the directory, in O(sigma × chunks):
// its length, that it never decreases, and that it ends where the halves
// do — every node but the #text ones, which the document counts, occurs
// exactly once in one of the rows here, where the text label's stays
// empty.
// That each row is the inverse of the document's labels is the opt-in
// VerifyStructure pass; the default open trusts checksummed content.
func FromLayout(l *tree.Layout, d *tree.Document) (*Index, error) {
	ix := &Index{doc: d, sigma: d.Names().Size(), chunks: tree.Chunks(d.NumNodes())}
	texts := d.TextRank(tree.NodeID(d.NumNodes()))
	var err error
	if ix.occ, err = tree.SeqFromLayout(l, SecOccAll, SecOccOff, d.NumNodes()-texts, ix.sigma*ix.chunks); err != nil {
		return nil, fmt.Errorf("index: xqo2 occurrences of %d nodes, %d of them text: %w", d.NumNodes(), texts, err)
	}
	if k := int(tree.LabelText) * ix.chunks; ix.occ.Start[k] != ix.occ.Start[k+ix.chunks] {
		return nil, fmt.Errorf("index: xqo2: text occurrences stored beside the document's row")
	}
	return ix, nil
}

// VerifyStructure runs the element-wise validation the zero-copy open
// skips by default: the index is the exact inverse of the document's
// labels — every row strictly increasing within [0, n) and holding only
// nodes that carry its label, which with one entry per node but the
// #text ones in all (the open checked the count) makes every such node
// occur in its label's row and nowhere else. See
// tree.Document.VerifyStructure for the trust model — this is the defense
// for files from outside this process, where a crafted value that passes
// the checksums would otherwise make a later query answer wrongly.
func (ix *Index) VerifyStructure() error {
	n := ix.doc.NumNodes()
	for l := tree.LabelID(0); int(l) < ix.sigma; l++ {
		if l == tree.LabelText {
			continue
		}
		prev := -1
		for u := range ix.Occurrences(l).From(0) {
			v := int(u)
			if v <= prev || v >= n || ix.doc.Label(tree.NodeID(v)) != l {
				return fmt.Errorf("index: xqo2: label %d occurrence %d invalid", l, v)
			}
			prev = v
		}
	}
	return nil
}
