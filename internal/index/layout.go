package index

import (
	"fmt"

	"repro/internal/tree"
)

// XQO2 sections for the jumping index. The per-label occurrence lists are
// stored as one concatenated preorder array plus a cumulative offset
// directory, so opening a mapped file rebuilds only the sigma slice
// headers — the occurrence data itself is aliased in place. The text
// nodes' list is not among them: it is the document's SecTextNodes,
// stored once and borrowed at open as it is in memory, and its range in
// the directory is empty.
//
// Section kinds 32+ belong to this package (tree owns kinds below 32).
// Kind 34 (version 2's binEnd) is retired and stays reserved.
const (
	SecOccOff uint32 = 32 // []uint64, len sigma+1: cumulative occurrence offsets
	SecOccAll uint32 = 33 // []NodeID: the occurrence lists of all labels but #text, concatenated by label
)

// AddSections serializes ix into w: its own occurrence lists
// concatenated, and the offset directory that cuts them apart again.
func AddSections(w *tree.LayoutWriter, ix *Index) {
	occOff := make([]uint64, 0, len(ix.occ)+1)
	occAll := make([]tree.NodeID, 0, ix.doc.NumNodes()-len(ix.doc.TextNodes()))
	for l, occ := range ix.occ {
		occOff = append(occOff, uint64(len(occAll)))
		if tree.LabelID(l) != tree.LabelText {
			occAll = append(occAll, occ...)
		}
	}
	occOff = append(occOff, uint64(len(occAll)))
	w.Add(SecOccOff, tree.SliceBytes(occOff))
	w.Add(SecOccAll, tree.SliceBytes(occAll))
}

// FromLayout reassembles the index for d from an opened container. Every
// occ[l] is a subslice of the mapped occurrence section; d must be the
// document opened from the same container (the occurrence node ids are
// validated against it).
func FromLayout(l *tree.Layout, d *tree.Document) (*Index, error) {
	n := d.NumNodes()
	sigma := d.Names().Size()
	occOffBytes := l.Section(SecOccOff)
	occOff, err := tree.AliasSlice[uint64](occOffBytes)
	if err != nil {
		return nil, fmt.Errorf("index: xqo2 occ offsets: %w", err)
	}
	if len(occOff) != sigma+1 {
		return nil, fmt.Errorf("index: xqo2: %d occ offsets for %d labels", len(occOff), sigma)
	}
	occAll, err := tree.AliasSlice[tree.NodeID](l.Section(SecOccAll))
	if err != nil {
		return nil, fmt.Errorf("index: xqo2 occurrences: %w", err)
	}
	// Every node occurs exactly once: in the document's list of text
	// nodes, or in one of the lists here.
	texts := d.TextNodes()
	if occOff[sigma] != uint64(len(occAll)) || len(occAll) != n-len(texts) {
		return nil, fmt.Errorf("index: xqo2: %d occurrences for %d nodes, %d of them text", len(occAll), n, len(texts))
	}
	ix := &Index{doc: d, occ: make([][]tree.NodeID, sigma)}
	// Per-label shape checks here are O(sigma): the offset directory must
	// be monotone within bounds, and each non-empty list's head must
	// actually carry the label — a cheap spot check that catches a
	// mis-paired occurrence section. Element-wise validation (every
	// occurrence strictly increasing and in range) is the opt-in
	// VerifyStructure pass; the default open trusts checksummed content.
	for lab := 0; lab < sigma; lab++ {
		lo, hi := occOff[lab], occOff[lab+1]
		if lo > hi || hi > uint64(len(occAll)) {
			return nil, fmt.Errorf("index: xqo2: label %d occ range [%d,%d) invalid", lab, lo, hi)
		}
		if hi > lo {
			if tree.LabelID(lab) == tree.LabelText {
				return nil, fmt.Errorf("index: xqo2: %d text occurrences stored beside the document's list", hi-lo)
			}
			if u := occAll[lo]; u >= 0 && int(u) < n && d.Label(u) != tree.LabelID(lab) {
				return nil, fmt.Errorf("index: xqo2: label %d occurrence list starts at node %d carrying label %d", lab, u, d.Label(u))
			}
		}
		ix.occ[lab] = occAll[lo:hi:hi]
	}
	ix.occ[tree.LabelText] = texts
	return ix, nil
}

// VerifyStructure runs the element-wise validation the zero-copy open
// skips by default: every occurrence list strictly increasing within
// [0, n). See tree.Document.VerifyStructure for the trust model — this
// is the defense for files from outside this process, where a crafted
// value that passes the checksums would otherwise panic a later query.
func (ix *Index) VerifyStructure() error {
	n := ix.doc.NumNodes()
	for lab, occ := range ix.occ {
		// Strictly increasing within [0, n): OR-fold the sign of each
		// step u[i]-u[i-1]-1 (catches non-increase; the first element
		// folds its own sign bit to catch negatives) and AND-fold u-n
		// (clear top bit means some u >= n). Each step only depends on
		// two loads, so the four lanes run independently; re-scan with
		// branches only on failure.
		var b0, b1, b2, b3 uint32
		c0, c1, c2, c3 := ^uint32(0), ^uint32(0), ^uint32(0), ^uint32(0)
		if len(occ) > 0 {
			b0 |= uint32(occ[0])
			c0 &= uint32(occ[0]) - uint32(n)
			i := 1
			for ; i+4 <= len(occ); i += 4 {
				b0 |= uint32(int32(occ[i]) - int32(occ[i-1]) - 1)
				c0 &= uint32(occ[i]) - uint32(n)
				b1 |= uint32(int32(occ[i+1]) - int32(occ[i]) - 1)
				c1 &= uint32(occ[i+1]) - uint32(n)
				b2 |= uint32(int32(occ[i+2]) - int32(occ[i+1]) - 1)
				c2 &= uint32(occ[i+2]) - uint32(n)
				b3 |= uint32(int32(occ[i+3]) - int32(occ[i+2]) - 1)
				c3 &= uint32(occ[i+3]) - uint32(n)
			}
			for ; i < len(occ); i++ {
				b0 |= uint32(int32(occ[i]) - int32(occ[i-1]) - 1)
				c0 &= uint32(occ[i]) - uint32(n)
			}
		}
		if (b0|b1|b2|b3)>>31 != 0 || (len(occ) > 0 && (c0&c1&c2&c3)>>31 == 0) {
			p := -1
			for _, u := range occ {
				if int(u) >= n || int(u) <= p {
					return fmt.Errorf("index: xqo2: label %d occurrence %d invalid", lab, u)
				}
				p = int(u)
			}
		}
	}
	return nil
}
