package tree

import "repro/internal/bp"

// Succinct is a balanced-parentheses view of a document's topology. It
// stores no pointers — navigation is answered from the 2n-bit parenthesis
// sequence of internal/bp — and reproduces the paper's use of succinct
// trees [18] as the memory-frugal backend. The engine uses the flat
// arrays of Document, and no load, save, open or patch builds this view:
// it is an independent oracle the tests hold those arrays to, and
// cmd/xpqbench times its build and splice.
type Succinct struct {
	bt  *bp.Tree
	doc *Document
}

// NewSuccinct builds the parenthesis representation of d's topology:
// each rank opens in turn, followed by a close for every subtree that
// ends there, innermost first. The stack holds where the open subtrees
// end, so a node costs one LastDesc.
func NewSuccinct(d *Document) *Succinct {
	b := bp.NewBuilder(d.NumNodes())
	var ends []NodeID
	for v, n := NodeID(0), NodeID(d.NumNodes()); v < n; v++ {
		b.Open()
		if last := d.LastDesc(v); last > v {
			ends = append(ends, last)
			continue
		}
		b.Close()
		for len(ends) > 0 && ends[len(ends)-1] == v {
			ends = ends[:len(ends)-1]
			b.Close()
		}
	}
	return &Succinct{bt: b.Build(), doc: d}
}

// SpliceSuccinct derives the balanced-parentheses view of a patched
// document from its parent generation's view: the removed subtree is
// one matched parenthesis pair, so the patch is a single bit-range
// splice (bp.Tree.Splice) — the grafted fragment's sequence drops in
// where the removed pair came out. newDoc must be the document Delta
// describes (the result of Document.Apply).
func SpliceSuccinct(old *Succinct, newDoc *Document, dl *Delta) *Succinct {
	bt := old.bt
	var at, del int
	switch {
	case dl.Removed > 0:
		at = bt.OpenPos(int(dl.At))
		del = bt.FindClose(at) + 1 - at
	case dl.Before != Nil:
		// Insert-before: the fragment's bits go where Before's open
		// parenthesis sits, pushing Before's pair right.
		at = bt.OpenPos(int(dl.Before))
	default:
		// Append: just inside the parent's closing parenthesis.
		at = bt.FindClose(bt.OpenPos(int(dl.Parent)))
	}
	var ins []bool
	if dl.Inserted > 0 {
		ins = make([]bool, 0, 2*dl.Inserted)
		// The fragment element's sequence, in NewSuccinct's order; the
		// closes stop at r, above which is only the fragment's #doc.
		f, r := dl.Frag, dl.Frag.DocumentElement()
		for v, end := r, f.LastDesc(r); v <= end; v++ {
			ins = append(ins, true)
			for u := v; u >= r && f.LastDesc(u) == v; u = f.Parent(u) {
				ins = append(ins, false)
			}
		}
	}
	return &Succinct{bt: bt.Splice(at, del, ins), doc: newDoc}
}

// Excess exposes the underlying parenthesis excess (opens minus closes
// in the prefix of length i+1); the mutation property tests compare it
// against a from-scratch rebuild.
func (s *Succinct) Excess(i int) int { return s.bt.Excess(i) }

// OpenPos returns the bit position of v's open parenthesis.
func (s *Succinct) OpenPos(v NodeID) int { return s.bt.OpenPos(int(v)) }

// NumNodes reports the number of nodes.
func (s *Succinct) NumNodes() int { return s.bt.NumNodes() }

// Parent returns v's parent, or Nil.
func (s *Succinct) Parent(v NodeID) NodeID { return NodeID(s.bt.Parent(int(v))) }

// FirstChild returns v's first child, or Nil.
func (s *Succinct) FirstChild(v NodeID) NodeID { return NodeID(s.bt.FirstChild(int(v))) }

// NextSibling returns v's next sibling, or Nil.
func (s *Succinct) NextSibling(v NodeID) NodeID { return NodeID(s.bt.NextSibling(int(v))) }

// LastDesc returns the last preorder node of v's subtree.
func (s *Succinct) LastDesc(v NodeID) NodeID { return NodeID(s.bt.LastDescendant(int(v))) }

// Depth returns v's depth (root = 0).
func (s *Succinct) Depth(v NodeID) int { return s.bt.Depth(int(v)) }

// LCA returns the lowest common ancestor of u and v.
func (s *Succinct) LCA(u, v NodeID) NodeID { return NodeID(s.bt.LCA(int(u), int(v))) }

// Label returns the label of v (delegated to the document's label array;
// labels are not part of the parenthesis sequence).
func (s *Succinct) Label(v NodeID) LabelID { return s.doc.Label(v) }
