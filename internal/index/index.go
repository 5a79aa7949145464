// Package index implements the jumping tree index of §3.1.2 (Definition
// 3.2): given a document, it answers for any node π and finite label set L
//
//	Dt(π, L)      — first binary-tree descendant of π with label in L,
//	Ft(π, L, π0)  — first following node of π inside π0's binary subtree,
//	Lt(π, L)      — first labeled node on the leftmost binary path below π,
//	Rt(π, L)      — first labeled node on the rightmost binary path below π,
//
// plus O(1) global label counts. Ft has no function of its own: its one
// use, stepping from one top-most labeled node to the next, is the loop
// of TopMost (and of the ASTA evaluator over its Cursors).
//
// All functions are over the first-child/next-sibling *binary* view of the
// document, because that is the tree the automata run on: the binary
// subtree of a node v is the contiguous preorder interval
// [v, LastDesc(Parent(v))] — v's own XML subtree plus everything under its
// following siblings. This interval property is what lets per-label sorted
// occurrence arrays answer Dt/Ft with one binary search per label in L,
// the Go stand-in for the paper's compressed-index jumps (see DESIGN.md).
package index

import (
	"sort"
	"unsafe"

	"repro/internal/labels"
	"repro/internal/tree"
)

// Nil mirrors the error node Ω of Definition 3.2.
const Nil = tree.Nil

// Index is an immutable jumping index over one document. It holds no
// per-node array of its own: the ends of binary subtrees come from the
// document (tree.Document.BinEnd).
type Index struct {
	doc *tree.Document
	// occ[l] lists the nodes labeled l in preorder. The list of
	// tree.LabelText is the document's own (tree.Document.TextNodes),
	// borrowed; the others are the index's.
	occ [][]tree.NodeID
}

// New builds the index in O(n + Σ) time and space. The per-label counts
// come with the document (tree.Document.LabelCounts), so the occurrence
// lists of all but the text nodes, which the document lists itself, are
// cut from one array and filled in one pass.
func New(d *tree.Document) *Index {
	n := d.NumNodes()
	sigma := d.Names().Size()
	texts := d.TextNodes()
	ix := &Index{doc: d, occ: make([][]tree.NodeID, sigma)}
	all := make([]tree.NodeID, n-len(texts))
	next := make([]int, sigma) // where label l's next occurrence goes in all
	off := 0
	for l, c := range d.LabelCounts() {
		if tree.LabelID(l) == tree.LabelText {
			continue
		}
		ix.occ[l] = all[off : off+int(c) : off+int(c)]
		next[l] = off
		off += int(c)
	}
	ix.occ[tree.LabelText] = texts
	for v := 0; v < n; v++ {
		node := tree.NodeID(v)
		if l := d.Label(node); l != tree.LabelText {
			all[next[l]] = node
			next[l]++
		}
	}
	return ix
}

// MemBytes reports the bytes the index holds: the per-label slice
// headers and the occurrence lists that are its own — the text nodes'
// list is the document's, and counted there.
func (ix *Index) MemBytes() int64 {
	b := int64(len(ix.occ)) * int64(unsafe.Sizeof([]tree.NodeID(nil)))
	for l, occ := range ix.occ {
		if tree.LabelID(l) != tree.LabelText {
			b += 4 * int64(len(occ))
		}
	}
	return b
}

// Doc returns the indexed document.
func (ix *Index) Doc() *tree.Document { return ix.doc }

// Count returns the number of nodes labeled l; O(1) as in the paper's
// index ("our index provides the global count of a label in constant
// time", §5).
func (ix *Index) Count(l tree.LabelID) int {
	if int(l) >= len(ix.occ) {
		return 0
	}
	return len(ix.occ[l])
}

// CountSet returns the total occurrence count of a finite label set, and
// false for co-finite sets.
func (ix *Index) CountSet(L labels.Set) (int, bool) {
	ids, ok := L.Finite()
	if !ok {
		return 0, false
	}
	n := 0
	for _, l := range ids {
		n += ix.Count(l)
	}
	return n, true
}

// Occurrences returns the preorder-sorted nodes labeled l. The slice is
// shared; callers must not modify it.
func (ix *Index) Occurrences(l tree.LabelID) []tree.NodeID {
	if int(l) >= len(ix.occ) {
		return nil
	}
	return ix.occ[l]
}

// BinEnd returns the last preorder node of v's binary subtree.
func (ix *Index) BinEnd(v tree.NodeID) tree.NodeID { return ix.doc.BinEnd(v) }

// firstOccIn returns the first occurrence of label l in the preorder
// interval (after, end], or Nil.
func (ix *Index) firstOccIn(l tree.LabelID, after, end tree.NodeID) tree.NodeID {
	if int(l) >= len(ix.occ) {
		return Nil
	}
	occ := ix.occ[l]
	i := sort.Search(len(occ), func(i int) bool { return occ[i] > after })
	if i < len(occ) && occ[i] <= end {
		return occ[i]
	}
	return Nil
}

// firstIn returns the first node in (after, end] whose label is in L,
// which must be finite; the second result is false otherwise.
func (ix *Index) firstIn(L labels.Set, after, end tree.NodeID) (tree.NodeID, bool) {
	ids, ok := L.Finite()
	if !ok {
		return Nil, false
	}
	best := Nil
	for _, l := range ids {
		if u := ix.firstOccIn(l, after, end); u != Nil && (best == Nil || u < best) {
			best = u
		}
	}
	return best, true
}

// Dt is d_t(π, L): the first descendant of π in the binary tree (document
// order) whose label is in L, or Nil (Ω). L must be finite; ok is false
// otherwise (no jump possible for co-finite guards).
func (ix *Index) Dt(v tree.NodeID, L labels.Set) (tree.NodeID, bool) {
	return ix.firstIn(L, v, ix.doc.BinEnd(v))
}

// Lt is l_t(π, L): the first node on the leftmost binary path strictly
// below π (i.e. π·1, π·1·1, ...; in XML terms the chain of first
// children) whose label is in L, or Nil. Paths are short (tree depth), so
// this walks the chain.
func (ix *Index) Lt(v tree.NodeID, L labels.Set) tree.NodeID {
	for u := ix.doc.FirstChild(v); u != tree.Nil; u = ix.doc.FirstChild(u) {
		if L.Contains(ix.doc.Label(u)) {
			return u
		}
	}
	return Nil
}

// Rt is r_t(π, L): the first node on the rightmost binary path strictly
// below π (π·2, π·2·2, ...; in XML terms the chain of following siblings)
// whose label is in L, or Nil. Sibling chains can be very long (that is
// precisely when jumping pays off), so instead of walking the chain this
// binary-searches the occurrence arrays and skips over intervening
// sibling subtrees: each iteration either answers or jumps past a sibling
// subtree containing a non-sibling occurrence.
func (ix *Index) Rt(v tree.NodeID, L labels.Set) tree.NodeID {
	p := ix.doc.Parent(v)
	if p == tree.Nil {
		return Nil // root has no siblings
	}
	ids, ok := L.Finite()
	if !ok {
		// Co-finite guard: fall back to walking the sibling chain.
		for u, end := ix.doc.LastDesc(v)+1, ix.doc.LastDesc(p); u <= end; u = ix.doc.LastDesc(u) + 1 {
			if L.Contains(ix.doc.Label(u)) {
				return u
			}
		}
		return Nil
	}
	end := ix.doc.LastDesc(p)
	after := ix.doc.LastDesc(v) // skip v's own subtree
	for {
		best := Nil
		for _, l := range ids {
			if u := ix.firstOccIn(l, after, end); u != Nil && (best == Nil || u < best) {
				best = u
			}
		}
		if best == Nil {
			return Nil
		}
		if ix.doc.Parent(best) == p {
			return best // a true sibling of v
		}
		// best is buried inside some sibling's subtree; skip that
		// sibling entirely. The sibling is best's ancestor at v's depth.
		s := best
		for ix.doc.Parent(s) != p {
			s = ix.doc.Parent(s)
		}
		after = ix.doc.LastDesc(s)
	}
}

// TopMost returns, in document order, the top-most nodes with label in L
// within the binary subtree rooted at π: the nodes computed by
// π0 = Dt(π,L), π(n+1) = Ft(πn, L, π) in §3.1.2. ok is false for
// co-finite L. Single-label sets (the common case after compilation)
// walk the occurrence array with galloping advance — one binary search
// total instead of one per enumerated node.
func (ix *Index) TopMost(v tree.NodeID, L labels.Set) ([]tree.NodeID, bool) {
	ids, ok := L.Finite()
	if !ok {
		return nil, false
	}
	if len(ids) == 1 {
		return ix.topMostSingle(v, ids[0]), true
	}
	return ix.topMostMulti(v, ids), true
}

// topMostMulti merges the occurrence arrays of several labels with one
// cursor each, advancing all cursors past each accepted node's binary
// subtree.
func (ix *Index) topMostMulti(v tree.NodeID, ids []tree.LabelID) []tree.NodeID {
	end := ix.doc.BinEnd(v)
	type cursor struct {
		occ []tree.NodeID
		i   int
	}
	cursors := make([]cursor, 0, len(ids))
	for _, l := range ids {
		if int(l) >= len(ix.occ) {
			continue
		}
		occ := ix.occ[l]
		i := sort.Search(len(occ), func(k int) bool { return occ[k] > v })
		if i < len(occ) && occ[i] <= end {
			cursors = append(cursors, cursor{occ, i})
		}
	}
	var out []tree.NodeID
	for {
		best := Nil
		for _, c := range cursors {
			if c.i < len(c.occ) && c.occ[c.i] <= end && (best == Nil || c.occ[c.i] < best) {
				best = c.occ[c.i]
			}
		}
		if best == Nil {
			return out
		}
		out = append(out, best)
		skip := ix.doc.BinEnd(best)
		for ci := range cursors {
			c := &cursors[ci]
			lin := 0
			for c.i < len(c.occ) && c.occ[c.i] <= skip {
				c.i++
				lin++
				if lin == 8 {
					rest := c.occ[c.i:]
					c.i += sort.Search(len(rest), func(k int) bool { return rest[k] > skip })
					break
				}
			}
		}
	}
}

func (ix *Index) topMostSingle(v tree.NodeID, l tree.LabelID) []tree.NodeID {
	if int(l) >= len(ix.occ) {
		return nil
	}
	occ := ix.occ[l]
	end := ix.doc.BinEnd(v)
	i := sort.Search(len(occ), func(k int) bool { return occ[k] > v })
	var out []tree.NodeID
	for i < len(occ) && occ[i] <= end {
		u := occ[i]
		out = append(out, u)
		// Skip occurrences inside u's binary subtree: linear advance
		// first (nested occurrences are rare), then gallop.
		skip := ix.doc.BinEnd(u)
		i++
		lin := 0
		for i < len(occ) && occ[i] <= skip {
			i++
			lin++
			if lin == 8 {
				rest := occ[i:]
				i += sort.Search(len(rest), func(k int) bool { return rest[k] > skip })
				break
			}
		}
	}
	return out
}
