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
// occurrence rows answer Dt/Ft with one search per label in L. The rows
// are the inverse of the document's label array in two bytes a node: one
// tree.Seq table, its directory indexed directly by (label, rank>>16), so
// a jump is one directory read and a search of 16-bit halves inside one
// chunk (see DESIGN.md).
package index

import (
	"runtime"
	"slices"
	"sync"

	"repro/internal/labels"
	"repro/internal/tree"
)

// Nil mirrors the error node Ω of Definition 3.2.
const Nil = tree.Nil

// Index is an immutable jumping index over one document. It holds no
// per-node array of its own but the halves of occ: the ends of binary
// subtrees come from the document (tree.Document.BinEnd).
type Index struct {
	doc *tree.Document
	// occ is every label's occurrences in preorder, as one table: the
	// halves of all rows in one array, label after label, and one
	// directory, label-major — entry l*chunks+c is where the occurrences
	// of l at ranks c<<16 and up start — so the empty chunks of a rare
	// label are adjacent words and no row has a header. The row of
	// tree.LabelText is empty here: it is the document's own
	// (tree.Document.TextNodes), borrowed as text.
	occ    tree.Seq
	text   tree.Seq
	sigma  int // rows: the labels of doc
	chunks int // chunks a row: tree.Chunks(doc.NumNodes())
}

// New builds the index in O(n + Σ × chunks) time and space: one pass over
// the labels counts the occurrences per label and chunk, prefix sums turn
// the counts into the directory, and a second pass scatters the halves.
// Both passes go chunk by chunk of 65 536 ranks, each chunk with a table
// of its own of the 256 byte values — its counts, then its cursors — and
// the chunks are dealt to workers in contiguous ranges (inChunks), so a
// worker writes its own stretch of every row. Each pass is followed by a
// sweep of the rare labels, which the byte array holds one escape value
// for: none in a document of 255 names or fewer.
func New(d *tree.Document) *Index {
	n, sigma, text := d.NumNodes(), d.Names().Size(), d.TextNodes()
	chunks := tree.Chunks(n)
	start := make([]uint32, sigma*chunks+1)
	labels := d.Labels()
	rare, rareIDs := d.Rare()
	inByte := min(sigma, tree.RareLabel+1) // the labels a byte holds, the escape included
	inChunks(chunks, func(c int) {
		var counts [256]uint32
		for _, l := range labels[c<<16 : min(n, (c+1)<<16)] {
			counts[l]++ // text nodes and escapes too: a test per node costs more than clearing their count
		}
		counts[tree.LabelText], counts[tree.RareLabel] = 0, 0
		for l := range inByte {
			start[l*chunks+c+1] = counts[l]
		}
	})
	i := 0
	for v := range rare.From(0) {
		start[int(rareIDs[i])*chunks+int(v>>16)+1]++
		i++
	}
	for k := 1; k < len(start); k++ {
		start[k] += start[k-1]
	}
	lo := make([]uint16, n-text.Len())
	inChunks(chunks, func(c int) {
		var next [256]uint32
		for l := range inByte {
			next[l] = start[l*chunks+c]
		}
		for v, l := range labels[c<<16 : min(n, (c+1)<<16)] {
			if tree.LabelID(l) != tree.LabelText && l != tree.RareLabel {
				lo[next[l]] = uint16(v)
				next[l]++
			}
		}
	})
	if rare.Len() > 0 {
		next := slices.Clone(start)
		i = 0
		for v := range rare.From(0) {
			k := int(rareIDs[i])*chunks + int(v>>16)
			lo[next[k]] = uint16(v)
			next[k]++
			i++
		}
	}
	return &Index{doc: d, occ: tree.Seq{Lo: lo, Start: start}, text: text, sigma: sigma, chunks: chunks}
}

// inChunks runs fn on every chunk c in [0, chunks): on up to GOMAXPROCS
// workers, each a contiguous range of chunks, or on the caller's
// goroutine alone below two chunks. Chunks dealt round-robin would put
// two workers' writes in the same cache lines of every row.
func inChunks(chunks int, fn func(c int)) {
	workers := min(chunks, runtime.GOMAXPROCS(0))
	each := func(w int) {
		for c := chunks * w / workers; c < chunks*(w+1)/workers; c++ {
			fn(c)
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			each(w)
		}()
	}
	each(0)
	wg.Wait()
}

// MemBytes reports the bytes the index holds: the halves and the
// directory of occ — the text nodes' row is the document's, and counted
// there.
func (ix *Index) MemBytes() int64 { return ix.occ.MemBytes() }

// Doc returns the indexed document.
func (ix *Index) Doc() *tree.Document { return ix.doc }

// Count returns the number of nodes labeled l; O(1) as in the paper's
// index ("our index provides the global count of a label in constant
// time", §5): the two ends of its row in the directory.
func (ix *Index) Count(l tree.LabelID) int {
	if l < 0 || int(l) >= ix.sigma {
		return 0
	}
	s, base := ix.table(l)
	return int(s.Start[base+ix.chunks] - s.Start[base])
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

// Occurrences returns the preorder-sorted ranks of the nodes labeled l
// (none for a label the document lacks): the row of l, cut out of its
// table. The sequence is shared; callers must not modify it.
func (ix *Index) Occurrences(l tree.LabelID) tree.Seq {
	if l < 0 || int(l) >= ix.sigma {
		return tree.Seq{}
	}
	s, base := ix.table(l)
	return tree.Seq{Lo: s.Lo, Start: s.Start[base : base+ix.chunks+1]}
}

// table returns where the row of l, a label of the document, lies: the
// table and the row's first directory entry; every row has ix.chunks
// chunks. The jumps search the row in place (tree.Seq.SearchRow, Next)
// rather than cut it out.
func (ix *Index) table(l tree.LabelID) (*tree.Seq, int) {
	if l == tree.LabelText {
		return &ix.text, 0
	}
	return &ix.occ, int(l) * ix.chunks
}

// BinEnd returns the last preorder node of v's binary subtree.
func (ix *Index) BinEnd(v tree.NodeID) tree.NodeID { return ix.doc.BinEnd(v) }

// firstOccIn returns the first occurrence of label l in the preorder
// interval (after, end], or Nil.
func (ix *Index) firstOccIn(l tree.LabelID, after, end tree.NodeID) tree.NodeID {
	if int(l) >= ix.sigma {
		return Nil
	}
	s, base := ix.table(l)
	if _, u := s.SearchRow(base, ix.chunks, uint32(after+1)); u <= uint32(end) { // tree.None is above every rank
		return tree.NodeID(u)
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
// searches the occurrence rows and skips over intervening
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
// co-finite L. The rows of the labels are merged with one cursor each,
// every cursor moved past each accepted node's binary subtree — one step
// at a time first (nested occurrences are rare), then by search.
func (ix *Index) TopMost(v tree.NodeID, L labels.Set) ([]tree.NodeID, bool) {
	ids, ok := L.Finite()
	if !ok {
		return nil, false
	}
	end := uint32(ix.doc.BinEnd(v))
	type cursor struct {
		s    *tree.Seq
		base int
		at   tree.Cursor
		u    uint32 // the occurrence under the cursor, or tree.None: above every rank
	}
	var few [4]cursor // L is one label, or a few: no allocation but the answer's
	cursors := few[:0]
	for _, l := range ids {
		if int(l) >= ix.sigma {
			continue
		}
		c := cursor{u: tree.None}
		c.s, c.base = ix.table(l)
		if c.u = c.s.Next(&c.at, c.base, ix.chunks, c.u, uint32(v+1)); c.u <= end {
			cursors = append(cursors, c)
		}
	}
	var out []tree.NodeID
	for {
		best := tree.None
		for _, c := range cursors {
			best = min(best, c.u)
		}
		if best > end {
			return out, true
		}
		out = append(out, tree.NodeID(best))
		skip := uint32(ix.doc.BinEnd(tree.NodeID(best)))
		for i := range cursors {
			if c := &cursors[i]; c.u <= skip {
				c.u = c.s.Next(&c.at, c.base, ix.chunks, c.u, skip+1)
			}
		}
	}
}
