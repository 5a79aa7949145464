// Package index implements the jumping tree index of §3.1.2 (Definition
// 3.2): given a document, it answers for any node π and finite label set L
//
//	dt(π, L)      — first binary-tree descendant of π with label in L,
//	ft(π, L, π0)  — first following node of π inside π0's binary subtree,
//	rt(π, L)      — first labeled node on the rightmost binary path below π,
//
// plus O(1) global label counts. The jumps are methods of Cursors, the
// one navigation type of every automaton evaluator: dt and ft are both
// First, the first labeled node of a preorder interval — dt(π, L) the
// interval (π, BinEnd(π)], ft(π, L, π0) the interval (BinEnd(π),
// BinEnd(π0)] — and rt is Rt. The paper's fourth jump, lt along the
// leftmost path, is left out: the compiler never emits a state that
// loops on the first child alone, so no run would take it.
//
// All functions are over the first-child/next-sibling *binary* view of the
// document, because that is the tree the automata run on: the binary
// subtree of a node v is the contiguous preorder interval
// [v, LastDesc(Parent(v))] — v's own XML subtree plus everything under its
// following siblings. This interval property is what lets per-label sorted
// occurrence rows answer dt/ft with one cursor move per label in L. The
// rows are the inverse of the document's label array in two bytes a node:
// one tree.Seq table, its directory indexed directly by (label, rank>>16),
// so a jump is one directory read and a search of 16-bit halves inside one
// chunk (see DESIGN.md). #text has no row: its nodes are the label bytes
// that say so, which its cursor scans (tree.Document.NextText).
package index

import (
	"runtime"
	"slices"
	"sync"

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
	// tree.LabelText is empty: the label bytes list those nodes.
	occ    tree.Seq
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
	n, sigma := d.NumNodes(), d.Names().Size()
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
	lo := make([]uint16, n-d.TextRank(tree.NodeID(n)))
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
	return &Index{doc: d, occ: tree.Seq{Lo: lo, Start: start}, sigma: sigma, chunks: chunks}
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
// directory of occ.
func (ix *Index) MemBytes() int64 { return ix.occ.MemBytes() }

// Count returns the number of nodes labeled l; O(1) as in the paper's
// index ("our index provides the global count of a label in constant
// time", §5): the two ends of its row in the directory — and for #text,
// the document's text rank of the rank past its last node.
func (ix *Index) Count(l tree.LabelID) int {
	if l == tree.LabelText {
		return ix.doc.TextRank(tree.NodeID(ix.doc.NumNodes()))
	}
	return ix.Occurrences(l).Len()
}

// Occurrences returns the preorder-sorted ranks of the nodes labeled l
// (none for a label the document lacks, and none for #text, which has no
// row): the row of l, cut out of its table. The sequence is shared;
// callers must not modify it.
func (ix *Index) Occurrences(l tree.LabelID) tree.Seq {
	if l < 0 || int(l) >= ix.sigma {
		return tree.Seq{}
	}
	base := int(l) * ix.chunks
	return tree.Seq{Lo: ix.occ.Lo, Start: ix.occ.Start[base : base+ix.chunks+1]}
}
