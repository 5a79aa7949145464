package index

import (
	"unsafe"

	"repro/internal/tree"
)

// Cursors provides forward-only positions into the per-label occurrence
// rows, and the jumps of Definition 3.2 over them that compiled automata
// take: dt and ft (First) and rt (Rt). It is the one navigation type of
// the ASTA, the TDSTA and the bottom-up evaluator (test code in
// internal/sta, which no query runs). lt has no method: no compiled
// automaton loops on first children alone, so no run asks for it.
// An evaluator that queries positions in non-decreasing document order
// (which all three jumping traversals do: binary preorder only moves
// right) gets amortized O(1) successor lookups instead of a search per
// jump: each cursor sweeps its row at most once per evaluation, entering
// a later chunk through the directory and searching inside chunks only
// over large skips. #text has no row: its cursor scans the document's label
// bytes (tree.Document.NextText), each at most once an evaluation too.
//
// Correctness requires monotone use: NextAfter(l, x) assumes x is at
// least as large as any previous bound passed for label l.
//
// Cursors are reusable: Reset rewinds only the labels an evaluation
// actually advanced (tracked in touched), so a query that swept three
// labels of a million-label document pays three writes, not a
// million — the cost model a pooled evaluation context needs for
// reuse to beat reallocation.
type Cursors struct {
	ix *Index
	// Label l's cursor is at[l], its place in l's row, and val[l], the
	// occurrence there decoded once — so the common question, to which it
	// is still the answer, costs one compare. val is Nil when no occurrence
	// is known: on a fresh cursor and on one that ran off its row.
	at      []tree.Cursor
	val     []tree.NodeID
	n       tree.LabelID // len(val), in the type NextAfter compares with
	touched []tree.LabelID
	// textEnd is set once #text's scan has read to the end of the labels
	// and found none after val, as a cursor that ran off its row.
	textEnd bool
}

// NewCursors returns fresh cursors for one evaluation pass.
func (ix *Index) NewCursors() *Cursors {
	c := &Cursors{}
	c.Retarget(ix)
	return c
}

// Retarget rewinds the cursors and points them at another index — the
// one the next evaluation runs over, or nil to hold none in between —
// keeping the cursor arrays unless the index has more labels than they
// hold; the cursors past its alphabet stay fresh, as Reset rewinds every
// cursor that moved.
func (c *Cursors) Retarget(ix *Index) {
	c.Reset()
	c.ix = ix
	if ix == nil {
		return
	}
	if ix.sigma > cap(c.val) {
		c.at, c.val = make([]tree.Cursor, ix.sigma), make([]tree.NodeID, ix.sigma)
		for l := range c.val {
			c.val[l] = Nil
		}
	}
	c.at, c.val, c.n = c.at[:ix.sigma], c.val[:ix.sigma], tree.LabelID(ix.sigma)
}

// Reset rewinds the cursors for reuse in O(touched): only cursors a
// previous evaluation moved off the fresh state are rewound. A reset
// cursor set is indistinguishable from a fresh NewCursors.
func (c *Cursors) Reset() {
	for _, l := range c.touched {
		c.at[l], c.val[l] = tree.Cursor{}, Nil
	}
	c.touched, c.textEnd = c.touched[:0], false
}

// MemBytes estimates the resident bytes of the cursor set: a place and a
// decoded rank per label, and the list of labels to rewind.
func (c *Cursors) MemBytes() int64 {
	return int64(cap(c.at))*int64(unsafe.Sizeof(tree.Cursor{})) + int64(cap(c.val)+cap(c.touched))*4
}

// NextAfter returns the first occurrence of label l strictly after x, or
// Nil. The cursor is left on the returned occurrence (peek semantics).
// While x stays below that occurrence, which is most calls, the answer is
// the rank the cursor remembers; written to the last unit of the
// compiler's inlining budget (CI checks that it still inlines).
func (c *Cursors) NextAfter(l tree.LabelID, x tree.NodeID) tree.NodeID {
	if l < c.n && x < c.val[l] {
		return c.val[l]
	}
	return c.advance(l, x)
}

// advance moves l's cursor to the first occurrence after x.
func (c *Cursors) advance(l tree.LabelID, x tree.NodeID) tree.NodeID {
	if l >= c.n {
		return Nil
	}
	if l == tree.LabelText {
		return c.nextText(x)
	}
	s, base := &c.ix.occ, int(l)*c.ix.chunks
	at, val, after := &c.at[l], uint32(c.val[l]), uint32(x+1)
	if u := at.Step(s.Lo, val, after); u != tree.None {
		c.val[l] = tree.NodeID(u)
		return c.val[l]
	}
	// A cursor leaves the fresh state at most once per evaluation, so
	// touched records each dirtied label exactly once.
	fresh := at.Fresh()
	if !fresh && val == tree.None {
		return Nil // ran off its row
	}
	c.val[l] = tree.NodeID(s.Next(at, base, c.ix.chunks, val, after)) // tree.None is Nil
	if fresh && !at.Fresh() {
		c.touched = append(c.touched, l)
	}
	return c.val[l]
}

// nextText is advance for #text: the scan reads on from x, which is at
// least the last answer, so the bytes it reads are past every byte it
// read before.
func (c *Cursors) nextText(x tree.NodeID) tree.NodeID {
	if c.textEnd {
		return Nil
	}
	if c.val[tree.LabelText] == Nil { // fresh
		c.touched = append(c.touched, tree.LabelText)
	}
	v := c.ix.doc.NextText(x)
	c.val[tree.LabelText], c.textEnd = v, v == Nil
	return v
}

// First returns the first node in the preorder interval (after, end]
// whose label is one of ids, or Nil: dt(π, L) when the interval is π's
// binary subtree past π, ft when it starts past the previous answer's.
// Stepping from one answer u to the next with after = BinEnd(u)
// enumerates the top-most L-labeled nodes of a region in document order.
func (c *Cursors) First(ids []tree.LabelID, after, end tree.NodeID) tree.NodeID {
	best := Nil
	for _, l := range ids {
		if u := c.NextAfter(l, after); u != Nil && u <= end && (best == Nil || u < best) {
			best = u
		}
	}
	return best
}

// Rt is r_t(π, L): the first node on the rightmost binary path strictly
// below π (π·2, π·2·2, ...; in XML terms the chain of following siblings)
// whose label is one of ids, or Nil. Sibling chains can be very long
// (that is precisely when jumping pays off), so this asks First instead
// of walking the chain: each answer either is a sibling or lies inside
// one, whose subtree the next question skips.
func (c *Cursors) Rt(v tree.NodeID, ids []tree.LabelID) tree.NodeID {
	d := c.ix.doc
	p := d.Parent(v)
	if p == tree.Nil {
		return Nil // the root has no siblings
	}
	end := d.LastDesc(p)
	for after := d.LastDesc(v); ; {
		u := c.First(ids, after, end)
		if u == Nil || d.Parent(u) == p {
			return u
		}
		for d.Parent(u) != p { // the sibling u lies in
			u = d.Parent(u)
		}
		after = d.LastDesc(u)
	}
}
