package index

import (
	"unsafe"

	"repro/internal/labels"
	"repro/internal/tree"
)

// Cursors provides forward-only positions into the per-label occurrence
// rows. An evaluator that queries positions in non-decreasing document
// order (which the jumping traversal of §4.3 does: binary preorder only
// moves right) gets amortized O(1) successor lookups instead of a search
// per jump: each cursor sweeps its row at most once per evaluation,
// entering a later chunk through the directory and searching inside
// chunks only over large skips.
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
}

// NewCursors returns fresh cursors for one evaluation pass.
func (ix *Index) NewCursors() *Cursors {
	c := &Cursors{}
	c.Retarget(ix)
	return c
}

// Retarget rewinds the cursors and points them at another index — the
// one the next evaluation runs over, or nil to hold none in between —
// keeping the cursor arrays unless the alphabet size differs.
func (c *Cursors) Retarget(ix *Index) {
	c.Reset()
	c.ix = ix
	if ix != nil && ix.sigma != len(c.val) {
		c.at, c.val, c.n = make([]tree.Cursor, ix.sigma), make([]tree.NodeID, ix.sigma), tree.LabelID(ix.sigma)
		for l := range c.val {
			c.val[l] = Nil
		}
	}
}

// Reset rewinds the cursors for reuse in O(touched): only cursors a
// previous evaluation moved off the fresh state are rewound. A reset
// cursor set is indistinguishable from a fresh NewCursors.
func (c *Cursors) Reset() {
	for _, l := range c.touched {
		c.at[l], c.val[l] = tree.Cursor{}, Nil
	}
	c.touched = c.touched[:0]
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
	s, base := c.ix.table(l)
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

// Rt is the cursor-driven r_t(π, L): the first node on the rightmost
// binary path (following-sibling chain) of π whose label is in L, or
// Nil.
func (c *Cursors) Rt(v tree.NodeID, L labels.Set) tree.NodeID {
	d := c.ix.doc
	p := d.Parent(v)
	if p == tree.Nil {
		return Nil
	}
	ids, finite := L.Finite()
	if !finite {
		return c.ix.Rt(v, L) // a sibling walk: no occurrence row to sweep
	}
	end := d.LastDesc(p)
	after := d.LastDesc(v)
	for {
		best := Nil
		for _, l := range ids {
			if u := c.NextAfter(l, after); u != Nil && u <= end && (best == Nil || u < best) {
				best = u
			}
		}
		if best == Nil {
			return Nil
		}
		if d.Parent(best) == p {
			return best
		}
		s := best
		for d.Parent(s) != p {
			s = d.Parent(s)
		}
		after = d.LastDesc(s)
	}
}
