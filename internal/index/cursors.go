package index

import (
	"sort"

	"repro/internal/labels"
	"repro/internal/tree"
)

// Cursors provides forward-only positions into the per-label occurrence
// arrays. An evaluator that queries positions in non-decreasing document
// order (which the jumping traversal of §4.3 does: binary preorder only
// moves right) gets amortized O(1) successor lookups instead of a binary
// search per jump: each cursor sweeps its array at most once per
// evaluation, galloping over large skips.
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
	ix      *Index
	pos     []int32
	touched []tree.LabelID
}

// NewCursors returns fresh cursors for one evaluation pass.
func (ix *Index) NewCursors() *Cursors {
	return &Cursors{ix: ix, pos: make([]int32, len(ix.occ))}
}

// Retarget rewinds the cursors and points them at another index — the
// one the next evaluation runs over, or nil to hold none in between —
// keeping the position array unless the alphabet size differs.
func (c *Cursors) Retarget(ix *Index) {
	c.Reset()
	c.ix = ix
	if ix != nil && len(ix.occ) != len(c.pos) {
		c.pos = make([]int32, len(ix.occ))
	}
}

// Reset rewinds the cursors for reuse in O(touched): only positions a
// previous evaluation moved off zero are cleared. A reset cursor set
// is indistinguishable from a fresh NewCursors.
func (c *Cursors) Reset() {
	for _, l := range c.touched {
		c.pos[l] = 0
	}
	c.touched = c.touched[:0]
}

// MemBytes estimates the resident bytes of the cursor set.
func (c *Cursors) MemBytes() int64 {
	return int64(cap(c.pos))*4 + int64(cap(c.touched))*4
}

// NextAfter returns the first occurrence of label l strictly after x, or
// Nil. The cursor is left on the returned occurrence (peek semantics).
func (c *Cursors) NextAfter(l tree.LabelID, x tree.NodeID) tree.NodeID {
	if int(l) >= len(c.ix.occ) {
		return Nil
	}
	occ := c.ix.occ[l]
	i := int(c.pos[l])
	lin := 0
	for i < len(occ) && occ[i] <= x {
		i++
		lin++
		if lin == 8 {
			rest := occ[i:]
			i += sort.Search(len(rest), func(k int) bool { return rest[k] > x })
			break
		}
	}
	if i != int(c.pos[l]) {
		// A label leaves the zero position at most once per evaluation
		// (positions are monotone), so touched records each dirtied
		// label exactly once.
		if c.pos[l] == 0 {
			c.touched = append(c.touched, l)
		}
		c.pos[l] = int32(i)
	}
	if i < len(occ) {
		return occ[i]
	}
	return Nil
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
		return c.ix.Rt(v, L) // a sibling walk: no occurrence list to sweep
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
