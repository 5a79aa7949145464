// Package bp implements a balanced-parentheses succinct ordinal tree in the
// style of Sadakane & Navarro ("Fully-functional static and dynamic succinct
// trees", reference [18] of the paper). A tree with n nodes is stored as a
// 2n-bit parenthesis sequence plus o(n)-style block summaries giving
// FindClose/FindOpen/Enclose in O(log n). Nodes are identified by their
// preorder rank (0-based), so the structure composes directly with the
// preorder-indexed label arrays of internal/tree and internal/index.
package bp

import "repro/internal/bitvec"

// blockBits is the span of one min-excess block. Queries scan at most one
// block at each end plus O(log(n/blockBits)) summary nodes.
const blockBits = 256

// Byte-parallel excess tables: for each 8-bit parenthesis group b (bit 0
// first, 1 = open), byteSum[b] is the total excess delta of the group
// and byteMin[b] the minimum prefix excess within it (over prefixes of
// length 1..8, relative to the excess at the group's start). A block
// scan consults these to step 8 positions at a time, touching the bits
// themselves only inside the single byte that contains the answer —
// and there fwdDepth resolves the hit without a bit loop: fwdDepth[b][d-1]
// is the length of the shortest prefix of b with excess exactly -d
// (d in 1..8; 255 = unreachable, excluded by the byteMin test first).
var (
	byteSum  [256]int8
	byteMin  [256]int8
	fwdDepth [256][8]uint8
)

func init() {
	for b := 0; b < 256; b++ {
		for d := range fwdDepth[b] {
			fwdDepth[b][d] = 255
		}
		ex, min := 0, 127
		for i := 0; i < 8; i++ {
			if b&(1<<i) != 0 {
				ex++
			} else {
				ex--
			}
			if ex < min {
				min = ex
			}
			if ex < 0 && fwdDepth[b][-ex-1] == 255 {
				fwdDepth[b][-ex-1] = uint8(i)
			}
		}
		byteSum[b] = int8(ex)
		byteMin[b] = int8(min)
	}
}

// Tree is an immutable balanced-parentheses tree.
type Tree struct {
	paren *bitvec.Vector // 1 = '(' open, 0 = ')' close
	// Min-excess segment tree over blocks, 1-indexed heap layout.
	// blockMin[i] is the minimum prefix excess within the range, relative
	// to the excess at the start of the range; blockSum[i] is the total
	// excess delta of the range.
	blockMin  []int32
	blockSum  []int32
	numBlocks int
	leafBase  int
	n         int // number of nodes
}

// Builder accumulates a parenthesis sequence.
type Builder struct {
	bits  *bitvec.Builder
	depth int
	n     int
}

// NewBuilder returns a builder with capacity hints for n nodes.
func NewBuilder(n int) *Builder {
	return &Builder{bits: bitvec.NewBuilder(2 * n)}
}

// Open appends an opening parenthesis (entering a new node in preorder).
func (b *Builder) Open() {
	b.bits.Append(true)
	b.depth++
	b.n++
}

// Close appends a closing parenthesis (leaving the current node).
func (b *Builder) Close() {
	b.bits.Append(false)
	b.depth--
}

// Depth reports the current nesting depth (open minus close so far).
func (b *Builder) Depth() int { return b.depth }

// Nodes reports the number of nodes opened so far.
func (b *Builder) Nodes() int { return b.n }

// Build finalizes the sequence. It panics if the parentheses are not
// balanced, since every caller constructs the sequence programmatically.
func (b *Builder) Build() *Tree {
	if b.depth != 0 {
		panic("bp: unbalanced parenthesis sequence")
	}
	t := &Tree{paren: b.bits.Build(), n: b.n}
	t.buildBlocks()
	return t
}

// FromBools builds a tree from an explicit parenthesis bit sequence
// (true = open). Used by tests.
func FromBools(seq []bool) *Tree {
	b := NewBuilder(len(seq) / 2)
	for _, open := range seq {
		if open {
			b.Open()
		} else {
			b.Close()
		}
	}
	return b.Build()
}

func (t *Tree) buildBlocks() {
	m := t.paren.Len()
	t.numBlocks = (m + blockBits - 1) / blockBits
	if t.numBlocks == 0 {
		t.numBlocks = 1
	}
	// Round up to a power of two for a simple heap-shaped segment tree.
	size := 1
	for size < t.numBlocks {
		size *= 2
	}
	t.leafBase = size
	t.blockMin = make([]int32, 2*size)
	t.blockSum = make([]int32, 2*size)
	for i := range t.blockMin {
		t.blockMin[i] = 1 << 30
	}
	for blk := 0; blk < t.numBlocks; blk++ {
		minEx, sum := int32(1<<30), int32(0)
		start, end := blk*blockBits, (blk+1)*blockBits
		if end > m {
			end = m
		}
		// Whole bytes via the excess tables, the ragged tail per bit
		// (block starts are byte-aligned; only the final block can be
		// ragged).
		i := start
		for ; i+8 <= end; i += 8 {
			b := t.paren.Byte(i)
			if me := sum + int32(byteMin[b]); me < minEx {
				minEx = me
			}
			sum += int32(byteSum[b])
		}
		for ; i < end; i++ {
			if t.paren.Get(i) {
				sum++
			} else {
				sum--
			}
			if sum < minEx {
				minEx = sum
			}
		}
		if start >= end {
			minEx, sum = 0, 0
		}
		t.blockMin[t.leafBase+blk] = minEx
		t.blockSum[t.leafBase+blk] = sum
	}
	for i := t.leafBase - 1; i >= 1; i-- {
		l, r := 2*i, 2*i+1
		lm, ls := t.blockMin[l], t.blockSum[l]
		rm := t.blockMin[r]
		if rm == 1<<30 { // right child empty
			t.blockMin[i] = lm
			t.blockSum[i] = ls
			continue
		}
		min := lm
		if ls+rm < min {
			min = ls + rm
		}
		t.blockMin[i] = min
		t.blockSum[i] = ls + t.blockSum[r]
	}
}

// NumNodes reports the number of tree nodes.
func (t *Tree) NumNodes() int { return t.n }

// Excess returns the nesting depth after reading positions [0, i], i.e.
// opens minus closes in the prefix of length i+1.
func (t *Tree) Excess(i int) int {
	return 2*t.paren.Rank1(i+1) - (i + 1)
}

// scanFwd looks for the smallest j in [from, to) with Excess(j) == target,
// given ex = Excess(from-1). It requires ex > target at every position
// before the hit (which holds for fwdSearch's only use, FindClose: excess
// moves in ±1 steps, so it cannot pass below target without equalling it).
// That invariant is what lets whole bytes be skipped: the target is inside
// a byte iff the byte's min prefix excess dips to it, and then fwdDepth
// pinpoints the bit without a scan. Returns the hit and its excess, or
// (-1, Excess(to-1)) if the range has no hit.
func (t *Tree) scanFwd(from, to, ex, target int) (int, int) {
	j := from
	for ; j < to && j&7 != 0; j++ {
		if t.paren.Get(j) {
			ex++
		} else {
			ex--
		}
		if ex == target {
			return j, ex
		}
	}
	for ; j+8 <= to; j += 8 {
		b := t.paren.Byte(j)
		if d := ex - target; d <= 8 && int(byteMin[b]) <= -d {
			return j + int(fwdDepth[b][d-1]), target
		}
		ex += int(byteSum[b])
	}
	for ; j < to; j++ {
		if t.paren.Get(j) {
			ex++
		} else {
			ex--
		}
		if ex == target {
			return j, ex
		}
	}
	return -1, ex
}

// scanBwd looks for the largest q in [lo-1, p-1] with Excess(q) == target,
// given ex = Excess(p). Like scanFwd it byte-steps: a byte can be skipped
// unless the excesses at its interior boundaries dip to target, which under
// bwdSearch's enclosing precondition only happens in the byte holding the
// answer (positions right of the answer all have excess > target). Returns
// (q, true, Excess(q)) on a hit — note q may be -1, meaning position -1
// with Excess(-1) == 0 == target — or (-1, false, Excess(lo-1)) otherwise.
func (t *Tree) scanBwd(p, lo, ex, target int) (int, bool, int) {
	j := p
	for ; j >= lo && j&7 != 7; j-- {
		if t.paren.Get(j) {
			ex--
		} else {
			ex++
		}
		if ex == target {
			return j - 1, true, ex
		}
	}
	for ; j-7 >= lo; j -= 8 {
		b := t.paren.Byte(j - 7)
		m0 := int(byteMin[b])
		if m0 > 0 {
			m0 = 0
		}
		if ex-int(byteSum[b])+m0 <= target {
			// The byte contains the answer; resolve it per bit. The
			// fallthrough is defensive — under the precondition the
			// inner loop always returns.
			bex := ex
			for k := j; k >= j-7; k-- {
				if t.paren.Get(k) {
					bex--
				} else {
					bex++
				}
				if bex == target {
					return k - 1, true, bex
				}
			}
		}
		ex -= int(byteSum[b])
	}
	for ; j >= lo; j-- {
		if t.paren.Get(j) {
			ex--
		} else {
			ex++
		}
		if ex == target {
			return j - 1, true, ex
		}
	}
	return -1, false, ex
}

// fwdSearch finds the smallest j > i such that Excess(j) == target,
// or -1 if none exists.
func (t *Tree) fwdSearch(i int, target int) int {
	m := t.paren.Len()
	ex := t.Excess(i)
	// Scan the rest of i's block.
	blk := (i + 1) / blockBits
	end := (blk + 1) * blockBits
	if end > m {
		end = m
	}
	j, ex := t.scanFwd(i+1, end, ex, target)
	if j >= 0 {
		return j
	}
	if end == m {
		return -1
	}
	// Climb the segment tree to find the first block whose min excess
	// reaches target, tracking the running excess at block boundaries.
	node := t.leafBase + blk
	for {
		// Move to the next subtree to the right.
		for node%2 == 1 { // right child: go up
			node /= 2
			if node == 0 {
				return -1
			}
		}
		node++ // right sibling
		if node >= len(t.blockMin) || t.blockMin[node] == 1<<30 {
			// Empty subtree; keep climbing.
			node--
			node /= 2
			if node == 0 {
				return -1
			}
			continue
		}
		if ex+int(t.blockMin[node]) <= target {
			break // target is inside this subtree
		}
		ex += int(t.blockSum[node])
		node /= 2
		if node == 0 {
			return -1
		}
	}
	// Descend to the leaf block containing the answer.
	for node < t.leafBase {
		l := 2 * node
		if t.blockMin[l] != 1<<30 && ex+int(t.blockMin[l]) <= target {
			node = l
		} else {
			ex += int(t.blockSum[l])
			node = l + 1
		}
	}
	blk = node - t.leafBase
	start := blk * blockBits
	stop := start + blockBits
	if stop > m {
		stop = m
	}
	j, _ = t.scanFwd(start, stop, ex, target)
	return j
}

// bwdSearch finds the largest j < i such that Excess(j) == target, or -1 if
// none exists. It requires the "enclosing" precondition that holds for
// FindOpen and Enclose: every position strictly between the answer and i
// has excess > target. Under that precondition the answer lies in the
// nearest block to the left whose absolute minimum excess is <= target.
func (t *Tree) bwdSearch(i int, target int) int {
	ex := t.Excess(i)
	blk := i / blockBits
	start := blk * blockBits
	j, ok, ex := t.scanBwd(i, start, ex, target)
	if ok {
		return j
	}
	if start == 0 {
		return -1
	}
	// ex is the excess just before the block. Climb the segment tree
	// leftward looking for a subtree whose absolute minimum reaches
	// target; ex tracks the excess at the end of the candidate range.
	node := t.leafBase + blk
	for {
		for node%2 == 0 { // left child: go up
			node /= 2
			if node <= 1 {
				return -1
			}
		}
		if node <= 1 {
			return -1
		}
		node-- // left sibling
		exStart := ex - int(t.blockSum[node])
		if t.blockMin[node] != 1<<30 && exStart+int(t.blockMin[node]) <= target {
			break // answer is inside this subtree
		}
		ex = exStart
		node /= 2
		if node <= 1 {
			return -1
		}
	}
	// Descend, preferring the right child (we want the largest j).
	for node < t.leafBase {
		r := 2*node + 1
		if t.blockMin[r] != 1<<30 && ex-int(t.blockSum[r])+int(t.blockMin[r]) <= target {
			node = r
		} else {
			if t.blockMin[r] != 1<<30 {
				ex -= int(t.blockSum[r])
			}
			node = 2 * node
		}
	}
	blk = node - t.leafBase
	start = blk * blockBits
	stop := start + blockBits
	if stop > t.paren.Len() {
		stop = t.paren.Len()
	}
	// ex is Excess(stop-1); the descent guarantees the hit is in this
	// block. Check the block's last position, then byte-scan the rest.
	if ex == target {
		return stop - 1
	}
	j, ok, _ = t.scanBwd(stop-1, start+1, ex, target)
	if ok {
		return j
	}
	return -1
}

// FindClose returns the position of the closing parenthesis matching the
// open parenthesis at position i.
func (t *Tree) FindClose(i int) int {
	return t.fwdSearch(i, t.Excess(i)-1)
}

// FindOpen returns the position of the open parenthesis matching the
// closing parenthesis at position i.
func (t *Tree) FindOpen(i int) int {
	// The open paren is the last position j < i with Excess(j-1) ==
	// Excess(i); equivalently Excess(j) == Excess(i)+1 and paren[j] is
	// open. bwdSearch for excess(i) then +1.
	j := t.bwdSearch(i, t.Excess(i))
	return j + 1
}

// Enclose returns the position of the open parenthesis of the parent of the
// node whose open parenthesis is at i, or -1 for the root.
func (t *Tree) Enclose(i int) int {
	if i == 0 {
		return -1
	}
	j := t.bwdSearch(i, t.Excess(i)-2)
	return j + 1
}

// Splice returns a new tree whose parenthesis sequence is t's with the
// bit range [at, at+del) replaced by ins (true = open). Both the removed
// range and the inserted sequence must themselves be balanced — which
// every subtree patch guarantees, since a subtree is one matched
// parenthesis pair. The bits are copied word-at-a-time where aligned and
// the block summaries rebuilt in one linear pass, so deriving a patched
// generation's tree costs O(n/w + n/blockBits) words, not a pointer-tree
// walk.
func (t *Tree) Splice(at, del int, ins []bool) *Tree {
	oldLen := t.paren.Len()
	if at < 0 || del < 0 || at+del > oldLen {
		panic("bp: splice range out of bounds")
	}
	b := bitvec.NewBuilder(oldLen - del + len(ins))
	b.AppendRange(t.paren, 0, at)
	for _, open := range ins {
		b.Append(open)
	}
	b.AppendRange(t.paren, at+del, oldLen)
	nt := &Tree{paren: b.Build(), n: t.n - del/2 + len(ins)/2}
	nt.buildBlocks()
	return nt
}

// --- Node-level navigation. Nodes are 0-based preorder ranks. ---

// pos returns the position of node v's open parenthesis.
func (t *Tree) pos(v int) int { return t.paren.Select1(v + 1) }

// OpenPos returns the bit position of node v's open parenthesis
// (select1(v+1)); patch splicing and the property tests use it to map
// preorder ranks to sequence positions.
func (t *Tree) OpenPos(v int) int { return t.pos(v) }

// node returns the preorder rank of the node whose open paren is at p.
func (t *Tree) node(p int) int { return t.paren.Rank1(p+1) - 1 }

// Parent returns the preorder rank of v's parent, or -1 for the root.
func (t *Tree) Parent(v int) int {
	p := t.Enclose(t.pos(v))
	if p < 0 {
		return -1
	}
	return t.node(p)
}

// FirstChild returns the preorder rank of v's first child, or -1 if v is a
// leaf.
func (t *Tree) FirstChild(v int) int {
	p := t.pos(v)
	if p+1 < t.paren.Len() && t.paren.Get(p+1) {
		return v + 1
	}
	return -1
}

// NextSibling returns the preorder rank of v's next sibling, or -1.
func (t *Tree) NextSibling(v int) int {
	c := t.FindClose(t.pos(v))
	if c+1 < t.paren.Len() && t.paren.Get(c+1) {
		return t.node(c + 1)
	}
	return -1
}

// IsLeaf reports whether v has no children.
func (t *Tree) IsLeaf(v int) bool { return t.FirstChild(v) == -1 }

// SubtreeSize returns the number of nodes in the subtree rooted at v.
func (t *Tree) SubtreeSize(v int) int {
	p := t.pos(v)
	c := t.FindClose(p)
	return (c - p + 1) / 2
}

// LastDescendant returns the preorder rank of the last node (in preorder)
// in v's subtree; equals v itself for leaves.
func (t *Tree) LastDescendant(v int) int {
	return v + t.SubtreeSize(v) - 1
}

// Depth returns the depth of v (root has depth 0).
func (t *Tree) Depth(v int) int {
	return t.Excess(t.pos(v)) - 1
}

// IsAncestor reports whether a is a (proper or improper) ancestor of v.
func (t *Tree) IsAncestor(a, v int) bool {
	return a <= v && v <= t.LastDescendant(a)
}

// LevelAncestor returns the ancestor of v at depth d, or -1 if d exceeds
// the depth of v. LevelAncestor(v, Depth(v)) == v.
func (t *Tree) LevelAncestor(v, d int) int {
	for v != -1 && t.Depth(v) > d {
		v = t.Parent(v)
	}
	if v == -1 || t.Depth(v) != d {
		return -1
	}
	return v
}

// LCA returns the lowest common ancestor of u and v.
func (t *Tree) LCA(u, v int) int {
	if u > v {
		u, v = v, u
	}
	for !t.IsAncestor(u, v) {
		u = t.Parent(u)
	}
	return u
}
