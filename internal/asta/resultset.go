package asta

import "repro/internal/tree"

// NodeList is the evaluator's private accumulation chain — the "simple
// lists with constant time concatenation" of §4.4. Leaves hold up to
// leafMax node ids in a contiguous arena block; an interior cell is one
// O(1) concatenation (rawConcat) and always has both children.
// Evaluation left-accumulates, so chains are as tall as they are long;
// nothing ever descends one except collect, with an explicit stack.
// Every cell carries its subtree's element count, so that collect knows
// the size of the answer block before it copies. Cells are shared
// freely between the lists of different states and are not mutated
// while evaluation runs. No NodeList leaves the package: an answer is
// the one block collect makes of the final chain.
type NodeList struct {
	// l, r are the interior children; both nil on leaves, both non-nil
	// on interior cells.
	l, r *NodeList
	// elems is the leaf payload (len >= 1); nil on interior cells.
	elems []tree.NodeID
	// count is the subtree element count, duplicates included.
	count int32
}

// leafMax is the chunk size: the largest element count a single leaf
// holds. 128 ids = 512 bytes, a few cache lines per leaf.
const leafMax = 128

// newLeaf wraps elems (len >= 1, ownership transferred) in a leaf.
func newLeaf(elems []tree.NodeID, ar *cellArena) *NodeList {
	n := ar.alloc()
	*n = NodeList{elems: elems, count: int32(len(elems))}
	return n
}

// rawConcat is the evaluator's O(1) concatenation, with nil the empty
// list: one interior cell over a and b.
func rawConcat(a, b *NodeList, ar *cellArena) *NodeList {
	if a == nil {
		return b
	}
	if b == nil {
		return a
	}
	n := ar.alloc()
	*n = NodeList{l: a, r: b, count: a.count + b.count}
	return n
}

// collect turns the final chain into the answer: its elements copied in
// concatenation order into one arena block sized by the root's count,
// made a set where it lies by tree.SortedSet. Evaluation emits in
// preorder, so the common case is the copy and one scan; out-of-order
// chains come from unions over jumped regions. A single leaf is already
// one block and is used as it is (evaluation is over: nothing reads the
// chain again). The stack is caller-owned scratch, so a warm run
// allocates nothing on the heap.
func collect(nl *NodeList, ar *cellArena, stackp *[]*NodeList) []tree.NodeID {
	if nl == nil {
		return nil
	}
	block := nl.elems
	if nl.l != nil {
		block = ar.allocIDs(int(nl.count))
		stack := append((*stackp)[:0], nl)
		for len(stack) > 0 {
			n := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for n.l != nil {
				stack = append(stack, n.r)
				n = n.l
			}
			block = append(block, n.elems...)
		}
		*stackp = stack
	}
	return tree.SortedSet(block)
}

// cellArena chunk-allocates chain cells and id storage (leaf blocks,
// tail buffers, the answer block): result lists live only for the
// duration of one evaluation, so batching their allocation removes the
// dominant per-node GC cost. Addresses are stable because a chunk is
// never grown, only appended to the chunk list. The arena is reusable:
// reset rewinds every chunk in place, so a warm evaluation re-fills the
// same memory instead of allocating — the caller (the evaluation
// Context) guarantees the previous answer is no longer referenced
// before resetting.
type cellArena struct {
	cells sliceArena[NodeList]
	ids   sliceArena[tree.NodeID]
}

const (
	arenaChunk = 512  // chain cells per chunk (a cell covers up to leafMax elems)
	idChunk    = 4096 // leaf ids per storage chunk
)

func (a *cellArena) alloc() *NodeList {
	if a.cells.chunkSize == 0 {
		a.cells.chunkSize = arenaChunk
	}
	return &a.cells.carveFull(1)[0]
}

// allocIDs carves an empty, capacity-n window for leaf storage —
// exclusively the caller's, with stable addresses (see sliceArena).
func (a *cellArena) allocIDs(n int) []tree.NodeID {
	if a.ids.chunkSize == 0 {
		a.ids.chunkSize = idChunk
	}
	return a.ids.carve(n)
}

// reset rewinds the arena for the next evaluation, keeping every chunk.
// Stale contents are never read: cells are fully overwritten on alloc
// and id windows only expose what their new owner appends.
func (a *cellArena) reset() {
	a.cells.reset()
	a.ids.reset()
}

// memBytes estimates the arena's resident bytes (capacity, not use).
func (a *cellArena) memBytes() int64 { return a.cells.memBytes() + a.ids.memBytes() }

// RSet is a result set Γ (Definition C.2): the mapping from states to the
// nodes selected under them, plus its domain — the set of states
// satisfied at the current node (↓i q tests membership of q in Dom(Γi)).
// The first two entries are inlined: compiled queries rarely carry node
// lists for more than two states at once, and keeping them out of the
// heap removes the dominant per-node allocation.
type RSet struct {
	// Sat is Dom(Γ): the satisfied states.
	Sat StateSet
	// n counts the live entries across e0, e1 and more.
	n  int32
	e0 rentry
	e1 rentry
	// more holds per-state node lists beyond the first two.
	more []rentry
}

// rentry is one Γ(q). Marked nodes are buffered in tail — an
// arena-backed block this entry exclusively owns — and flushed into the
// chain as one leaf when the block fills or the list is read, so the
// dominant operation (append one node) costs no chain cell at all.
// Ownership is what makes the in-place append safe: a chain handed out
// by list (and thus possibly shared) is never touched again.
type rentry struct {
	q    State
	nl   *NodeList
	tail []tree.NodeID
}

// tailInit is the first tail block size; blocks double up to leafMax,
// so entries that collect only a handful of nodes don't pin a full
// chunk of arena storage.
const tailInit = 8

// lookup returns the entry for q, or nil.
func (r *RSet) lookup(q State) *rentry {
	if r.n > 0 && r.e0.q == q {
		return &r.e0
	}
	if r.n > 1 && r.e1.q == q {
		return &r.e1
	}
	for i := range r.more {
		if r.more[i].q == q {
			return &r.more[i]
		}
	}
	return nil
}

// entry returns the entry for q, creating it on first sight.
func (r *RSet) entry(q State) *rentry {
	if e := r.lookup(q); e != nil {
		return e
	}
	switch r.n {
	case 0:
		r.e0 = rentry{q: q}
		r.n++
		return &r.e0
	case 1:
		r.e1 = rentry{q: q}
		r.n++
		return &r.e1
	default:
		r.more = append(r.more, rentry{q: q})
		r.n++
		return &r.more[len(r.more)-1]
	}
}

// flush moves the tail buffer into the chain as one leaf. The leaf takes
// the block as-is (capacity clamped, no copy); the entry starts a fresh
// block on the next append.
func (e *rentry) flush(ar *cellArena) {
	if len(e.tail) == 0 {
		return
	}
	e.nl = rawConcat(e.nl, newLeaf(e.tail[:len(e.tail):len(e.tail)], ar), ar)
	e.tail = nil
}

// list returns Γ(q), which is nil for states without collected nodes.
func (r *RSet) list(q State, ar *cellArena) *NodeList {
	e := r.lookup(q)
	if e == nil {
		return nil
	}
	e.flush(ar)
	return e.nl
}

// push appends one node to the entry's private tail block: no chain
// cell, no concat, just one slot. Blocks start at tailInit and double;
// a full leafMax block is flushed as one ready-made chunk leaf.
func (e *rentry) push(v tree.NodeID, ar *cellArena) {
	if len(e.tail) == cap(e.tail) {
		if cap(e.tail) >= leafMax {
			e.flush(ar)
			e.tail = ar.allocIDs(leafMax)
		} else {
			next := tailInit
			if c := 2 * cap(e.tail); c > next {
				next = c
			}
			grown := ar.allocIDs(next)
			grown = append(grown, e.tail...)
			e.tail = grown
		}
	}
	e.tail = append(e.tail, v)
}

// addNode appends the single node v to Γ(q) — the opMark fast path.
func (r *RSet) addNode(q State, v tree.NodeID, ar *cellArena) {
	r.entry(q).push(v, ar)
}

// tailAbsorb bounds the leaves add copies into the tail instead of
// concatenating: below it, a chain cell costs more than re-copying the
// elements, and absorbing is what packs the few-node lists flowing up
// the tree into full chunks (each element is re-copied only while its
// group is still below the bound, so the total copying stays linear).
const tailAbsorb = 16

// add concatenates nl onto Γ(q), assuming q will be in Sat. Small
// leaves are absorbed element-wise into the tail block; real chains
// flush the tail first (keeping concatenation order) and cost one
// O(1) raw concat cell.
func (r *RSet) add(q State, nl *NodeList, ar *cellArena) {
	if nl == nil {
		return
	}
	e := r.entry(q)
	if nl.l == nil && len(nl.elems) <= tailAbsorb {
		for _, v := range nl.elems {
			e.push(v, ar)
		}
		return
	}
	e.flush(ar)
	e.nl = rawConcat(e.nl, nl, ar)
}

// union merges another result set into r (used when combining the
// results of jumped-over sibling regions: the skipped nodes' transitions
// are pure unions, so Γ of the region is the union of the parts).
func (r *RSet) union(o *RSet, ar *cellArena) {
	r.Sat |= o.Sat
	if o.n > 0 {
		r.merge(&o.e0, ar)
	}
	if o.n > 1 {
		r.merge(&o.e1, ar)
	}
	for i := range o.more {
		r.merge(&o.more[i], ar)
	}
}

// merge unions one source entry into r: the chain part concatenates
// (small leaves absorbed, like add), and the source's still-buffered
// tail appends element-wise — flushing it into an intermediate leaf
// just to absorb it back out again would waste an arena block and a
// chain cell per region merge.
func (r *RSet) merge(src *rentry, ar *cellArena) {
	if src.nl == nil && len(src.tail) == 0 {
		return
	}
	e := r.entry(src.q)
	if src.nl != nil {
		if src.nl.l == nil && len(src.nl.elems) <= tailAbsorb {
			for _, v := range src.nl.elems {
				e.push(v, ar)
			}
		} else {
			e.flush(ar)
			e.nl = rawConcat(e.nl, src.nl, ar)
		}
	}
	for _, v := range src.tail {
		e.push(v, ar)
	}
}
