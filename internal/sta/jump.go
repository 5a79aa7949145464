package sta

import (
	"repro/internal/index"
	"repro/internal/labels"
	"repro/internal/tree"
)

// JumpKind classifies how a subtree entered in a given state can be
// traversed, per the case analysis of Lemma 3.1 / Algorithm B.1.
type JumpKind int

// Jump kinds.
const (
	// JumpNone: mixed looping behavior; the node must be visited.
	JumpNone JumpKind = iota
	// JumpTopMost: the state loops on both children for non-essential
	// labels — jump to the top-most essential-labeled nodes (dt/ft).
	JumpTopMost
	// JumpLeftPath: the state loops on the left child and ignores the
	// right (q⊤) — jump along the leftmost path (lt).
	JumpLeftPath
	// JumpRightPath: symmetric — jump along the rightmost path (rt).
	JumpRightPath
	// JumpFail: the state is a sink; no accepting run exists.
	JumpFail
)

// JumpInfo is the per-state relevance analysis: which labels are
// essential (§2, after Definition 2.4 — labels on which the state changes
// or selects) and how the non-essential remainder loops.
type JumpInfo struct {
	Kind      JumpKind
	Essential labels.Set
}

// AnalyzeState computes the JumpInfo of q for a minimal (or at least
// sink/universal-normalized) TDSTA. The analysis is conservative: when in
// doubt it returns JumpNone, which only costs visits, never correctness.
func (a *STA) AnalyzeState(q State) JumpInfo {
	if a.IsTopDownSink(q) {
		return JumpInfo{Kind: JumpFail}
	}
	// Jumping past a region assigns q to all its skipped # leaves (and
	// q⊤ to ignored siblings); that is only sound when q ∈ B, otherwise
	// a fully non-essential subtree must be rejected, which requires
	// visiting it. Minimal automata for satisfiable queries always have
	// their looping states in B, so this guard costs nothing in practice.
	if !a.inBot[q] {
		return JumpInfo{Kind: JumpNone}
	}
	essential := a.selOf[q] // selected nodes are always relevant
	loopBoth := labels.None
	loopLeft := labels.None  // (q, q⊤)
	loopRight := labels.None // (q⊤, q)
	for _, ti := range a.byFrom[q] {
		t := a.Trans[ti]
		guard := t.Guard.Minus(essential)
		switch {
		case t.Selecting:
			essential = essential.Union(t.Guard)
		case t.Dest.Left == q && t.Dest.Right == q:
			loopBoth = loopBoth.Union(guard)
		case t.Dest.Left == q && a.IsTopDownUniversal(t.Dest.Right):
			loopLeft = loopLeft.Union(guard)
		case t.Dest.Right == q && a.IsTopDownUniversal(t.Dest.Left):
			loopRight = loopRight.Union(guard)
		default:
			essential = essential.Union(t.Guard)
		}
	}
	loopBoth = loopBoth.Minus(essential)
	loopLeft = loopLeft.Minus(essential)
	loopRight = loopRight.Minus(essential)
	// A pure looping pattern is required; mixtures cannot jump.
	switch {
	case loopLeft.IsEmpty() && loopRight.IsEmpty() && essential.Union(loopBoth).IsAny():
		if _, ok := essential.Finite(); !ok {
			return JumpInfo{Kind: JumpNone}
		}
		return JumpInfo{Kind: JumpTopMost, Essential: essential}
	case loopBoth.IsEmpty() && loopRight.IsEmpty() && essential.Union(loopLeft).IsAny():
		return JumpInfo{Kind: JumpLeftPath, Essential: essential}
	case loopBoth.IsEmpty() && loopLeft.IsEmpty() && essential.Union(loopRight).IsAny():
		if _, ok := essential.Finite(); !ok {
			return JumpInfo{Kind: JumpNone}
		}
		return JumpInfo{Kind: JumpRightPath, Essential: essential}
	default:
		return JumpInfo{Kind: JumpNone}
	}
}

// RelevantTopDown computes the top-down relevant nodes of a full run per
// Lemma 3.1: π is relevant iff (R(π), t(π)) ∈ S or the destination pair
// breaks all three looping patterns. Used as the oracle for Theorem 3.1.
func (a *STA) RelevantTopDown(d *tree.Document, run Run) []tree.NodeID {
	var out []tree.NodeID
	for v := tree.NodeID(0); int(v) < d.NumNodes(); v++ {
		q := run[v]
		if q == NoState {
			continue
		}
		l := d.Label(v)
		if a.IsSelecting(q, l) {
			out = append(out, v)
			continue
		}
		dest, ok := a.DestDet(q, l)
		if !ok {
			continue
		}
		switch {
		case dest.Left == q && dest.Right == q:
		case dest.Left == q && a.IsTopDownUniversal(dest.Right):
		case dest.Right == q && a.IsTopDownUniversal(dest.Left):
		default:
			out = append(out, v)
		}
	}
	return out
}

// EvalTopDownJump is Algorithm B.1 (topdown_jump): it evaluates a minimal
// top-down deterministic complete STA visiting only (a superset of) the
// top-down relevant nodes, jumping with the dt/ft/lt/rt functions of
// cur, a cursor set over d's index that no other run moves meanwhile.
// Its cost is that of what it visits, never O(n): the jump analysis of
// every state was made once, by Finalize.
//
// A non-nil run, of d.NumNodes() entries, records the partial run:
// states exactly at the visited nodes, NoState elsewhere (Theorem 3.1).
// The query path passes nil and reads only the answer and the work.
// The answer is appended to dst[:0], a buffer the caller lends; a
// rejected run answers it empty.
func (a *STA) EvalTopDownJump(d *tree.Document, cur *index.Cursors, run Run, dst []tree.NodeID) Result {
	for i := range run {
		run[i] = NoState
	}
	n := d.NumNodes()
	res := Result{Selected: dst[:0]}
	if n == 0 {
		res.Accepted = len(a.Top) == 1 && a.inBot[a.Top[0]]
		return res
	}

	// A frame is the binary subtree rooted at v, entered in state q. It
	// carries where that subtree ends (tree.Document.BinEnd), so that
	// the loop asks the document for one number per visited node, where
	// its subtree ends: the left child's binary subtree ends there too,
	// and the right sibling exists if that is short of the node's own
	// end, which it shares. Only a jump that lands below the node it
	// started from asks for a BinEnd.
	//
	// A region frame is what is left of a top-most jump in q: the
	// interval (v, end], whose top-most essential nodes the cursors
	// name one at a time, as the frame is popped.
	type frame struct {
		v, end tree.NodeID
		q      State
		region bool
	}
	var few [32]frame
	stack := append(few[:0], frame{0, tree.NodeID(n - 1), a.Top[0], false})
	// Each pop either jumps (relevant_nodes of Algorithm B.1: the frame
	// is replaced by the relevant nodes of its subtree, whose labels are
	// essential, so they are visited when popped) or visits v. Frames are
	// pushed right sibling first, so nodes are visited in document order
	// and every question to the cursors is past the one before.
	for len(stack) > 0 {
		f := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		q, v := f.q, f.v
		ji := &a.jump[q]
		if f.region { // ft: the next top-most node u, then the rest past u's subtree
			ids, _ := ji.Essential.Finite()
			if u := cur.First(ids, v, f.end); u != index.Nil {
				end := d.BinEnd(u)
				stack = append(stack, frame{end, f.end, q, true}, frame{u, end, q, false})
			}
			continue
		}
		l := d.Label(v)
		if ji.Kind == JumpFail {
			return Result{Selected: res.Selected[:0], Work: res.Work}
		}
		if ji.Kind != JumpNone && !ji.Essential.Contains(l) {
			res.Jumps++
			switch ji.Kind {
			case JumpTopMost:
				stack = append(stack, frame{v, f.end, q, true})
			case JumpLeftPath:
				if u := cur.Lt(v, ji.Essential); u != index.Nil {
					stack = append(stack, frame{u, d.BinEnd(u), q, false})
				}
			case JumpRightPath:
				if u := cur.Rt(v, ji.Essential); u != index.Nil {
					stack = append(stack, frame{u, f.end, q, false}) // a sibling of v
				}
			}
			continue
		}
		if run != nil {
			run[v] = q
		}
		res.Visited++
		dest, ok := a.DestDet(q, l)
		if !ok {
			return Result{Selected: res.Selected[:0], Work: res.Work}
		}
		if a.IsSelecting(q, l) {
			res.Selected = append(res.Selected, v)
		}
		// A state that cannot accept fails the run where it is assigned,
		// before the subtrees already pushed are visited.
		last := d.LastDesc(v)
		if last == f.end { // no right sibling
			if !a.inBot[dest.Right] {
				return Result{Selected: res.Selected[:0], Work: res.Work}
			}
		} else if a.jump[dest.Right].Kind == JumpFail {
			return Result{Selected: res.Selected[:0], Work: res.Work}
		} else {
			stack = append(stack, frame{last + 1, f.end, dest.Right, false})
		}
		if last == v { // no child
			if !a.inBot[dest.Left] {
				return Result{Selected: res.Selected[:0], Work: res.Work}
			}
		} else if a.jump[dest.Left].Kind == JumpFail {
			return Result{Selected: res.Selected[:0], Work: res.Work}
		} else {
			stack = append(stack, frame{v + 1, last, dest.Left, false})
		}
	}
	res.Accepted = true
	res.Selected = tree.SortedSet(res.Selected)
	return res
}
