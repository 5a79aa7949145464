package sta

import (
	"sort"

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
// top-down relevant nodes, jumping with the index's dt/ft/lt/rt
// functions. The returned run is partial: states are recorded exactly at
// the visited nodes (Theorem 3.1).
func (a *STA) EvalTopDownJump(d *tree.Document, ix *index.Index) Result {
	n := d.NumNodes()
	run := make(Run, n)
	for i := range run {
		run[i] = NoState
	}
	res := Result{Run: run}
	if n == 0 {
		res.Accepted = len(a.Top) == 1 && a.inBot[a.Top[0]]
		return res
	}
	info := make([]JumpInfo, a.NumStates)
	for q := 0; q < a.NumStates; q++ {
		info[q] = a.AnalyzeState(State(q))
	}

	// A frame carries the end of its node's binary subtree
	// (tree.Document.BinEnd), so that the loop asks the document for one
	// number per visited node, where its subtree ends: the left child's
	// binary subtree ends there too, and the right sibling exists if that
	// is short of the node's own end, which it shares. Only a jump that
	// lands below the node it started from asks for a BinEnd.
	type frame struct {
		v, end tree.NodeID
		q      State
	}
	var stack []frame
	fail := false

	// push schedules the relevant nodes of the binary subtree rooted at
	// v, which ends at end, entered in state q (relevant_nodes of
	// Algorithm B.1).
	push := func(v, end tree.NodeID, q State) {
		ji := info[q]
		switch ji.Kind {
		case JumpFail:
			fail = true
		case JumpNone:
			stack = append(stack, frame{v, end, q})
		case JumpTopMost:
			if ji.Essential.Contains(d.Label(v)) {
				stack = append(stack, frame{v, end, q})
				return
			}
			tops, _ := ix.TopMost(v, ji.Essential)
			for i := len(tops) - 1; i >= 0; i-- {
				stack = append(stack, frame{tops[i], d.BinEnd(tops[i]), q})
			}
		case JumpLeftPath:
			if ji.Essential.Contains(d.Label(v)) {
				stack = append(stack, frame{v, end, q})
				return
			}
			if u := ix.Lt(v, ji.Essential); u != index.Nil {
				stack = append(stack, frame{u, d.BinEnd(u), q})
			}
		case JumpRightPath:
			if ji.Essential.Contains(d.Label(v)) {
				stack = append(stack, frame{v, end, q})
				return
			}
			if u := ix.Rt(v, ji.Essential); u != index.Nil {
				stack = append(stack, frame{u, end, q}) // a sibling of v
			}
		}
	}

	push(0, tree.NodeID(n-1), a.Top[0])
	// Collect selected nodes; the stack is LIFO over right-pushed
	// reversed sibling lists, so pops come in document order already for
	// TopMost fan-out, but interleaved subtree recursion can reorder —
	// sort at the end via insertion into a slice then final sort.
	for len(stack) > 0 && !fail {
		f := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		q, v := f.q, f.v
		l := d.Label(v)
		run[v] = q
		res.Visited++
		dest, ok := a.DestDet(q, l)
		if !ok {
			fail = true
			break
		}
		if a.IsSelecting(q, l) {
			res.Selected = append(res.Selected, v)
		}
		last := d.LastDesc(v)
		if last == f.end { // no right sibling
			if !a.inBot[dest.Right] {
				fail = true
				break
			}
		} else if info[dest.Right].Kind == JumpFail {
			fail = true
			break
		} else {
			push(last+1, f.end, dest.Right)
		}
		if last == v { // no child
			if !a.inBot[dest.Left] {
				fail = true
				break
			}
		} else if info[dest.Left].Kind == JumpFail {
			fail = true
			break
		} else {
			push(v+1, last, dest.Left)
		}
	}
	if fail {
		return Result{Run: make(Run, 0), Visited: res.Visited}
	}
	res.Accepted = true
	sortNodes(res.Selected)
	return res
}

func sortNodes(ns []tree.NodeID) {
	// The DFS visits nodes in document order, so results are almost
	// always already sorted; verify cheaply and only sort on violation.
	for i := 1; i < len(ns); i++ {
		if ns[i-1] > ns[i] {
			sort.Slice(ns, func(a, b int) bool { return ns[a] < ns[b] })
			return
		}
	}
}
