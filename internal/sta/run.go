package sta

import (
	"repro/internal/obsv"
	"repro/internal/tree"
)

// Run is an assignment of states to document nodes (indexed by preorder
// NodeID). States of the implicit binary leaves (#) are not materialized;
// acceptance at leaves is checked during evaluation.
type Run []State

// Result bundles the outcome of an evaluation.
type Result struct {
	// Accepted reports whether an accepting run exists.
	Accepted bool
	// Run is the state assignment of a full evaluation, EvalTopDownDet.
	// EvalTopDownJump records its partial run — NoState where it did not
	// visit — into one its caller passes instead.
	Run Run
	// Selected lists the selected nodes in document order.
	Selected []tree.NodeID
	// Work counts the nodes the evaluator touched (Visited) and, for
	// topdown_jump, its index jumps.
	obsv.Work
}

// EvalTopDownDet runs a top-down deterministic, top-down complete STA over
// the full binary tree of the document: the "extreme |Q|-optimization"
// evaluator of §1, visiting every node exactly once in document order.
func (a *STA) EvalTopDownDet(d *tree.Document) Result {
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
	run[0] = a.Top[0]
	accepted := true
	// ends holds where the subtrees open at v end, innermost last: the
	// top is the end of v's binary subtree, past which v has no sibling.
	ends := append(make([]tree.NodeID, 0, 64), tree.NodeID(n-1))
	for v := tree.NodeID(0); int(v) < n; v++ {
		q := run[v]
		res.Visited++
		dest, ok := a.DestDet(q, d.Label(v))
		if !ok {
			return Result{Run: run} // not complete; reject
		}
		if a.IsSelecting(q, d.Label(v)) {
			res.Selected = append(res.Selected, v)
		}
		last := d.LastDesc(v)
		if last < ends[len(ends)-1] {
			run[last+1] = dest.Right
		} else if !a.inBot[dest.Right] {
			accepted = false
		}
		if last > v {
			run[v+1] = dest.Left
			ends = append(ends, last)
		} else {
			if !a.inBot[dest.Left] {
				accepted = false
			}
			for len(ends) > 1 && ends[len(ends)-1] == v {
				ends = ends[:len(ends)-1] // the subtrees v is the last node of
			}
		}
	}
	if !accepted {
		return Result{Run: run, Work: res.Work}
	}
	res.Accepted = true
	return res
}
