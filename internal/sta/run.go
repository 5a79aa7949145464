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
	// Run is the state assignment: complete for full evaluations,
	// partial — NoState elsewhere — for EvalBottomUpJump. EvalTopDownJump
	// records its partial run into one its caller passes instead.
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

// stateSets is a per-node array of state sets, as bool matrices.
type stateSets [][]bool

func newStateSets(n, states int) stateSets {
	flat := make([]bool, n*states)
	out := make(stateSets, n)
	for i := range out {
		out[i] = flat[i*states : (i+1)*states]
	}
	return out
}

// Possible computes, for every node, the set of states q such that the
// subtree below that binary position admits a run from q (the bottom-up
// reachability DP). It is the reference nondeterministic semantics and
// the oracle all optimized evaluators are tested against.
func (a *STA) Possible(d *tree.Document) stateSets {
	n := d.NumNodes()
	poss := newStateSets(n, a.NumStates)
	// Reverse preorder: binary children (first child, next sibling) have
	// larger preorder ids, so they are done before their binary parent.
	for v := n - 1; v >= 0; v-- {
		node := tree.NodeID(v)
		l := d.Label(node)
		left := d.BinaryLeft(node)
		right := d.BinaryRight(node)
		for _, t := range a.Trans {
			if poss[v][t.From] || !t.Guard.Contains(l) {
				continue
			}
			okL := left == tree.Nil && a.inBot[t.Dest.Left] ||
				left != tree.Nil && poss[left][t.Dest.Left]
			if !okL {
				continue
			}
			okR := right == tree.Nil && a.inBot[t.Dest.Right] ||
				right != tree.Nil && poss[right][t.Dest.Right]
			if okR {
				poss[v][t.From] = true
			}
		}
	}
	return poss
}

// Eval computes the exact semantics of a (possibly nondeterministic) STA
// on a document: acceptance, and the set A(t) of nodes selected by *some*
// accepting run (Definition 2.3). Runs in O(|δ| · |D|).
func (a *STA) Eval(d *tree.Document) Result {
	n := d.NumNodes()
	res := Result{Work: obsv.Work{Visited: n}}
	poss := a.Possible(d)
	// acc[v][q]: q is assumed at v by at least one accepting run.
	acc := newStateSets(n, a.NumStates)
	any := false
	for _, q := range a.Top {
		if poss[0][q] {
			acc[0][q] = true
			any = true
		}
	}
	if !any {
		return res
	}
	res.Accepted = true
	for v := 0; v < n; v++ {
		node := tree.NodeID(v)
		l := d.Label(node)
		left := d.BinaryLeft(node)
		right := d.BinaryRight(node)
		selected := false
		for _, t := range a.Trans {
			if !acc[v][t.From] || !t.Guard.Contains(l) {
				continue
			}
			okL := left == tree.Nil && a.inBot[t.Dest.Left] ||
				left != tree.Nil && poss[left][t.Dest.Left]
			okR := right == tree.Nil && a.inBot[t.Dest.Right] ||
				right != tree.Nil && poss[right][t.Dest.Right]
			if !okL || !okR {
				continue
			}
			// Transition usable by an accepting run.
			if left != tree.Nil {
				acc[left][t.Dest.Left] = true
			}
			if right != tree.Nil {
				acc[right][t.Dest.Right] = true
			}
			if !selected && a.IsSelecting(t.From, l) {
				selected = true
			}
		}
		if selected {
			res.Selected = append(res.Selected, node)
		}
	}
	return res
}

// Accepts reports whether t ∈ L(A).
func (a *STA) Accepts(d *tree.Document) bool {
	poss := a.Possible(d)
	for _, q := range a.Top {
		if poss[0][q] {
			return true
		}
	}
	return false
}
