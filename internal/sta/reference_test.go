package sta

import (
	"repro/internal/obsv"
	"repro/internal/tree"
)

// This file holds the reference semantics of a (possibly
// nondeterministic) STA, Definition 2.3: the oracle the deterministic
// and jumping runs are tested against.

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

// Equivalent reports whether a and b select the same nodes and accept the
// same trees on the given sample documents; a cheap stand-in for the
// EXPTIME-complete exact equivalence used by tests.
func Equivalent(a, b *STA, docs []*tree.Document) bool {
	for _, d := range docs {
		ra, rb := a.Eval(d), b.Eval(d)
		if ra.Accepted != rb.Accepted {
			return false
		}
		if len(ra.Selected) != len(rb.Selected) {
			return false
		}
		for i := range ra.Selected {
			if ra.Selected[i] != rb.Selected[i] {
				return false
			}
		}
	}
	return true
}
