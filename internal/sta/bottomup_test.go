package sta

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/index"
	"repro/internal/labels"
	"repro/internal/obsv"
	"repro/internal/tree"
)

// This file holds the bottom-up half of §3: the bottom-up deterministic
// runs (§3.2, Algorithm B.2), the bottom-up relevant nodes (Lemma 3.2)
// and bottom-up minimization. No query runs bottom-up, so it is test
// code, exercised by the bottom-up tests of sta_test.go and
// minimize_test.go.

// EvalBottomUpDet runs a bottom-up deterministic, bottom-up complete STA
// over the full binary tree: the "pure bottom-up" evaluation of §3.2.
// Implemented as a reverse-preorder sweep (binary children have larger
// preorder ranks than their binary parent, so one backward pass is a
// bottom-up evaluation); LeafReduction is the paper's literal
// leaf-sequence algorithm and computes the same run (tested).
func (a *STA) EvalBottomUpDet(d *tree.Document) Result {
	n := d.NumNodes()
	run := make(Run, n)
	res := Result{Run: run, Work: obsv.Work{Visited: n}}
	if len(a.Bottom) != 1 {
		return Result{Run: run}
	}
	q0 := a.Bottom[0]
	for v := n - 1; v >= 0; v-- {
		node := tree.NodeID(v)
		ql, qr := q0, q0
		if c := d.FirstChild(node); c != tree.Nil {
			ql = run[c]
		}
		if c := d.NextSibling(node); c != tree.Nil {
			qr = run[c]
		}
		q, ok := a.SourceDet(ql, qr, d.Label(node))
		if !ok {
			return Result{Run: make(Run, 0), Work: obsv.Work{Visited: n - v}}
		}
		run[v] = q
	}
	if !slices.Contains(a.Top, run[0]) {
		return Result{Run: run, Work: res.Work}
	}
	res.Accepted = true
	for v := tree.NodeID(0); int(v) < n; v++ {
		if a.IsSelecting(run[v], d.Label(v)) {
			res.Selected = append(res.Selected, v)
		}
	}
	return res
}

// leafEntry is one element of the reduction list of Algorithm B.2: a
// completed binary subtree (rooted at a real node, or a # leaf slot)
// together with its state.
type leafEntry struct {
	// parent is the binary parent of the subtree root; side is 1 for a
	// left child, 2 for a right child. The document root has parent Nil.
	parent tree.NodeID
	side   int8
	state  State
}

// LeafReduction is the literal Algorithm B.2: start from the sequence of
// all # leaves of the binary tree in preorder, each in state q0, and
// repeatedly replace two sibling entries by their parent with
// δ(q1, q2, label). It returns the full run and acceptance. It exists to
// validate EvalBottomUpDet against the paper's pseudocode; both compute
// the unique bottom-up run.
func (a *STA) LeafReduction(d *tree.Document) (Run, bool) {
	n := d.NumNodes()
	run := make(Run, n)
	if len(a.Bottom) != 1 {
		return nil, false
	}
	q0 := a.Bottom[0]

	// binParent/binSide for real nodes.
	binParent := make([]tree.NodeID, n)
	binSide := make([]int8, n)
	binParent[0] = tree.Nil
	for v := tree.NodeID(0); int(v) < n; v++ {
		if c := d.FirstChild(v); c != tree.Nil {
			binParent[c] = v
			binSide[c] = 1
		}
		if c := d.NextSibling(v); c != tree.Nil {
			binParent[c] = v
			binSide[c] = 2
		}
	}

	// Shift-reduce over the preorder leaf sequence. A stack entry whose
	// top two elements are the left and right children of the same
	// parent is reduced immediately; this performs exactly the
	// reductions of the recursive formulation (the reduction system is
	// confluent — each parent has a unique pair of children).
	var stack []leafEntry
	reduce := func() bool {
		for len(stack) >= 2 {
			r := stack[len(stack)-1]
			l := stack[len(stack)-2]
			if l.parent != r.parent || l.parent == tree.Nil || l.side != 1 || r.side != 2 {
				return true
			}
			v := l.parent
			q, ok := a.SourceDet(l.state, r.state, d.Label(v))
			if !ok {
				return false
			}
			run[v] = q
			stack = stack[:len(stack)-2]
			stack = append(stack, leafEntry{binParent[v], binSide[v], q})
		}
		return true
	}
	// Emit the # leaves in binary preorder, reducing eagerly after each.
	var walk func(v tree.NodeID) bool
	walk = func(v tree.NodeID) bool {
		if l := d.FirstChild(v); l != tree.Nil {
			if !walk(l) {
				return false
			}
		} else {
			stack = append(stack, leafEntry{v, 1, q0})
			if !reduce() {
				return false
			}
		}
		if r := d.NextSibling(v); r != tree.Nil {
			if !walk(r) {
				return false
			}
		} else {
			stack = append(stack, leafEntry{v, 2, q0})
			if !reduce() {
				return false
			}
		}
		return true
	}
	if !walk(0) {
		return nil, false
	}
	if len(stack) != 1 {
		return nil, false
	}
	return run, slices.Contains(a.Top, stack[0].state)
}

// BottomUpUniversal returns the bottom-up universal state q⊤ (non-changing
// and in T, Definition 2.4) if the automaton has one.
func (a *STA) BottomUpUniversal() (State, bool) {
	for q := State(0); int(q) < a.NumStates; q++ {
		if a.NonChanging(q) && slices.Contains(a.Top, q) && !a.IsMarking(q) {
			return q, true
		}
	}
	return NoState, false
}

// RelevantBottomUp computes the bottom-up relevant nodes of a full run
// per Lemma 3.2. Children at # positions carry q0.
func (a *STA) RelevantBottomUp(d *tree.Document, run Run) []tree.NodeID {
	if len(a.Bottom) != 1 {
		return nil
	}
	q0 := a.Bottom[0]
	qTop, hasTop := a.BottomUpUniversal()
	trivial := func(q State) bool { return q == q0 || (hasTop && q == qTop) }
	var out []tree.NodeID
	for v := tree.NodeID(0); int(v) < d.NumNodes(); v++ {
		q := run[v]
		if a.IsSelecting(q, d.Label(v)) {
			out = append(out, v)
			continue
		}
		if hasTop && q == qTop {
			continue
		}
		ql, qr := q0, q0
		if c := d.FirstChild(v); c != tree.Nil {
			ql = run[c]
		}
		if c := d.NextSibling(v); c != tree.Nil {
			qr = run[c]
		}
		switch {
		case q == ql && q == qr:
		case q == ql && trivial(qr):
		case q == qr && trivial(ql):
		default:
			out = append(out, v)
		}
	}
	return out
}

// bottomUpEssential computes the labels on which a region of q0-states
// can change: δ(q0, q0, l) ≠ q0 or (q0, l) selecting. A binary subtree
// containing no such label evaluates to q0 without being visited.
func (a *STA) bottomUpEssential() labels.Set {
	if len(a.Bottom) != 1 {
		return labels.Any
	}
	q0 := a.Bottom[0]
	loop := labels.None
	for _, t := range a.Trans {
		if t.From == q0 && t.Dest.Left == q0 && t.Dest.Right == q0 {
			loop = loop.Union(t.Guard)
		}
	}
	// A label is skippable iff the (q0, q0) pair maps back to q0 on it
	// and it is not a selecting configuration of q0.
	return loop.Minus(a.selOf[q0]).Complement()
}

// EvalBottomUpJump is the bottomup_jump evaluator sketched in §3.2: a
// bottom-up run that never enters binary subtrees containing no
// essential label — such regions reduce to q0 unobserved. It is the
// skipping counterpart of EvalBottomUpDet; ancestor hops are performed
// with parent moves, as in the paper's implementation ("the tree indexes
// that we use do not implement the ancestor jumps efficiently"). The dt
// jumps are cur's, a cursor set over d's index: the regions are entered
// in document order, so each question is past the one before.
func (a *STA) EvalBottomUpJump(d *tree.Document, cur *index.Cursors) Result {
	n := d.NumNodes()
	run := make(Run, n)
	for i := range run {
		run[i] = NoState
	}
	if len(a.Bottom) != 1 {
		return Result{Run: run}
	}
	q0 := a.Bottom[0]
	essential := a.bottomUpEssential()
	ids, finite := essential.Finite()
	if !finite {
		// No skipping possible; fall back to the full sweep.
		return a.EvalBottomUpDet(d)
	}
	res := Result{Run: run}

	// hasEssential reports whether v's binary subtree contains an
	// essential label (including v itself).
	hasEssential := func(v tree.NodeID) bool {
		if essential.Contains(d.Label(v)) {
			return true
		}
		return cur.First(ids, v, d.BinEnd(v)) != index.Nil
	}

	// Iterative postorder over the binary tree, skipping dead regions.
	type frame struct {
		v        tree.NodeID
		expanded bool
	}
	state := func(c tree.NodeID) State {
		if c == tree.Nil {
			return q0
		}
		if run[c] == NoState {
			return q0 // skipped region
		}
		return run[c]
	}
	stack := []frame{{v: 0}}
	for len(stack) > 0 {
		f := &stack[len(stack)-1]
		if !f.expanded {
			f.expanded = true
			if !hasEssential(f.v) {
				// Whole region reduces to q0 unvisited.
				stack = stack[:len(stack)-1]
				continue
			}
			for _, c := range []tree.NodeID{d.NextSibling(f.v), d.FirstChild(f.v)} {
				if c != tree.Nil {
					stack = append(stack, frame{v: c})
				}
			}
			continue
		}
		v := f.v
		stack = stack[:len(stack)-1]
		q, ok := a.SourceDet(state(d.FirstChild(v)), state(d.NextSibling(v)), d.Label(v))
		if !ok {
			return Result{Run: make(Run, 0), Work: res.Work}
		}
		run[v] = q
		res.Visited++
		if a.IsSelecting(q, d.Label(v)) {
			res.Selected = append(res.Selected, v)
		}
	}
	root := run[0]
	if root == NoState {
		root = q0
	}
	if !slices.Contains(a.Top, root) {
		return Result{Run: run, Work: res.Work}
	}
	res.Accepted = true
	res.Selected = tree.SortedSet(res.Selected)
	return res
}

// Sources returns δ(q1, q2, l): all states q with a transition
// q, L -> (q1, q2) and l ∈ L.
func (a *STA) Sources(q1, q2 State, l tree.LabelID) []State {
	var out []State
	for _, t := range a.Trans {
		if t.Dest.Left == q1 && t.Dest.Right == q2 && t.Guard.Contains(l) {
			out = append(out, t.From)
		}
	}
	return out
}

// SourceDet returns the unique source state of a bottom-up deterministic
// automaton for (q1, q2, l), or ok=false.
func (a *STA) SourceDet(q1, q2 State, l tree.LabelID) (State, bool) {
	for _, t := range a.Trans {
		if t.Dest.Left == q1 && t.Dest.Right == q2 && t.Guard.Contains(l) {
			return t.From, true
		}
	}
	return NoState, false
}

// IsBottomUpDeterministic reports whether |B| == 1 and δ(q1, q2, l) has at
// most one element for all q1, q2, l.
func (a *STA) IsBottomUpDeterministic() bool {
	if len(a.Bottom) != 1 {
		return false
	}
	for i := 0; i < len(a.Trans); i++ {
		for j := i + 1; j < len(a.Trans); j++ {
			ti, tj := a.Trans[i], a.Trans[j]
			if ti.Dest == tj.Dest && ti.From != tj.From && ti.Guard.Overlaps(tj.Guard) {
				return false
			}
		}
	}
	return true
}

// IsBottomUpComplete reports whether δ(q1, q2, l) is non-empty for every
// pair of states and every label of the effective alphabet.
func (a *STA) IsBottomUpComplete() bool {
	alpha := a.EffectiveAlphabet()
	for q1 := State(0); int(q1) < a.NumStates; q1++ {
		for q2 := State(0); int(q2) < a.NumStates; q2++ {
			for _, l := range alpha {
				if _, ok := a.SourceDet(q1, q2, l); !ok {
					// Non-deterministic automata may have several
					// sources; any is fine for completeness.
					if len(a.Sources(q1, q2, l)) == 0 {
						return false
					}
				}
			}
		}
	}
	return true
}

// MinimizeBottomUp returns the minimal BDSTA equivalent to a. The
// automaton must be bottom-up deterministic and bottom-up complete.
func (a *STA) MinimizeBottomUp() *STA {
	gen := a.generable()
	alpha := a.EffectiveAlphabet()
	class := make([]int, a.NumStates)
	keys := make(map[string]int)
	for q := 0; q < a.NumStates; q++ {
		if !gen[q] {
			class[q] = -1
			continue
		}
		k := fmt.Sprintf("%v|%s", slices.Contains(a.Top, State(q)), a.selOf[q].String(nil))
		id, ok := keys[k]
		if !ok {
			id = len(keys)
			keys[k] = id
		}
		class[q] = id
	}
	// Precompute source lookups once per (q1, q2, l).
	for {
		next := make([]int, a.NumStates)
		sigs := make(map[string]int)
		for q := 0; q < a.NumStates; q++ {
			if !gen[q] {
				next[q] = -1
				continue
			}
			var sb strings.Builder
			fmt.Fprintf(&sb, "c%d", class[q])
			for other := 0; other < a.NumStates; other++ {
				if !gen[other] {
					continue
				}
				for _, l := range alpha {
					if s, ok := a.SourceDet(State(q), State(other), l); ok {
						fmt.Fprintf(&sb, "|L%d", class[s])
					} else {
						sb.WriteString("|L∅")
					}
					if s, ok := a.SourceDet(State(other), State(q), l); ok {
						fmt.Fprintf(&sb, "|R%d", class[s])
					} else {
						sb.WriteString("|R∅")
					}
				}
			}
			sig := sb.String()
			id, ok := sigs[sig]
			if !ok {
				id = len(sigs)
				sigs[sig] = id
			}
			next[q] = id
		}
		if len(sigs) == countClasses(class) {
			break
		}
		class = next
	}
	return a.quotient(class)
}

// generable returns the states reachable bottom-up: B at the leaves,
// closed under δ upward.
func (a *STA) generable() []bool {
	gen := make([]bool, a.NumStates)
	for _, q := range a.Bottom {
		gen[q] = true
	}
	for changed := true; changed; {
		changed = false
		for _, t := range a.Trans {
			if !gen[t.From] && gen[t.Dest.Left] && gen[t.Dest.Right] {
				gen[t.From] = true
				changed = true
			}
		}
	}
	return gen
}
