// Package hybrid implements the "start anywhere" evaluation strategy of
// §4.4: for a query like //listitem//keyword//emph, pick the step whose
// label has the lowest global count (the index answers counts in O(1)),
// jump directly to its occurrences, verify the upward context with
// parent moves (the paper's index has no upward jumps either) and match
// the remaining downward steps against the indexed occurrences of the
// final label inside each pivot's subtree. Configurations A and B of
// Figure 5 are the cases where this wins by orders of magnitude.
//
// The strategy applies to the fragment the paper demonstrates it on:
// absolute chains of child/descendant steps with name tests and no
// predicates. Eval reports ErrUnsupported otherwise; CheckChain asks the
// same question without evaluating, which is how Auto decides whether
// to offer this engine at all.
package hybrid

import (
	"errors"
	"fmt"
	"slices"

	"repro/internal/index"
	"repro/internal/obsv"
	"repro/internal/tree"
	"repro/internal/xpath"
)

// ErrUnsupported reports a query outside the hybrid fragment.
var ErrUnsupported = errors.New("hybrid: query outside the chain fragment")

// Result is the evaluation outcome.
type Result struct {
	Selected []tree.NodeID
	// Pivot is the step index evaluation started from.
	Pivot int
	// Work counts the nodes inspected (pivot occurrences, ancestor-walk
	// steps and downward candidates) and the index jumps: each
	// occurrence row taken and each search in one.
	obsv.Work
}

// chainStep is a normalized step of the supported fragment.
type chainStep struct {
	desc  bool // descendant axis (child otherwise)
	label tree.LabelID
}

// CheckChain reports why p is outside the chain fragment (wrapping
// ErrUnsupported), or nil when Eval accepts it. Auto's chain probe asks
// it, so a query the selector routes here is one Eval runs.
func CheckChain(p *xpath.Path) error {
	if !p.Absolute || len(p.Steps) == 0 {
		return fmt.Errorf("%w: path must be absolute", ErrUnsupported)
	}
	for _, st := range p.Steps {
		if st.Axis != xpath.Child && st.Axis != xpath.Descendant {
			return fmt.Errorf("%w: axis %v", ErrUnsupported, st.Axis)
		}
		if st.Test.Kind != xpath.TestName {
			return fmt.Errorf("%w: node test %s", ErrUnsupported, st.Test)
		}
		if len(st.Preds) > 0 {
			return fmt.Errorf("%w: predicates", ErrUnsupported)
		}
	}
	return nil
}

// normalize validates the fragment and resolves labels; ok is false when
// a label is absent from the document (empty result). The whole fragment
// is validated before labels are resolved, so queries outside it report
// ErrUnsupported even when some label is absent from this document.
func normalize(p *xpath.Path, names *tree.LabelTable) ([]chainStep, bool, error) {
	if err := CheckChain(p); err != nil {
		return nil, false, err
	}
	out := make([]chainStep, len(p.Steps))
	for i, st := range p.Steps {
		id, ok := names.Lookup(st.Test.Name)
		if !ok {
			return nil, false, nil
		}
		out[i] = chainStep{desc: st.Axis == xpath.Descendant, label: id}
	}
	return out, true, nil
}

// Eval evaluates a chain query starting from its cheapest step.
func Eval(d *tree.Document, ix *index.Index, p *xpath.Path) (Result, error) {
	steps, ok, err := normalize(p, d.Names())
	if err != nil {
		return Result{}, err
	}
	if !ok {
		return Result{}, nil
	}
	pivot := 0
	for i, st := range steps {
		if ix.Count(st.label) < ix.Count(steps[pivot].label) {
			pivot = i
		}
	}
	e := &evaluator{d: d, ix: ix, steps: steps}
	last := len(steps) - 1
	occ := ix.Occurrences(steps[last].label)
	e.work.Jumps += 2 // the final label's row, and the pivot's below
	for o := range ix.Occurrences(steps[pivot].label).From(0) {
		v := tree.NodeID(o)
		e.work.Visited++
		if !e.matchUpTo(v, pivot) {
			continue
		}
		if pivot == last {
			e.add(v)
			continue
		}
		// Downward part: candidates are the indexed occurrences of the
		// final label inside v's subtree; each verifies the
		// intermediate chain by walking ancestors back toward v.
		e.work.Jumps++
		from, _ := occ.Search(uint32(v + 1))
		end := uint32(e.d.LastDesc(v))
		for c := range occ.From(from) {
			if c > end {
				break
			}
			e.work.Visited++
			if u := tree.NodeID(c); e.matchBetween(u, last, v, pivot) {
				e.add(u)
			}
		}
	}
	if e.unsorted {
		slices.Sort(e.out)
		e.out = slices.Compact(e.out)
	}
	return Result{Selected: e.out, Pivot: pivot, Work: e.work}, nil
}

// EvalString parses and evaluates.
func EvalString(d *tree.Document, ix *index.Index, query string) (Result, error) {
	p, err := xpath.Parse(query)
	if err != nil {
		return Result{}, err
	}
	return Eval(d, ix, p)
}

type evaluator struct {
	d     *tree.Document
	ix    *index.Index
	steps []chainStep
	work  obsv.Work
	// out is the answer in the order it is found, which is document order
	// unless pivot occurrences nest: then the candidates under an inner
	// pivot were already found under the outer one. unsorted says a node
	// was added that is not above the one before it; only such an answer
	// pays for the sort and the removal of duplicates.
	out      []tree.NodeID
	unsorted bool
}

func (e *evaluator) add(u tree.NodeID) {
	e.unsorted = e.unsorted || len(e.out) > 0 && e.out[len(e.out)-1] >= u
	e.out = append(e.out, u)
}

// matchUpTo reports whether u, a node that carries the label of step i —
// an occurrence from that label's row, or an ancestor found to — can
// serve as the step-i node of the chain, with steps[0..i-1] realized by
// ancestors (a backtracking match; chains and document depths are small).
// The label of a candidate ancestor is tested where it is found, so a
// climb past nodes of other labels is one loop, not a call a node.
func (e *evaluator) matchUpTo(u tree.NodeID, i int) bool {
	if i == 0 {
		if e.steps[0].desc {
			return true
		}
		return e.d.Parent(u) == e.d.Root()
	}
	want := e.steps[i-1].label
	if !e.steps[i].desc {
		e.work.Visited++
		a := e.d.Parent(u)
		return a != tree.Nil && e.d.Label(a) == want && e.matchUpTo(a, i-1)
	}
	for a := e.d.Parent(u); a != tree.Nil; a = e.d.Parent(a) {
		e.work.Visited++
		if e.d.Label(a) == want && e.matchUpTo(a, i-1) {
			return true
		}
	}
	return false
}

// matchBetween reports whether u, a node below the pivot node v that
// carries the label of step k, can serve as the step-k node with
// steps[pivot+1..k-1] realized strictly between v and u.
func (e *evaluator) matchBetween(u tree.NodeID, k int, v tree.NodeID, pivot int) bool {
	if k == pivot+1 {
		if e.steps[k].desc {
			// u is inside v's subtree by construction.
			return true
		}
		return e.d.Parent(u) == v
	}
	want := e.steps[k-1].label
	if !e.steps[k].desc {
		e.work.Visited++
		a := e.d.Parent(u)
		return a != tree.Nil && a != v && e.d.Label(a) == want && e.matchBetween(a, k-1, v, pivot)
	}
	for a := e.d.Parent(u); a != tree.Nil && a != v; a = e.d.Parent(a) {
		e.work.Visited++
		if e.d.Label(a) == want && e.matchBetween(a, k-1, v, pivot) {
			return true
		}
	}
	return false
}
