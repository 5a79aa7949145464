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
// absolute chains of at most 64 child/descendant steps with name tests
// and no predicates. Eval reports ErrUnsupported otherwise; CheckChain
// asks the same question without evaluating, which is how Auto routes
// every such chain here.
package hybrid

import (
	"errors"
	"fmt"

	"repro/internal/index"
	"repro/internal/obsv"
	"repro/internal/tree"
	"repro/internal/xpath"
)

// ErrUnsupported reports a query outside the hybrid fragment.
var ErrUnsupported = errors.New("hybrid: query outside the chain fragment")

// maxSteps bounds a chain: the upward check keeps one bit a step.
const maxSteps = 64

// CheckChain's refusals, one per rule, built once: Auto asks about
// every query, so a refusal allocates nothing. It names the rule the
// query breaks, not the query's text.
var (
	errRelative   = fmt.Errorf("%w: path must be absolute and non-empty", ErrUnsupported)
	errTooLong    = fmt.Errorf("%w: at most %d steps", ErrUnsupported, maxSteps)
	errAxis       = fmt.Errorf("%w: child and descendant axes only", ErrUnsupported)
	errNodeTest   = fmt.Errorf("%w: name tests only", ErrUnsupported)
	errPredicates = fmt.Errorf("%w: predicates", ErrUnsupported)
)

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
// ErrUnsupported), or nil when Eval accepts it. Auto routes by it, so a
// query Auto sends here is one Eval runs.
func CheckChain(p *xpath.Path) error {
	if !p.Absolute || len(p.Steps) == 0 {
		return errRelative
	}
	if len(p.Steps) > maxSteps {
		return errTooLong
	}
	for _, st := range p.Steps {
		if st.Axis != xpath.Child && st.Axis != xpath.Descendant {
			return errAxis
		}
		if st.Test.Kind != xpath.TestName {
			return errNodeTest
		}
		if len(st.Preds) > 0 {
			return errPredicates
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
	// The pivot is the deepest of the rarest steps: below it there is
	// less left to scan than below an equally rare step higher up.
	pivot := 0
	for i, st := range steps {
		if ix.Count(st.label) <= ix.Count(steps[pivot].label) {
			pivot = i
		}
	}
	e := &evaluator{d: d, labels: make([]labelSteps, 0, len(steps))}
	for i, st := range steps {
		e.addStep(i, st)
	}
	last := len(steps) - 1
	occ := ix.Occurrences(steps[last].label)
	e.work.Jumps += 2 // the final label's row, and the pivot's below
	for o := range ix.Occurrences(steps[pivot].label).From(0) {
		v := tree.NodeID(o)
		e.work.Visited++
		if !e.matchUp(v, pivot, d.Root(), -1) {
			continue
		}
		if pivot == last {
			e.out = append(e.out, v)
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
			if u := tree.NodeID(c); e.matchUp(u, last, v, pivot) {
				e.out = append(e.out, u)
			}
		}
	}
	return Result{Selected: tree.SortedSet(e.out), Pivot: pivot, Work: e.work}, nil
}

type evaluator struct {
	d *tree.Document
	// labels maps each label of the chain to its steps, a bit a step;
	// desc has the bits of the descendant steps.
	labels []labelSteps
	desc   uint64
	work   obsv.Work
	// out is the answer in the order it is found, which is document order
	// unless pivot occurrences nest: then the candidates under an inner
	// pivot were already found under the outer one, and tree.SortedSet
	// removes them.
	out []tree.NodeID
}

type labelSteps struct {
	label tree.LabelID
	steps uint64
}

// addStep enters step i of the chain into the evaluator's bitmasks.
func (e *evaluator) addStep(i int, st chainStep) {
	if st.desc {
		e.desc |= 1 << i
	}
	for k := range e.labels {
		if e.labels[k].label == st.label {
			e.labels[k].steps |= 1 << i
			return
		}
	}
	e.labels = append(e.labels, labelSteps{label: st.label, steps: 1 << i})
}

// stepsOf returns the steps whose name test label l passes.
func (e *evaluator) stepsOf(l tree.LabelID) uint64 {
	for _, ls := range e.labels {
		if ls.label == l {
			return ls.steps
		}
	}
	return 0
}

// matchUp reports whether u, a node that carries the label of step k,
// can serve as the step-k node with steps j+1..k-1 realized on the path
// strictly between u and s, the step-j node (the document root for
// j = -1). It is one walk up that path, O(depth) whatever the chain:
// placed holds the steps the current node can serve as, need the steps
// that must sit at the next ancestor (a child step is placed below
// them) and open the steps that may sit at any ancestor further up (a
// descendant step is placed below them). Step j+1 placed where its axis
// reaches s completes the chain.
func (e *evaluator) matchUp(u tree.NodeID, k int, s tree.NodeID, j int) bool {
	first := uint64(1) << (j + 1)
	between := (uint64(1)<<k - 1) &^ (first - 1) // steps j+1..k-1
	placed, open := uint64(1)<<k, uint64(0)
	for a := u; ; {
		if placed&first != 0 && (e.desc&first != 0 || e.d.Parent(a) == s) {
			return true
		}
		need := ((placed &^ e.desc) >> 1) & between
		open = (open | (placed&e.desc)>>1) & between
		if need|open == 0 {
			return false
		}
		if a = e.d.Parent(a); a == s || a == tree.Nil {
			return false
		}
		e.work.Visited++
		placed = (need | open) & e.stepsOf(e.d.Label(a))
	}
}
