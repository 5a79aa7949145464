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
// and no predicates. Compile refuses others with ErrUnsupported and
// resolves a chain's labels once per label table, for Chain.Eval to run
// on any document with that table; CheckChain asks the same question
// without compiling.
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

// CheckChain's refusals, one per rule, built once, so a refusal
// allocates nothing. It names the rule the query breaks, not the
// query's text.
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

// CheckChain reports why p is outside the chain fragment (wrapping
// ErrUnsupported), or nil when Compile accepts it.
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

// Chain is a chain query compiled against one label table: the label
// of each step and the bitmasks matchUp walks by. It is immutable, so
// it serves every document with that table, concurrently; Eval picks
// the pivot per run, from the document's label counts.
type Chain struct {
	// steps is nil when a label is absent from the table: no answer.
	steps []tree.LabelID
	// labels maps each label of the chain to its steps, a bit a step;
	// desc has the bits of the descendant steps.
	labels []labelSteps
	desc   uint64
}

// Compile validates p (CheckChain) and then resolves its labels against
// names, so a query outside the fragment is refused even when some label
// is absent from the table.
func Compile(p *xpath.Path, names *tree.LabelTable) (*Chain, error) {
	if err := CheckChain(p); err != nil {
		return nil, err
	}
	c := &Chain{steps: make([]tree.LabelID, len(p.Steps))}
	for i, st := range p.Steps {
		id, ok := names.Lookup(st.Test.Name)
		if !ok {
			return &Chain{}, nil
		}
		c.steps[i] = id
		c.addStep(i, st.Axis == xpath.Descendant, id)
	}
	return c, nil
}

// addStep enters step i of the chain into the bitmasks.
func (c *Chain) addStep(i int, desc bool, label tree.LabelID) {
	if desc {
		c.desc |= 1 << i
	}
	for k := range c.labels {
		if c.labels[k].label == label {
			c.labels[k].steps |= 1 << i
			return
		}
	}
	c.labels = append(c.labels, labelSteps{label: label, steps: 1 << i})
}

// stepsOf returns the steps whose name test label l passes.
func (c *Chain) stepsOf(l tree.LabelID) uint64 {
	for _, ls := range c.labels {
		if ls.label == l {
			return ls.steps
		}
	}
	return 0
}

// Eval evaluates the chain over d, which must use the label table it
// was compiled against, starting from its cheapest step. The answer is
// appended to dst[:0], a buffer the caller lends.
func (c *Chain) Eval(d *tree.Document, ix *index.Index, dst []tree.NodeID) Result {
	if c.steps == nil {
		return Result{Selected: dst[:0]}
	}
	// The pivot is the deepest of the rarest steps: below it there is
	// less left to scan than below an equally rare step higher up.
	pivot := 0
	for i, l := range c.steps {
		if ix.Count(l) <= ix.Count(c.steps[pivot]) {
			pivot = i
		}
	}
	e := &evaluator{Chain: c, d: d, out: dst[:0]}
	last := len(c.steps) - 1
	occ := ix.Occurrences(c.steps[last])
	e.work.Jumps += 2 // the final label's row, and the pivot's below
	for o := range ix.Occurrences(c.steps[pivot]).From(0) {
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
		for cand := range occ.From(from) {
			if cand > end {
				break
			}
			e.work.Visited++
			if u := tree.NodeID(cand); e.matchUp(u, last, v, pivot) {
				e.out = append(e.out, u)
			}
		}
	}
	return Result{Selected: tree.SortedSet(e.out), Pivot: pivot, Work: e.work}
}

// evaluator is one run of a Chain over one document.
type evaluator struct {
	*Chain
	d    *tree.Document
	work obsv.Work
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
