// Package compile translates Core XPath ASTs into automata: the full
// forward fragment into alternating selecting tree automata (§4.2,
// Example 4.1), and the restricted child/descendant name-path fragment
// into deterministic top-down STAs (the "extreme |Q|-optimization" of
// §1).
//
// The ASTA compilation follows the paper's scheme: one state per query
// step, at most two transitions per state — a "progress" transition
// whose formula encodes the predicates and the continuation to the next
// step, and a "recursion" transition that moves the search through the
// document (↓1 q ∨ ↓2 q for descendant steps, ↓2 q for child/sibling
// scans).
package compile

import (
	"errors"
	"fmt"

	"repro/internal/asta"
	"repro/internal/labels"
	"repro/internal/tree"
	"repro/internal/xpath"
)

// ErrUnsupported marks queries outside the automata fragment — the
// compile failures an Auto strategy may legitimately route to the
// step-wise engine (backward axes, text functions, §6's black-box
// handling). Errors that do not match it are real failures and must
// surface. Match with errors.Is.
var ErrUnsupported = errors.New("query outside the automata fragment")

// unsupportedf builds a fragment-violation error: errors.Is matches it
// against ErrUnsupported without altering the message text.
func unsupportedf(format string, args ...any) error {
	return &unsupportedError{msg: fmt.Sprintf(format, args...)}
}

type unsupportedError struct{ msg string }

func (e *unsupportedError) Error() string { return e.msg }

func (e *unsupportedError) Is(target error) bool { return target == ErrUnsupported }

// ToASTA compiles a parsed query against a label table (normally the
// document's, so that guards refer to its label ids). Names absent from
// the table yield never-firing guards rather than errors: the query is
// legal, it just selects nothing.
func ToASTA(p *xpath.Path, names *tree.LabelTable) (*asta.ASTA, error) {
	c := &compiler{names: names}
	if !p.Absolute {
		return nil, unsupportedf("compile: top-level query must be absolute, got %q", p.String())
	}
	if len(p.Steps) == 0 {
		return nil, unsupportedf("compile: empty path")
	}
	// The synthetic initial state reads the #doc root and launches the
	// first step at its children.
	qI := c.newState()
	phi, err := c.anchor(p.Steps, true)
	if err != nil {
		return nil, err
	}
	if int(c.next) > asta.MaxStates {
		return nil, unsupportedf("compile: query needs %d states, more than the %d of one automaton", c.next, asta.MaxStates)
	}
	c.trans = append(c.trans, asta.Transition{
		From:  qI,
		Guard: labels.Of(tree.LabelDoc),
		Phi:   phi,
	})
	out := &asta.ASTA{
		NumStates: int(c.next),
		Top:       asta.StateSet(0).With(qI),
		Trans:     c.trans,
	}
	return out.Finalize()
}

// MustToASTA panics on error; for fixed query tables in tests and
// benchmarks.
func MustToASTA(p *xpath.Path, names *tree.LabelTable) *asta.ASTA {
	a, err := ToASTA(p, names)
	if err != nil {
		panic(err)
	}
	return a
}

type compiler struct {
	names *tree.LabelTable
	next  asta.State
	trans []asta.Transition
}

// newState allocates the next state. ToASTA refuses the query once the
// whole of it is compiled, if it needed more than asta.MaxStates.
func (c *compiler) newState() asta.State {
	q := c.next
	c.next++
	return q
}

// guard translates a node test into a label set.
func (c *compiler) guard(t xpath.NodeTest) labels.Set {
	switch t.Kind {
	case xpath.TestName:
		if id, ok := c.names.Lookup(t.Name); ok {
			return labels.Of(id)
		}
		return labels.None
	case xpath.TestStar:
		// * matches elements only: not the synthetic root, not text,
		// not the encoded attributes.
		return labels.Not(c.nonElements(true)...)
	case xpath.TestNode:
		// node() matches anything on the child axis except the encoded
		// attributes (and never the synthetic root).
		return labels.Not(c.nonElements(false)...)
	case xpath.TestText:
		return labels.Of(tree.LabelText)
	}
	return labels.None
}

// nonElements lists #doc, optionally #text, and every attribute label.
func (c *compiler) nonElements(excludeText bool) []tree.LabelID {
	out := []tree.LabelID{tree.LabelDoc}
	if excludeText {
		out = append(out, tree.LabelText)
	}
	for i, name := range c.names.Names() {
		if len(name) > 0 && name[0] == '@' {
			out = append(out, tree.LabelID(i))
		}
	}
	return out
}

// searchKind distinguishes the two recursion shapes of §4.2.
type searchKind int8

const (
	descSearch searchKind = iota // self-or-binary-subtree: ↓1 q ∨ ↓2 q
	sibSearch                    // self-or-right-spine: ↓2 q
)

// searchState allocates the state for one location step: a match
// transition guarded by the node test whose formula is the continuation,
// and the recursion transition of the search kind.
func (c *compiler) searchState(kind searchKind, g labels.Set, cont *asta.Formula, selecting bool) asta.State {
	q := c.newState()
	c.trans = append(c.trans, asta.Transition{
		From: q, Guard: g, Phi: cont, Selecting: selecting,
	})
	var rec *asta.Formula
	if kind == descSearch {
		rec = asta.Or(asta.Down1(q), asta.Down2(q))
	} else {
		rec = asta.Down2(q)
	}
	c.trans = append(c.trans, asta.Transition{
		From: q, Guard: labels.Any, Phi: rec,
	})
	return q
}

// anchor compiles "steps match starting from the context node" into a
// formula evaluated at the context node. selecting marks the main
// selection path: its final step's match transition is the ⇒ form.
func (c *compiler) anchor(steps []xpath.Step, selecting bool) (*asta.Formula, error) {
	if len(steps) == 0 {
		return asta.True(), nil
	}
	st := steps[0]
	if st.Axis == xpath.Self {
		if st.Test.Kind != xpath.TestNode {
			return nil, unsupportedf("compile: self axis supports only node(), got %s", st.Test)
		}
		// "." — the context itself; predicates and the rest of the
		// path apply here directly.
		rest, err := c.anchor(steps[1:], selecting)
		if err != nil {
			return nil, err
		}
		return c.conjoinPreds(st.Preds, rest)
	}
	last := len(steps) == 1
	cont, err := c.anchor(steps[1:], selecting)
	if err != nil {
		return nil, err
	}
	cont, err = c.conjoinPreds(st.Preds, cont)
	if err != nil {
		return nil, err
	}
	g := c.guard(st.Test)
	sel := selecting && last
	switch st.Axis {
	case xpath.Child, xpath.Attribute:
		q := c.searchState(sibSearch, g, cont, sel)
		return asta.Down1(q), nil
	case xpath.Descendant:
		q := c.searchState(descSearch, g, cont, sel)
		return asta.Down1(q), nil
	case xpath.FollowingSibling:
		q := c.searchState(sibSearch, g, cont, sel)
		return asta.Down2(q), nil
	case xpath.Parent, xpath.Ancestor, xpath.AncestorOrSelf:
		// Up-moves are outside the forward fragment's theory (§6); the
		// engine evaluates such queries with the step-wise fallback.
		return nil, unsupportedf("compile: backward axis %v not supported by the automata pipeline", st.Axis)
	}
	return nil, unsupportedf("compile: unsupported axis %v", st.Axis)
}

// conjoinPreds conjoins the step's predicate formulas with the
// continuation.
func (c *compiler) conjoinPreds(preds []xpath.Pred, cont *asta.Formula) (*asta.Formula, error) {
	out := cont
	for i := len(preds) - 1; i >= 0; i-- {
		pf, err := c.pred(preds[i])
		if err != nil {
			return nil, err
		}
		out = asta.And(pf, out)
	}
	return out, nil
}

// pred compiles a predicate to a formula evaluated at the candidate node.
func (c *compiler) pred(p xpath.Pred) (*asta.Formula, error) {
	switch q := p.(type) {
	case *xpath.And:
		l, err := c.pred(q.Left)
		if err != nil {
			return nil, err
		}
		r, err := c.pred(q.Right)
		if err != nil {
			return nil, err
		}
		return asta.And(l, r), nil
	case *xpath.Or:
		l, err := c.pred(q.Left)
		if err != nil {
			return nil, err
		}
		r, err := c.pred(q.Right)
		if err != nil {
			return nil, err
		}
		return asta.Or(l, r), nil
	case *xpath.Not:
		inner, err := c.pred(q.Inner)
		if err != nil {
			return nil, err
		}
		return asta.Not(inner), nil
	case *xpath.PathPred:
		if q.Path.Absolute {
			return nil, unsupportedf("compile: absolute paths in predicates are not supported: %s", q.Path)
		}
		return c.anchor(q.Path.Steps, false)
	case *xpath.Contains:
		// Text predicates are black-box functions to the automaton
		// (§6); the engine evaluates such queries step-wise.
		return nil, unsupportedf("compile: contains() not supported by the automata pipeline")
	}
	return nil, unsupportedf("compile: unknown predicate %T", p)
}

// Compile parses and compiles in one call.
func Compile(query string, names *tree.LabelTable) (*asta.ASTA, error) {
	p, err := xpath.Parse(query)
	if err != nil {
		return nil, err
	}
	return ToASTA(p, names)
}
