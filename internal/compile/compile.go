// Package compile translates Core XPath ASTs into automata: the full
// forward fragment into alternating selecting tree automata (§4.2,
// Example 4.1). XPath is translated once, by ToASTA; the deterministic
// top-down STA of the restricted child/descendant name-path fragment
// (the "extreme |Q|-optimization" of §1) is that ASTA determinized
// top-down (ToTDSTA) over the label partition its guards induce.
// Alternation is never removed from an ASTA with predicates: Example
// C.1's exponential blow-up is reproduced by counting DNF terms
// (internal/exp), not by building the automaton.
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

// ErrUnsupported marks queries outside the automata fragment (backward
// axes, text functions: §6's black boxes): CheckASTA's refusals, which
// ToASTA returns (Auto routes such a query to the step-wise engine), and
// CheckTDSTA's, which ToTDSTA returns. Match with errors.Is.
var ErrUnsupported = errors.New("query outside the automata fragment")

// CheckASTA reports why p is outside the fragment ToASTA compiles
// (wrapping ErrUnsupported), or nil when it is inside.
func CheckASTA(p *xpath.Path) error {
	states, what, rule := astaStates(p)
	switch {
	case rule != "":
		return fmt.Errorf("%w: %s, got %s", ErrUnsupported, rule, what)
	case states > asta.MaxStates:
		return fmt.Errorf("%w: query needs %d states, more than the %d of one automaton", ErrUnsupported, states, asta.MaxStates)
	}
	return nil
}

// astaStates counts the states of p's ASTA, or names the rule of its
// fragment that p breaks and what in p breaks it.
func astaStates(p *xpath.Path) (states int, what fmt.Stringer, rule string) {
	if !p.Absolute || len(p.Steps) == 0 {
		return 0, p, "top-level path must be absolute and non-empty"
	}
	// The synthetic initial state reads #doc; every step but `.`, of
	// the main path and of every predicate, takes one more.
	states = 1
	what, rule = checkSteps(p.Steps, &states)
	return states, what, rule
}

// checkSteps is astaStates for a path's steps, counting their states.
func checkSteps(steps []xpath.Step, states *int) (fmt.Stringer, string) {
	for i := range steps {
		st := &steps[i]
		switch st.Axis {
		case xpath.Self:
			if st.Test.Kind != xpath.TestNode {
				return st, "self axis supports only node()"
			}
		case xpath.Child, xpath.Attribute, xpath.Descendant, xpath.FollowingSibling:
			*states++
		default:
			// Up-moves are outside the forward fragment's theory (§6).
			return st, "forward axes only"
		}
		for _, pr := range st.Preds {
			if what, rule := checkPred(pr, states); rule != "" {
				return what, rule
			}
		}
	}
	return nil, ""
}

// checkPred is checkSteps for a predicate.
func checkPred(p xpath.Pred, states *int) (fmt.Stringer, string) {
	switch q := p.(type) {
	case *xpath.And:
		if what, rule := checkPred(q.Left, states); rule != "" {
			return what, rule
		}
		return checkPred(q.Right, states)
	case *xpath.Or:
		if what, rule := checkPred(q.Left, states); rule != "" {
			return what, rule
		}
		return checkPred(q.Right, states)
	case *xpath.Not:
		return checkPred(q.Inner, states)
	case *xpath.PathPred:
		if q.Path.Absolute {
			return q.Path, "absolute path in a predicate"
		}
		return checkSteps(q.Path.Steps, states)
	}
	// contains() and other text predicates are black-box functions to
	// the automaton (§6).
	return p, "predicate"
}

// ToASTA compiles a parsed query against a label table (normally the
// document's, so that guards refer to its label ids). Names absent from
// the table yield never-firing guards rather than errors: the query is
// legal, it just selects nothing. A query CheckASTA refuses is refused
// with its error.
func ToASTA(p *xpath.Path, names *tree.LabelTable) (*asta.ASTA, error) {
	if err := CheckASTA(p); err != nil {
		return nil, err
	}
	return BuildASTA(p, names), nil
}

// BuildASTA is ToASTA for a query CheckASTA has accepted, which it does
// not ask again: the compiled-query cache runs each fragment test once.
func BuildASTA(p *xpath.Path, names *tree.LabelTable) *asta.ASTA {
	c := &compiler{names: names}
	// The synthetic initial state reads the #doc root and launches the
	// first step at its children; it selects the root itself when every
	// step is a `.`.
	qI := c.newState()
	phi := c.anchor(p.Steps, true)
	c.trans = append(c.trans, asta.Transition{
		From:      qI,
		Guard:     labels.Of(tree.LabelDoc),
		Phi:       phi,
		Selecting: selfOnly(p.Steps),
	})
	out, err := (&asta.ASTA{
		NumStates: int(c.next),
		Top:       asta.StateSet(0).With(qI),
		Trans:     c.trans,
	}).Finalize()
	if err != nil {
		panic(err) // CheckASTA bounds the states; nothing else fails
	}
	return out
}

type compiler struct {
	names *tree.LabelTable
	next  asta.State
	trans []asta.Transition
	// star and node are the * and node() guards, built on first use and
	// shared by every step after: each names all the attribute names.
	star, node labels.Set
}

// newState allocates the next state; CheckASTA has already bounded
// their number by asta.MaxStates.
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
		return c.allBut(&c.star, true)
	case xpath.TestNode:
		// node() matches anything on the child axis except the encoded
		// attributes (and never the synthetic root).
		return c.allBut(&c.node, false)
	case xpath.TestText:
		return labels.Of(tree.LabelText)
	}
	return labels.None
}

// allBut returns *g, first setting it, when empty, to every label but
// #doc, the attribute labels and, when excludeText is set, #text.
func (c *compiler) allBut(g *labels.Set, excludeText bool) labels.Set {
	if !g.IsEmpty() {
		return *g
	}
	out := []tree.LabelID{tree.LabelDoc}
	if excludeText {
		out = append(out, tree.LabelText)
	}
	for i, name := range c.names.Names() {
		if tree.IsAttributeName(name) {
			out = append(out, tree.LabelID(i))
		}
	}
	*g = labels.Not(out...)
	return *g
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
// selection path: its last step other than `.` has the ⇒ form of match
// transition.
func (c *compiler) anchor(steps []xpath.Step, selecting bool) *asta.Formula {
	if len(steps) == 0 {
		return asta.True()
	}
	st := steps[0]
	cont := c.conjoinPreds(st.Preds, c.anchor(steps[1:], selecting))
	if st.Axis == xpath.Self {
		// "." — the context itself; predicates and the rest of the
		// path apply here directly.
		return cont
	}
	g := c.guard(st.Test)
	sel := selecting && selfOnly(steps[1:])
	switch st.Axis {
	case xpath.Descendant:
		return asta.Down1(c.searchState(descSearch, g, cont, sel))
	case xpath.FollowingSibling:
		return asta.Down2(c.searchState(sibSearch, g, cont, sel))
	}
	// Child and attribute steps.
	return asta.Down1(c.searchState(sibSearch, g, cont, sel))
}

// selfOnly reports whether every one of steps is a `.` step.
func selfOnly(steps []xpath.Step) bool {
	for _, st := range steps {
		if st.Axis != xpath.Self {
			return false
		}
	}
	return true
}

// conjoinPreds conjoins the step's predicate formulas with the
// continuation.
func (c *compiler) conjoinPreds(preds []xpath.Pred, cont *asta.Formula) *asta.Formula {
	out := cont
	for i := len(preds) - 1; i >= 0; i-- {
		out = asta.And(c.pred(preds[i]), out)
	}
	return out
}

// pred compiles a predicate to a formula evaluated at the candidate
// node. CheckASTA has admitted only these four kinds, and relative
// paths.
func (c *compiler) pred(p xpath.Pred) *asta.Formula {
	switch q := p.(type) {
	case *xpath.And:
		return asta.And(c.pred(q.Left), c.pred(q.Right))
	case *xpath.Or:
		return asta.Or(c.pred(q.Left), c.pred(q.Right))
	case *xpath.Not:
		return asta.Not(c.pred(q.Inner))
	}
	return c.anchor(p.(*xpath.PathPred).Path.Steps, false)
}

// Compile parses and compiles in one call.
func Compile(query string, names *tree.LabelTable) (*asta.ASTA, error) {
	p, err := xpath.Parse(query)
	if err != nil {
		return nil, err
	}
	return ToASTA(p, names)
}
