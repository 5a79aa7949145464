package asta

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/labels"
	"repro/internal/tree"
)

// White-box tests for the jump analysis and the three-valued partial
// evaluation — load-bearing internals otherwise covered only end to end.

func TestLoopForm(t *testing.T) {
	q := State(3)
	cases := []struct {
		phi  *Formula
		sel  bool
		want int
	}{
		{Or(Down1(q), Down2(q)), false, 0},
		{Or(Down2(q), Down1(q)), false, 0}, // either order
		{Down1(q), false, 1},
		{Down2(q), false, 2},
		{Or(Down1(q), Down2(4)), false, -1},  // mixed states
		{Or(Down1(4), Down2(4)), false, -1},  // not the source state
		{Down2(4), false, -1},                // chains another state
		{Or(Down1(q), Down2(q)), true, -1},   // selecting is never a pure loop
		{And(Down1(q), Down2(q)), false, -1}, // conjunction must visit
		{True(), false, -1},
		{Not(Down2(q)), false, -1},
	}
	for i, tc := range cases {
		tr := &Transition{From: q, Phi: tc.phi, Selecting: tc.sel}
		if got := loopForm(tr); got != tc.want {
			t.Errorf("case %d (%s, sel=%v): loopForm = %d, want %d",
				i, tc.phi, tc.sel, got, tc.want)
		}
	}
}

// exampleASTA builds the Example 4.1 automaton by hand.
func exampleASTA(t *testing.T, a, b, c tree.LabelID) *ASTA {
	t.Helper()
	aut := &ASTA{
		NumStates: 3,
		Top:       StateSet(0).With(0),
		Trans: []Transition{
			{From: 0, Guard: labels.Of(a), Phi: Down1(1)},
			{From: 0, Guard: labels.Any, Phi: Or(Down1(0), Down2(0))},
			{From: 1, Guard: labels.Of(b), Phi: Down1(2), Selecting: true},
			{From: 1, Guard: labels.Any, Phi: Or(Down1(1), Down2(1))},
			{From: 2, Guard: labels.Of(c), Phi: True()},
			{From: 2, Guard: labels.Any, Phi: Down2(2)},
		},
	}
	out, err := aut.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestAnalyzeSetFigure1(t *testing.T) {
	lt := tree.NewLabelTable()
	a, b, c := lt.Intern("a"), lt.Intern("b"), lt.Intern("c")
	aut := exampleASTA(t, a, b, c)
	e := &evaluator{a: aut}

	// {q0}: jump to top-most a's (Figure 1: "if the destination state
	// for a subtree is {q0} the automaton can jump to the top-most a").
	ji := e.analyzeSet(StateSet(0).With(0))
	if ji.kind != jumpTopMost {
		t.Fatalf("{q0} kind = %v", ji.kind)
	}
	if ids, _ := ji.essential.Finite(); len(ids) != 1 || ids[0] != a {
		t.Errorf("{q0} essential = %s, want {a}", ji.essential.String(lt))
	}

	// {q0,q1}: jump to top-most a's and b's.
	ji = e.analyzeSet(StateSet(0).With(0).With(1))
	if ji.kind != jumpTopMost {
		t.Fatalf("{q0,q1} kind = %v", ji.kind)
	}
	if ids, _ := ji.essential.Finite(); len(ids) != 2 {
		t.Errorf("{q0,q1} essential = %s, want {a,b}", ji.essential.String(lt))
	}

	// {q2} alone: a following-sibling scan for c (rt jump).
	ji = e.analyzeSet(StateSet(0).With(2))
	if ji.kind != jumpRightPath {
		t.Fatalf("{q2} kind = %v", ji.kind)
	}
	if ids, _ := ji.essential.Finite(); len(ids) != 1 || ids[0] != c {
		t.Errorf("{q2} essential = %s, want {c}", ji.essential.String(lt))
	}

	// {q0,q1,q2}: mixed loop shapes — no jump ("no jump is possible,
	// the automaton must perform a firstChild or nextSibling move").
	ji = e.analyzeSet(StateSet(0).With(0).With(1).With(2))
	if ji.kind != jumpNone {
		t.Errorf("{q0,q1,q2} kind = %v, want none", ji.kind)
	}
}

// randomFormula builds a random negation-included formula over the given
// number of states.
func randomFormula(rng *rand.Rand, depth, states int) *Formula {
	if depth == 0 || rng.Intn(4) == 0 {
		switch rng.Intn(4) {
		case 0:
			return True()
		case 1:
			return &Formula{Kind: FFalse}
		case 2:
			return Down1(State(rng.Intn(states)))
		default:
			return Down2(State(rng.Intn(states)))
		}
	}
	switch rng.Intn(3) {
	case 0:
		return And(randomFormula(rng, depth-1, states), randomFormula(rng, depth-1, states))
	case 1:
		return Or(randomFormula(rng, depth-1, states), randomFormula(rng, depth-1, states))
	default:
		return Not(randomFormula(rng, depth-1, states))
	}
}

// evalTwoValued is the reference boolean semantics of a formula.
func evalTwoValued(f *Formula, sat1, sat2 StateSet) bool {
	switch f.Kind {
	case FTrue:
		return true
	case FFalse:
		return false
	case FDown:
		if f.Child == 1 {
			return sat1.Has(f.Q)
		}
		return sat2.Has(f.Q)
	case FNot:
		return !evalTwoValued(f.Left, sat1, sat2)
	case FAnd:
		return evalTwoValued(f.Left, sat1, sat2) && evalTwoValued(f.Right, sat1, sat2)
	case FOr:
		return evalTwoValued(f.Left, sat1, sat2) || evalTwoValued(f.Right, sat1, sat2)
	}
	return false
}

// Property: the three-valued partial evaluation is sound — if it decides
// a value from sat1 alone, that value holds for every sat2; and any sat2
// restricted to the reported needed states produces the same final
// formula value as the full sat2.
func TestPartialSoundness(t *testing.T) {
	const states = 5
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		phi := randomFormula(rng, 3, states)
		aut := &ASTA{NumStates: states}
		// Random marking set (partial prunes only non-marking states).
		aut.marking = StateSet(rng.Uint64() & ((1 << states) - 1))
		e := &evaluator{a: aut}
		sat1 := StateSet(rng.Uint64() & ((1 << states) - 1))
		tv, need := e.partial(phi, sat1)
		for trial := 0; trial < 16; trial++ {
			sat2 := StateSet(rng.Uint64() & ((1 << states) - 1))
			full := evalTwoValued(phi, sat1, sat2)
			if tv == pT && !full {
				return false
			}
			if tv == pF && full {
				return false
			}
			// Restricting the second child to the needed states must
			// not change the decided value.
			restricted := evalTwoValued(phi, sat1, sat2&need)
			if tv != pU && restricted != full {
				// Value was decided; both must equal the decided value.
				decided := tv == pT
				if full != decided || restricted != decided {
					return false
				}
			}
			if tv == pU && restricted != full {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: evalFormula's value agrees with the reference semantics, and
// its collected ops reference only true atoms of live branches.
func TestEvalFormulaAgainstReference(t *testing.T) {
	const states = 5
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		phi := randomFormula(rng, 3, states)
		sat1 := StateSet(rng.Uint64() & ((1 << states) - 1))
		sat2 := StateSet(rng.Uint64() & ((1 << states) - 1))
		var ops []srcRef
		got := evalFormula(phi, sat1, sat2, &ops)
		if got != evalTwoValued(phi, sat1, sat2) {
			return false
		}
		if !got && len(ops) != 0 {
			return false // false formulas contribute no lists
		}
		for _, o := range ops {
			sat := sat1
			if o.side == 2 {
				sat = sat2
			}
			if !sat.Has(o.q) {
				return false // ops must come from true atoms
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
