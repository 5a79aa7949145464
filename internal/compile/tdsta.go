package compile

import (
	"errors"
	"fmt"

	"repro/internal/asta"
	"repro/internal/labels"
	"repro/internal/sta"
	"repro/internal/tree"
	"repro/internal/xpath"
)

// ToTDSTA compiles the restricted fragment — absolute paths of child and
// descendant steps with name or * tests and no predicates — into a
// top-down deterministic selecting tree automaton: the "extreme
// |Q|-optimization" of §1, evaluated with a single lookup per node (or,
// minimized, with topdown_jump visiting only relevant nodes).
//
// The compilation allocates one state per step:
//
//	child step i      q_i, {name} → (q_{i+1}, q_i)    siblings keep scanning
//	                  q_i, other  → (q⊤,     q_i)     subtree irrelevant
//	descendant step i q_i, {name} → (q_{i+1}, q_i)    plus the subtree keeps
//	                  q_i, other  → (q_i,    q_i)     searching below
//
// with the final step's match transition selecting (continuing in q⊤ on
// the left for a child step, or recursively for a descendant step).
func ToTDSTA(p *xpath.Path, names *tree.LabelTable) (*sta.STA, error) {
	if err := CheckTDSTA(p); err != nil {
		return nil, err
	}
	n := len(p.Steps)
	// States: 0 = initial (at #doc), 1..n = step states, n+1 = q⊤,
	// n+2 = q⊥ (only initial can fail: non-#doc root).
	qInit := sta.State(0)
	qStep := func(i int) sta.State { return sta.State(1 + i) }
	qTop := sta.State(n + 1)
	qBot := sta.State(n + 2)
	aut := &sta.STA{
		NumStates: n + 3,
		Top:       []sta.State{qInit},
	}
	// Every state except q⊥ may label a # leaf.
	for q := sta.State(0); q <= qTop; q++ {
		aut.Bottom = append(aut.Bottom, q)
	}
	aut.Trans = append(aut.Trans,
		sta.Transition{From: qInit, Guard: labels.Of(tree.LabelDoc), Dest: sta.Pair{Left: qStep(0), Right: qTop}},
		sta.Transition{From: qInit, Guard: labels.Not(tree.LabelDoc), Dest: sta.Pair{Left: qBot, Right: qBot}},
		sta.Transition{From: qTop, Guard: labels.Any, Dest: sta.Pair{Left: qTop, Right: qTop}},
		sta.Transition{From: qBot, Guard: labels.Any, Dest: sta.Pair{Left: qBot, Right: qBot}},
	)
	c := &compiler{names: names}
	for i, st := range p.Steps {
		q := qStep(i)
		last := i == n-1
		var matchLeft sta.State
		switch {
		case last && st.Axis == xpath.Descendant:
			matchLeft = q // keep searching below a match
		case last:
			matchLeft = qTop
		default:
			matchLeft = qStep(i + 1)
		}
		g := c.guard(st.Test)
		var miss sta.Pair
		if st.Axis == xpath.Descendant {
			miss = sta.Pair{Left: q, Right: q}
		} else {
			miss = sta.Pair{Left: qTop, Right: q}
		}
		aut.Trans = append(aut.Trans,
			sta.Transition{From: q, Guard: g, Dest: sta.Pair{Left: matchLeft, Right: q}, Selecting: last},
			sta.Transition{From: q, Guard: g.Complement(), Dest: miss},
		)
	}
	return aut.Finalize(), nil
}

// errTDSTAPredicates is CheckTDSTA's answer to every query with a
// predicate, most of what Auto asks it about: built once, so routing such
// a query allocates nothing here.
var errTDSTAPredicates = errors.New("compile: TDSTA fragment does not support predicates")

// CheckTDSTA reports why p is outside the fragment ToTDSTA compiles, or
// nil when it is inside. Auto routes by it before any compilation, so
// the route and the compiler cannot disagree.
// A path of n steps compiles to n+3 states, and the fragment stops
// below asta.MaxStates steps, so a cached TDSTA is bounded like a
// cached ASTA.
func CheckTDSTA(p *xpath.Path) error {
	if !p.Absolute || len(p.Steps) == 0 {
		return fmt.Errorf("compile: TDSTA fragment requires an absolute non-empty path")
	}
	if len(p.Steps) >= asta.MaxStates {
		return fmt.Errorf("compile: TDSTA fragment allows at most %d steps, got %d", asta.MaxStates-1, len(p.Steps))
	}
	seenDesc := false
	for _, st := range p.Steps {
		if st.Axis != xpath.Child && st.Axis != xpath.Descendant {
			return fmt.Errorf("compile: TDSTA fragment supports child and descendant only, got %v", st.Axis)
		}
		if st.Test.Kind != xpath.TestName && st.Test.Kind != xpath.TestStar {
			return fmt.Errorf("compile: TDSTA fragment supports name and * tests, got %s", st.Test)
		}
		if len(st.Preds) > 0 {
			return errTDSTAPredicates
		}
		if st.Axis == xpath.Descendant {
			seenDesc = true
		} else if seenDesc {
			// A child step after a descendant step needs a subset
			// construction (matches at several depths are live at
			// once); that is what the ASTA pipeline is for.
			return fmt.Errorf("compile: TDSTA fragment requires child steps to precede descendant steps")
		}
	}
	return nil
}

// MustToTDSTA panics on error.
func MustToTDSTA(p *xpath.Path, names *tree.LabelTable) *sta.STA {
	a, err := ToTDSTA(p, names)
	if err != nil {
		panic(err)
	}
	return a
}
