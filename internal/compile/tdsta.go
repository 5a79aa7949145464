package compile

import (
	"fmt"
	"maps"
	"slices"

	"repro/internal/asta"
	"repro/internal/labels"
	"repro/internal/sta"
	"repro/internal/tree"
	"repro/internal/xpath"
)

// ToTDSTA compiles the restricted fragment CheckTDSTA admits — absolute
// paths of child and descendant steps with name or * tests and no
// predicates — into a top-down deterministic selecting tree automaton:
// the "extreme |Q|-optimization" of §1, evaluated with a single lookup
// per node (or, minimal as built, with topdown_jump visiting only
// relevant nodes). It is BuildASTA followed by DeterminizeTopDown.
func ToTDSTA(p *xpath.Path, names *tree.LabelTable) (*sta.STA, error) {
	if err := CheckTDSTA(p); err != nil {
		return nil, err
	}
	return DeterminizeTopDown(BuildASTA(p, names)), nil
}

// DeterminizeTopDown is the TDSTA of a query CheckTDSTA accepts, built
// from a, that query's ASTA: the removal of alternation and
// non-determinism the ASTA evaluator does on the fly (§4.3, Definition
// 4.2), done ahead of time. A state is the set of ASTA states live at a
// node, starting from the ASTA's top states. Without predicates every
// formula is a disjunction of moves, so the construction is exact: on
// each class of the label partition, a set sends the union of its
// active transitions' ↓1 states left and of their ↓2 states right, and
// selects iff one of them selects. Every state accepts a leaf. On the
// ASTA of a query with predicates the result is meaningless.
//
// Every set is cut to the ASTA states that can still select, so a query
// naming a label the table lacks determinizes to the one empty set, and
// the result is the minimal TDSTA (Theorem A.1) as built: the sta
// package's tests minimize it as the reference and merge nothing.
func DeterminizeTopDown(a *asta.ASTA) *sta.STA {
	classes := partition(a)
	// live: the states with a transition on some label that selects or
	// moves to a live state.
	var live asta.StateSet
	for grown := true; grown; {
		grown = false
		for i := range a.Trans {
			t := &a.Trans[i]
			d1, d2 := t.Downs()
			if !live.Has(t.From) && !t.Guard.IsEmpty() && (t.Selecting || (d1|d2)&live != 0) {
				live, grown = live.With(t.From), true
			}
		}
	}
	ids := make(map[asta.StateSet]sta.State)
	var sets []asta.StateSet
	intern := func(s asta.StateSet) sta.State {
		id, ok := ids[s]
		if !ok {
			id = sta.State(len(sets))
			ids[s] = id
			sets = append(sets, s)
		}
		return id
	}
	out := &sta.STA{Top: []sta.State{intern(a.Top & live)}}
	type edge struct {
		dest sta.Pair
		sel  bool
	}
	for from := 0; from < len(sets); from++ {
		// Classes with one destination and selecting flag share one guard.
		guards := make(map[edge]labels.Set)
		var order []edge
		for _, c := range classes {
			var d1, d2 asta.StateSet
			sel := false
			sets[from].Each(func(q asta.State) {
				for _, ti := range a.TransOf(q) {
					t := &a.Trans[ti]
					if t.Guard.Contains(c.witness) {
						t1, t2 := t.Downs()
						d1, d2 = d1|t1, d2|t2
						sel = sel || t.Selecting
					}
				}
			})
			e := edge{sta.Pair{Left: intern(d1 & live), Right: intern(d2 & live)}, sel}
			if g, ok := guards[e]; ok {
				guards[e] = g.Union(c.guard)
			} else {
				guards[e] = c.guard
				order = append(order, e)
			}
		}
		for _, e := range order {
			out.Trans = append(out.Trans, sta.Transition{
				From: sta.State(from), Guard: guards[e], Dest: e.dest, Selecting: e.sel,
			})
		}
	}
	out.NumStates = len(sets)
	for q := range sets {
		out.Bottom = append(out.Bottom, sta.State(q))
	}
	return out.Finalize()
}

// labelClass is one class of the label partition an ASTA's guards
// induce: one label some guard mentions, or every label none mentions.
// No guard tells a class's members apart, so witness stands for all of
// them.
type labelClass struct {
	guard   labels.Set
	witness tree.LabelID
}

// partition splits the labels into a's classes: one per label a guard
// mentions, in increasing order, then the rest.
func partition(a *asta.ASTA) []labelClass {
	seen := make(map[tree.LabelID]bool)
	for _, t := range a.Trans {
		ids, ok := t.Guard.Finite()
		if !ok {
			ids, _ = t.Guard.Negated()
		}
		for _, l := range ids {
			seen[l] = true
		}
	}
	mentioned := slices.Sorted(maps.Keys(seen))
	out := make([]labelClass, 0, len(mentioned)+1)
	fresh := tree.LabelID(0)
	for _, l := range mentioned {
		out = append(out, labelClass{labels.Of(l), l})
		fresh = l + 1
	}
	return append(out, labelClass{labels.Not(mentioned...), fresh})
}

// CheckTDSTA's own refusals, one per rule, built once, so a refusal
// allocates nothing. It names the rule the query breaks, not the
// query's text.
var (
	errTDSTAAxis       = fmt.Errorf("%w: the TDSTA takes child and descendant axes only", ErrUnsupported)
	errTDSTATest       = fmt.Errorf("%w: the TDSTA takes name and * tests only", ErrUnsupported)
	errTDSTAPredicates = fmt.Errorf("%w: the TDSTA takes no predicates", ErrUnsupported)
	errTDSTAOrder      = fmt.Errorf("%w: the TDSTA takes child steps before descendant steps only", ErrUnsupported)
	errTDSTAPath       = fmt.Errorf("%w: the TDSTA takes absolute paths of 1 to %d steps only", ErrUnsupported, asta.MaxStates-1)
)

// CheckTDSTA reports why p is outside the fragment ToTDSTA compiles
// (wrapping ErrUnsupported), or nil when it is inside. A query's cache
// entry asks it once, beside the other fragment tests, and Auto's route
// is read off their answers, so the route and the compiler cannot
// disagree.
//
// Child steps must precede descendant steps. That is the construction's
// linear state bound: a live set is then one child step's state, or the
// states of the first descendant step through some later one, so n
// steps determinize to at most n+2 states (with the #doc state and the
// empty set). A child step after a descendant step lets matches at
// several depths be live at once, and the subsets multiply. What it
// accepts CheckASTA accepts (a state a step, and #doc's), so a cached
// TDSTA is bounded like a cached ASTA.
func CheckTDSTA(p *xpath.Path) error {
	if !p.Absolute || len(p.Steps) == 0 || len(p.Steps) >= asta.MaxStates {
		return errTDSTAPath
	}
	seenDesc := false
	for _, st := range p.Steps {
		if st.Axis != xpath.Child && st.Axis != xpath.Descendant {
			return errTDSTAAxis
		}
		if st.Test.Kind != xpath.TestName && st.Test.Kind != xpath.TestStar {
			return errTDSTATest
		}
		if len(st.Preds) > 0 {
			return errTDSTAPredicates
		}
		if st.Axis == xpath.Descendant {
			seenDesc = true
		} else if seenDesc {
			return errTDSTAOrder
		}
	}
	return nil
}
