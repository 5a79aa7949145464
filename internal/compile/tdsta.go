package compile

import (
	"fmt"

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
// induce: the labels the same guards name, or every label none names.
// No guard tells a class's members apart, so witness stands for all of
// them.
type labelClass struct {
	guard   labels.Set
	witness tree.LabelID
}

// partition splits the labels into a's classes: the labels the same
// guards name share one, in the order of their least labels, then the
// labels no guard names. Class 0 starts out holding every label, and
// each guard in turn moves what it names of a class to a class of its
// own, in arrays sized once: a * guard names every attribute name of
// the table, and tens of thousands of them make one class.
func partition(a *asta.ASTA) []labelClass {
	top := tree.LabelID(-1)
	for i := range a.Trans {
		if ids := a.Trans[i].Guard.Named(); len(ids) > 0 {
			top = max(top, ids[len(ids)-1])
		}
	}
	// of[l] is label l's class. Class 0 counts top+1 too, which no guard
	// names, so it is never moved whole and ends as the unnamed labels.
	// In guard i's round r, count is how many members of a class it
	// names, and split (from round r+1 on) where they move.
	of := make([]int32, top+1)
	type class struct{ size, count, split, round int32 }
	cl := make([]class, top+3)
	cl[0].size = int32(top) + 2
	next := int32(1)
	for i := range a.Trans {
		ids, r := a.Trans[i].Guard.Named(), 2*int32(i)+1
		for _, l := range ids {
			if k := &cl[of[l]]; k.round != r {
				k.round, k.count = r, 1
			} else {
				k.count++
			}
		}
		for _, l := range ids {
			k := &cl[of[l]]
			if k.round == r {
				k.round, k.split = r+1, of[l]
				if k.count < k.size {
					k.size, k.split, cl[next].size = k.size-k.count, next, k.count
					next++
				}
			}
			of[l] = k.split
		}
	}
	// Lay each class's members out as one run, in label order, and the
	// runs in the order of the classes' least labels; count becomes the
	// place of a class's next member, and round -1 marks a class placed.
	out := make([]labelClass, 0, next)
	members := make([]tree.LabelID, top+1)
	start := int32(0)
	for l, c := range of {
		if k := &cl[c]; c != 0 {
			if k.round >= 0 {
				k.round, k.count, start = -1, start, start+k.size
				out = append(out, labelClass{witness: tree.LabelID(l)})
			}
			members[k.count] = tree.LabelID(l)
			k.count++
		}
	}
	for i := range out {
		k := &cl[of[out[i].witness]]
		out[i].guard = labels.Of(members[k.count-k.size : k.count]...)
	}
	return append(out, labelClass{labels.Not(members[:start]...), top + 1})
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
