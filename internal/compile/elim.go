package compile

import (
	"fmt"
	"maps"
	"slices"
	"sort"

	"repro/internal/asta"
	"repro/internal/labels"
	"repro/internal/sta"
	"repro/internal/tree"
)

// Eliminate removes alternation from a negation-free ASTA, producing an
// equivalent nondeterministic selecting tree automaton. This is the
// translation whose exponential cost Example C.1 exhibits (each formula
// is expanded to disjunctive normal form, and states become sets of ASTA
// states); the paper's engine avoids it by evaluating the alternating
// automaton directly, determinizing only the top-down approximation
// on-the-fly. It exists here to (a) demonstrate that blow-up concretely
// and (b) tie the ASTA semantics to the reference STA semantics in the
// tests.
//
// ASTA selection is per transition (the ⇒ form of Definition 4.1) while
// STA selection is per configuration (Definition 2.3), so subset states
// carry a mark bit — the "selecting-unambiguous" split of Appendix A:
// state (S, true) fires only combinations that use a selecting ASTA
// transition and is the one whose configurations select.
//
// maxStates bounds the subset construction; exceeding it (or an ASTA
// using negation, which alternation-free STAs cannot express without
// complementation) returns an error.
func Eliminate(a *asta.ASTA, maxStates int) (*sta.STA, error) {
	elim := &eliminator{ids: make(map[string]sta.State)}
	classes := partition(a)

	// canSelect[q]: q has at least one selecting transition; dest states
	// (S, true) are only worth materializing when some member can select.
	canSelect := make([]bool, a.NumStates)
	for _, t := range a.Trans {
		if t.Selecting {
			canSelect[t.From] = true
		}
	}

	empty := elim.intern(nil, false)
	out := &sta.STA{Bottom: []sta.State{empty}}
	out.Trans = append(out.Trans, sta.Transition{
		From: empty, Guard: labels.Any, Dest: sta.Pair{Left: empty, Right: empty},
	})

	var queue []setState
	enqueueNew := func(s setState) sta.State {
		if id, ok := elim.lookup(s.states, s.marked); ok {
			return id
		}
		id := elim.intern(s.states, s.marked)
		queue = append(queue, s)
		return id
	}
	a.Top.Each(func(q asta.State) {
		enqueueNew(setState{states: []asta.State{q}})
		if canSelect[q] {
			enqueueNew(setState{states: []asta.State{q}, marked: true})
		}
	})

	anySelects := func(s []asta.State) bool {
		for _, q := range s {
			if canSelect[q] {
				return true
			}
		}
		return false
	}

	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		from, _ := elim.lookup(cur.states, cur.marked)
		for _, c := range classes {
			choices := make([][]conjunct, len(cur.states))
			dead := false
			for i, q := range cur.states {
				var opts []conjunct
				for _, ti := range a.TransOf(q) {
					t := &a.Trans[ti]
					if !t.Guard.Contains(c.witness) {
						continue
					}
					cs, err := dnf(t.Phi)
					if err != nil {
						return nil, err
					}
					for ci := range cs {
						cs[ci].selecting = t.Selecting
					}
					opts = append(opts, cs...)
				}
				if len(opts) == 0 {
					dead = true
					break
				}
				choices[i] = opts
			}
			if dead {
				continue
			}
			type destKey struct {
				d1, d2 sta.State
			}
			seenDest := make(map[destKey]bool)
			for _, combo := range cross(choices) {
				mSelf := false
				var s1, s2 []asta.State
				for _, c := range combo {
					mSelf = mSelf || c.selecting
					s1 = append(s1, c.down1...)
					s2 = append(s2, c.down2...)
				}
				if mSelf != cur.marked {
					continue
				}
				s1, s2 = dedupStates(s1), dedupStates(s2)
				// Children may or may not be marked; enumerate the
				// meaningful combinations.
				d1opts := []sta.State{enqueueNew(setState{states: s1})}
				if len(s1) > 0 && anySelects(s1) {
					d1opts = append(d1opts, enqueueNew(setState{states: s1, marked: true}))
				}
				d2opts := []sta.State{enqueueNew(setState{states: s2})}
				if len(s2) > 0 && anySelects(s2) {
					d2opts = append(d2opts, enqueueNew(setState{states: s2, marked: true}))
				}
				if elim.count() > maxStates {
					return nil, fmt.Errorf("compile: alternation elimination exceeded %d states", maxStates)
				}
				for _, d1 := range d1opts {
					for _, d2 := range d2opts {
						k := destKey{d1, d2}
						if seenDest[k] {
							continue
						}
						seenDest[k] = true
						out.Trans = append(out.Trans, sta.Transition{
							From: from, Guard: c.guard,
							Dest:      sta.Pair{Left: d1, Right: d2},
							Selecting: cur.marked,
						})
					}
				}
			}
		}
	}

	out.NumStates = elim.count()
	for key, id := range elim.ids {
		if keyContainsTop(a, key) {
			out.Top = append(out.Top, id)
		}
	}
	sort.Slice(out.Top, func(i, j int) bool { return out.Top[i] < out.Top[j] })
	return out.Finalize(), nil
}

type setState struct {
	states []asta.State
	marked bool
}

// conjunct is one DNF term: the states required below-left and
// below-right, and whether the source transition selects.
type conjunct struct {
	down1, down2 []asta.State
	selecting    bool
}

// dnf expands a negation-free formula to disjunctive normal form. ⊥
// contributes no conjuncts; ⊤ contributes the empty conjunct.
func dnf(f *asta.Formula) ([]conjunct, error) {
	switch f.Kind {
	case asta.FTrue:
		return []conjunct{{}}, nil
	case asta.FFalse:
		return nil, nil
	case asta.FDown:
		c := conjunct{}
		if f.Child == 1 {
			c.down1 = []asta.State{f.Q}
		} else {
			c.down2 = []asta.State{f.Q}
		}
		return []conjunct{c}, nil
	case asta.FOr:
		l, err := dnf(f.Left)
		if err != nil {
			return nil, err
		}
		r, err := dnf(f.Right)
		if err != nil {
			return nil, err
		}
		return append(l, r...), nil
	case asta.FAnd:
		l, err := dnf(f.Left)
		if err != nil {
			return nil, err
		}
		r, err := dnf(f.Right)
		if err != nil {
			return nil, err
		}
		var out []conjunct
		for _, cl := range l {
			for _, cr := range r {
				out = append(out, conjunct{
					down1: append(append([]asta.State(nil), cl.down1...), cr.down1...),
					down2: append(append([]asta.State(nil), cl.down2...), cr.down2...),
				})
			}
		}
		return out, nil
	case asta.FNot:
		return nil, fmt.Errorf("compile: cannot eliminate alternation under negation")
	}
	return nil, fmt.Errorf("compile: unknown formula kind %d", f.Kind)
}

// cross expands the per-state choice lists into all combinations.
func cross(choices [][]conjunct) [][]conjunct {
	out := [][]conjunct{nil}
	for _, opts := range choices {
		var next [][]conjunct
		for _, prefix := range out {
			for _, o := range opts {
				row := append(append([]conjunct(nil), prefix...), o)
				next = append(next, row)
			}
		}
		out = next
	}
	return out
}

// eliminator interns (set, mark) pairs as dense STA states.
type eliminator struct {
	ids map[string]sta.State
}

func canonical(s []asta.State, marked bool) string {
	cp := dedupStates(s)
	buf := make([]byte, 0, 2*len(cp)+1)
	if marked {
		buf = append(buf, '!')
	}
	for _, q := range cp {
		buf = append(buf, byte(q), ',')
	}
	return string(buf)
}

func (e *eliminator) lookup(s []asta.State, marked bool) (sta.State, bool) {
	id, ok := e.ids[canonical(s, marked)]
	return id, ok
}

func (e *eliminator) intern(s []asta.State, marked bool) sta.State {
	key := canonical(s, marked)
	if id, ok := e.ids[key]; ok {
		return id
	}
	id := sta.State(len(e.ids))
	e.ids[key] = id
	return id
}

func dedupStates(s []asta.State) []asta.State {
	if len(s) == 0 {
		return nil
	}
	cp := append([]asta.State(nil), s...)
	sort.Slice(cp, func(i, j int) bool { return cp[i] < cp[j] })
	w := 1
	for i := 1; i < len(cp); i++ {
		if cp[i] != cp[w-1] {
			cp[w] = cp[i]
			w++
		}
	}
	return cp[:w]
}

func (e *eliminator) count() int { return len(e.ids) }

// keyContainsTop decodes a canonical key and reports whether its set
// part contains an ASTA top state.
func keyContainsTop(a *asta.ASTA, key string) bool {
	i := 0
	if len(key) > 0 && key[0] == '!' {
		i = 1
	}
	for ; i+1 < len(key); i += 2 {
		if a.Top.Has(asta.State(key[i])) {
			return true
		}
	}
	return false
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
