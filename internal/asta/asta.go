// Package asta implements the alternating selecting tree automata of §4:
// the compact automaton model XPath queries compile into, together with
// the evaluation function of Algorithm 4.1 and the optimizations studied
// in the paper's experiments — on-the-fly top-down approximation of
// relevant nodes with index jumps (Definition 4.2), memoization of
// transition evaluation, and information propagation (§4.4).
//
// States are limited to 64 so that the state sets manipulated by the
// top-down approximation are machine words; the XPath fragment's
// compilation uses one state per query step (§4.2), so this bounds query
// size, not document size.
package asta

import (
	"fmt"
	"strings"

	"repro/internal/labels"
	"repro/internal/tree"
)

// State is an ASTA state.
type State int32

// MaxStates bounds the number of states of one ASTA.
const MaxStates = 64

// StateSet is a set of states as a bit mask; it doubles as a state of the
// deterministic top-down approximation tda(A) (Definition 4.2).
type StateSet uint64

// Has reports q ∈ s.
func (s StateSet) Has(q State) bool { return s&(1<<uint(q)) != 0 }

// With returns s ∪ {q}.
func (s StateSet) With(q State) StateSet { return s | 1<<uint(q) }

// IsEmpty reports whether the set is empty.
func (s StateSet) IsEmpty() bool { return s == 0 }

// Each calls f for every state in the set, in increasing order.
func (s StateSet) Each(f func(q State)) {
	for q := State(0); s != 0; q++ {
		if s&1 != 0 {
			f(q)
		}
		s >>= 1
	}
}

// String renders the set like {q0,q2}.
func (s StateSet) String() string {
	var sb strings.Builder
	sb.WriteByte('{')
	first := true
	s.Each(func(q State) {
		if !first {
			sb.WriteByte(',')
		}
		first = false
		fmt.Fprintf(&sb, "q%d", q)
	})
	sb.WriteByte('}')
	return sb.String()
}

// FormulaKind discriminates formula nodes.
type FormulaKind int8

// Formula node kinds, per the EBNF of Definition 4.1:
// φ ::= ⊤ | ⊥ | φ∨φ | φ∧φ | ¬φ | ↓1 q | ↓2 q.
const (
	FTrue FormulaKind = iota
	FFalse
	FAnd
	FOr
	FNot
	FDown // ↓Child q
)

// Formula is a Boolean formula over child moves. Formulas are immutable
// trees; the leaves are ⊤, ⊥ and ↓i q atoms.
type Formula struct {
	Kind        FormulaKind
	Left, Right *Formula // And/Or children; Not uses Left
	Child       int8     // 1 or 2 for FDown
	Q           State    // for FDown
}

// fTrue is the one ⊤ formula.
var fTrue = &Formula{Kind: FTrue}

// True returns ⊤.
func True() *Formula { return fTrue }

// And returns l ∧ r.
func And(l, r *Formula) *Formula { return &Formula{Kind: FAnd, Left: l, Right: r} }

// Or returns l ∨ r.
func Or(l, r *Formula) *Formula { return &Formula{Kind: FOr, Left: l, Right: r} }

// Not returns ¬f.
func Not(f *Formula) *Formula { return &Formula{Kind: FNot, Left: f} }

// Down returns ↓child q.
func Down(child int, q State) *Formula {
	return &Formula{Kind: FDown, Child: int8(child), Q: q}
}

// Down1 returns ↓1 q.
func Down1(q State) *Formula { return Down(1, q) }

// Down2 returns ↓2 q.
func Down2(q State) *Formula { return Down(2, q) }

func (f *Formula) String() string {
	switch f.Kind {
	case FTrue:
		return "⊤"
	case FFalse:
		return "⊥"
	case FAnd:
		return "(" + f.Left.String() + " ∧ " + f.Right.String() + ")"
	case FOr:
		return "(" + f.Left.String() + " ∨ " + f.Right.String() + ")"
	case FNot:
		return "¬" + f.Left.String()
	case FDown:
		return fmt.Sprintf("↓%d q%d", f.Child, f.Q)
	}
	return "?"
}

// downs accumulates the states under ↓1 and ↓2 atoms of f.
func (f *Formula) downs(d1, d2 *StateSet) {
	switch f.Kind {
	case FAnd, FOr:
		f.Left.downs(d1, d2)
		f.Right.downs(d1, d2)
	case FNot:
		f.Left.downs(d1, d2)
	case FDown:
		if f.Child == 1 {
			*d1 = d1.With(f.Q)
		} else {
			*d2 = d2.With(f.Q)
		}
	}
}

// Size returns the number of nodes of the formula.
func (f *Formula) Size() int {
	switch f.Kind {
	case FAnd, FOr:
		return 1 + f.Left.Size() + f.Right.Size()
	case FNot:
		return 1 + f.Left.Size()
	default:
		return 1
	}
}

// Transition is (q, L, τ, φ): from state q, on labels L, the formula φ
// must hold of the children; τ = ⇒ (Selecting) marks the node.
type Transition struct {
	From      State
	Guard     labels.Set
	Selecting bool
	Phi       *Formula

	// Derived by Finalize: states under ↓1/↓2 atoms of Phi.
	down1, down2 StateSet
}

// Downs returns the states under Phi's ↓1 and ↓2 atoms, as Finalize
// derived them.
func (t *Transition) Downs() (down1, down2 StateSet) { return t.down1, t.down2 }

// ASTA is an alternating selecting tree automaton (Definition 4.1).
type ASTA struct {
	NumStates int
	Top       StateSet
	Trans     []Transition

	byFrom [][]int32
	// marking[q]: q's sub-automaton can mark nodes (q reaches a
	// selecting transition); used by information propagation to decide
	// which satisfied disjuncts may still carry results.
	marking StateSet
	// pure holds the labels on which each state only loops, which the
	// jump analysis of §4.3 intersects over a state set.
	pure pureSets
}

// Finalize validates and builds lookup structures; call once after the
// exported fields are set.
func (a *ASTA) Finalize() (*ASTA, error) {
	if a.NumStates > MaxStates {
		return nil, fmt.Errorf("asta: %d states exceeds the maximum of %d", a.NumStates, MaxStates)
	}
	a.byFrom = make([][]int32, a.NumStates)
	for i := range a.Trans {
		t := &a.Trans[i]
		t.down1, t.down2 = 0, 0
		t.Phi.downs(&t.down1, &t.down2)
		a.byFrom[t.From] = append(a.byFrom[t.From], int32(i))
	}
	a.marking = a.computeMarking()
	a.pure = a.computePure()
	return a, nil
}

// computeMarking returns the states from which a selecting transition is
// reachable through formulas.
func (a *ASTA) computeMarking() StateSet {
	var m StateSet
	for _, t := range a.Trans {
		if t.Selecting {
			m = m.With(t.From)
		}
	}
	for changed := true; changed; {
		changed = false
		for _, t := range a.Trans {
			if m.Has(t.From) {
				continue
			}
			if (t.down1|t.down2)&m != 0 {
				m = m.With(t.From)
				changed = true
			}
		}
	}
	return m
}

// SizeBytes estimates the resident size of the compiled automaton:
// transitions with their guard sets and formula trees, plus the lookup
// structures and pure label sets built by Finalize. The compiled-query
// cache sums it into the resident bytes /stats reports (it evicts by
// count, not by bytes), so the estimate only needs to be proportionally
// honest, not exact.
func (a *ASTA) SizeBytes() int64 {
	if a == nil {
		return 0
	}
	const (
		formulaNode = 40 // Kind + two pointers + Child + Q, padded
		transFixed  = 64 // Transition struct less the guard's backing
	)
	b := int64(128) // ASTA header: NumStates, Top, marking, slice headers
	for i := range a.Trans {
		t := &a.Trans[i]
		b += transFixed + t.Guard.SizeBytes()
		if t.Phi != nil {
			b += int64(t.Phi.Size()) * formulaNode
		}
	}
	for _, row := range a.byFrom {
		b += 24 + 4*int64(len(row))
	}
	return b + a.pure.sizeBytes()
}

// Marking reports whether q's sub-automaton can mark nodes.
func (a *ASTA) Marking(q State) bool { return a.marking.Has(q) }

// TransOf returns indices of q's transitions.
func (a *ASTA) TransOf(q State) []int32 { return a.byFrom[q] }

// Size returns |δ| counted as total formula size, the measure in the
// exponential-succinctness comparison of Example C.1.
func (a *ASTA) Size() int {
	n := 0
	for _, t := range a.Trans {
		n += 1 + t.Phi.Size()
	}
	return n
}

// String renders the automaton; lt may be nil.
func (a *ASTA) String(lt *tree.LabelTable) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "ASTA{states=%d top=%s\n", a.NumStates, a.Top.String())
	for _, t := range a.Trans {
		arrow := "→"
		if t.Selecting {
			arrow = "⇒"
		}
		fmt.Fprintf(&sb, "  q%d, %s %s %s\n", t.From, t.Guard.String(lt), arrow, t.Phi.String())
	}
	sb.WriteString("}")
	return sb.String()
}
