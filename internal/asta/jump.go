package asta

import (
	"repro/internal/labels"
)

// This file implements the on-the-fly top-down approximation of relevant
// nodes (§4.3, Definition 4.2): the evaluator's descent carries a state
// set S — a state of the deterministic automaton tda(A) — and before
// recursing into a subtree it analyzes how S behaves on each label. On
// labels where every state of S merely "loops" (its only active
// transition is the recursion form compiled for descendant or sibling
// traversal) no information is gained, so the evaluator jumps straight
// to the top-most nodes carrying an essential label, exactly as in
// Figure 1.

type jumpKind int8

const (
	jumpNone jumpKind = iota
	// jumpTopMost: on non-essential labels every state q ∈ S has the
	// single active transition q, L → ↓1 q ∨ ↓2 q, so the skipped
	// region's result set is the union of the results at the top-most
	// essential nodes (dt/ft jumps).
	jumpTopMost
	// jumpRightPath: every q ∈ S has only q, L → ↓2 q — a sibling scan;
	// the region's result is the result at the first essential node on
	// the rightmost path (rt jump).
	jumpRightPath
	// jumpLeftPath: symmetric with ↓1 (lt jump).
	jumpLeftPath
)

type jumpInfo struct {
	kind      jumpKind
	essential labels.Set
}

// pureSets holds, per state, the labels on which the state's only
// behavior is a given loop form. A label is "pure" for a form when the
// state has a non-selecting transition of exactly that form guarding it
// and no other transition whose guard contains it.
type pureSets struct {
	union, left, right []labels.Set
}

// loopForm classifies a transition as one of the loop shapes, or -1.
func loopForm(t *Transition) int {
	if t.Selecting {
		return -1
	}
	f := t.Phi
	switch f.Kind {
	case FOr:
		l, r := f.Left, f.Right
		if l.Kind == FDown && r.Kind == FDown && l.Q == t.From && r.Q == t.From &&
			((l.Child == 1 && r.Child == 2) || (l.Child == 2 && r.Child == 1)) {
			return 0 // ↓1 q ∨ ↓2 q
		}
	case FDown:
		if f.Q != t.From {
			return -1
		}
		if f.Child == 1 {
			return 1 // ↓1 q
		}
		return 2 // ↓2 q
	}
	return -1
}

// computePure returns a's pure label sets; Finalize builds them once,
// and every jumping Context of a reads them.
func (a *ASTA) computePure() pureSets {
	n := a.NumStates
	sets := make([]labels.Set, 3*n)
	pure := pureSets{union: sets[:n:n], left: sets[n : 2*n : 2*n], right: sets[2*n:]}
	for q := 0; q < n; q++ {
		forms := [3]labels.Set{labels.None, labels.None, labels.None}
		other := labels.None
		for _, idx := range a.byFrom[q] {
			t := &a.Trans[idx]
			switch loopForm(t) {
			case 0:
				forms[0] = forms[0].Union(t.Guard)
			case 1:
				forms[1] = forms[1].Union(t.Guard)
			case 2:
				forms[2] = forms[2].Union(t.Guard)
			default:
				other = other.Union(t.Guard)
			}
		}
		// A label is pure for a form only if no other transition (of any
		// other form) also fires on it.
		pure.union[q] = forms[0].Minus(other).Minus(forms[1]).Minus(forms[2])
		pure.left[q] = forms[1].Minus(other).Minus(forms[0]).Minus(forms[2])
		pure.right[q] = forms[2].Minus(other).Minus(forms[0]).Minus(forms[1])
	}
	return pure
}

// sizeBytes weighs the sets for ASTA.SizeBytes: three slice headers
// and a set header per state and form. A compiled state's one loop is
// guarded by Σ, so its pure set is the complement of its other guard
// and shares that guard's labels, which SizeBytes has counted.
func (p *pureSets) sizeBytes() int64 {
	return 72 + 3*32*int64(len(p.union))
}

// lookupJump returns the set-level analysis for the tda state r, cached
// dense by its interned id rID: every jumping mode interns sets.
func (e *evaluator) lookupJump(r StateSet, rID int32) jumpInfo {
	if !e.jumpsDone[rID] {
		e.jumps[rID] = e.analyzeSet(r)
		e.jumpsDone[rID] = true
	}
	return e.jumps[rID]
}

// analyzeSet intersects the per-state pure label sets over S and picks a
// jump form whose essential complement is finite (a jump needs concrete
// labels to search for). Preference order follows expected payoff:
// top-most (skips whole regions) before path jumps.
func (e *evaluator) analyzeSet(r StateSet) jumpInfo {
	pu, pl, pr := labels.Any, labels.Any, labels.Any
	pure := &e.a.pure
	r.Each(func(q State) {
		pu = pu.Intersect(pure.union[q])
		pl = pl.Intersect(pure.left[q])
		pr = pr.Intersect(pure.right[q])
	})
	if ess := pu.Complement(); !ess.IsAny() {
		if _, ok := ess.Finite(); ok {
			return jumpInfo{kind: jumpTopMost, essential: ess}
		}
	}
	if ess := pr.Complement(); !ess.IsAny() {
		if _, ok := ess.Finite(); ok {
			return jumpInfo{kind: jumpRightPath, essential: ess}
		}
	}
	if ess := pl.Complement(); !ess.IsAny() {
		// Left-path jumps walk the (short) first-child chain, so a
		// co-finite essential set is still usable.
		return jumpInfo{kind: jumpLeftPath, essential: ess}
	}
	return jumpInfo{kind: jumpNone}
}
