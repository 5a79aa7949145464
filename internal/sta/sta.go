// Package sta implements the selecting tree automata of §2 and §3 of the
// paper that a query runs: the STA model over binary
// (first-child/next-sibling) trees, the top-down deterministic subclass,
// the top-down relevant nodes (Lemma 3.1) and the jumping evaluation
// topdown_jump (Algorithm B.1), which Theorem 3.1 runs on a minimal
// automaton. The TDSTA a query compiles to is minimal as it is built
// (compile.DeterminizeTopDown), so nothing here minimizes one.
//
// The run jumps with dt/ft and rt, not with lt: no TDSTA a query builds
// has a state that loops on its first child alone, so Theorem 3.1's
// equality (the run visits exactly the top-down relevant nodes) holds
// for every one of them. A hand-built automaton with such (q, q⊤) loops
// is run without that jump, visiting the nodes it could have skipped;
// RelevantTopDown, Lemma 3.1's oracle, still counts them irrelevant.
//
// The rest of §3 serves no query, so it lives beside the tests that
// reproduce it, in this package's _test.go files: top-down minimization
// (Theorem A.1), the reference the built automata are checked against,
// the bottom-up runs (Algorithm B.2, Lemma 3.2) and bottom-up
// minimization, the nondeterministic reference semantics every run is
// tested against, and the paper's example automata.
package sta

import (
	"fmt"
	"strings"

	"repro/internal/labels"
	"repro/internal/tree"
)

// State is an automaton state.
type State int32

// NoState marks the absence of a state.
const NoState State = -1

// Pair is a destination pair (q1, q2): the states sent to the left and
// right child of a binary node.
type Pair struct {
	Left, Right State
}

// Transition is q, L -> (q1, q2); Selecting marks the double arrow form
// q, L => (q1, q2), meaning (q, l) is a selecting configuration for every
// l in L.
type Transition struct {
	From      State
	Guard     labels.Set
	Dest      Pair
	Selecting bool
}

// STA is a selecting tree automaton (Definition 2.1). Construct one by
// filling the exported fields and calling Finalize.
type STA struct {
	// NumStates is |Q|; states are 0..NumStates-1.
	NumStates int
	// Top and Bottom are the sets T and B.
	Top, Bottom []State
	// Trans is δ.
	Trans []Transition

	byFrom [][]int32
	inBot  []bool
	selOf  []labels.Set // per-state selecting labels, derived from Trans
	jump   []JumpInfo   // per-state AnalyzeState, for EvalTopDownJump
}

// Finalize builds lookup structures, the jump analysis of every state
// among them; it must be called after the exported fields are set and
// before any query, so a finalized automaton is read-only and safe to
// share. It returns the automaton for chaining.
func (a *STA) Finalize() *STA {
	a.byFrom = make([][]int32, a.NumStates)
	a.selOf = make([]labels.Set, a.NumStates)
	for i := range a.selOf {
		a.selOf[i] = labels.None
	}
	for i, t := range a.Trans {
		a.byFrom[t.From] = append(a.byFrom[t.From], int32(i))
		if t.Selecting {
			a.selOf[t.From] = a.selOf[t.From].Union(t.Guard)
		}
	}
	a.inBot = make([]bool, a.NumStates)
	for _, q := range a.Bottom {
		a.inBot[q] = true
	}
	a.jump = make([]JumpInfo, a.NumStates)
	for q := range a.jump {
		a.jump[q] = a.AnalyzeState(State(q))
	}
	return a
}

// SizeBytes estimates the resident size of the automaton:
// transitions with their guard sets plus the lookup structures built by
// Finalize. The byte-weighted compiled-query LRU weighs cache entries
// with it, so the estimate only needs to be proportionally honest.
func (a *STA) SizeBytes() int64 {
	if a == nil {
		return 0
	}
	const transFixed = 48 // Transition struct less the guard's backing
	b := int64(128)       // STA header and slice headers
	b += 4 * int64(len(a.Top)+len(a.Bottom))
	for i := range a.Trans {
		b += transFixed + a.Trans[i].Guard.SizeBytes()
	}
	for _, row := range a.byFrom {
		b += 24 + 4*int64(len(row))
	}
	b += int64(len(a.inBot))
	for _, s := range a.selOf {
		b += s.SizeBytes()
	}
	for _, j := range a.jump {
		b += 8 + j.Essential.SizeBytes()
	}
	return b
}

// IsSelecting reports whether (q, l) is a selecting configuration.
func (a *STA) IsSelecting(q State, l tree.LabelID) bool {
	return a.selOf[q].Contains(l)
}

// IsMarking reports whether state q selects on any label.
func (a *STA) IsMarking(q State) bool { return !a.selOf[q].IsEmpty() }

// DestDet returns the unique destination pair of a deterministic
// automaton, or ok=false if there is none (the automaton is then not
// top-down complete) .
func (a *STA) DestDet(q State, l tree.LabelID) (Pair, bool) {
	for _, ti := range a.byFrom[q] {
		if a.Trans[ti].Guard.Contains(l) {
			return a.Trans[ti].Dest, true
		}
	}
	return Pair{}, false
}

// NonChanging reports whether q is non-changing (Definition 2.4):
// δ(q, l) = {(q, q)} for every label.
func (a *STA) NonChanging(q State) bool {
	cover := labels.None
	for _, ti := range a.byFrom[q] {
		t := a.Trans[ti]
		if t.Dest.Left != q || t.Dest.Right != q {
			return false
		}
		cover = cover.Union(t.Guard)
	}
	return cover.IsAny()
}

// IsTopDownUniversal reports whether q is a non-changing state in B that
// never selects: the q⊤ whose subtrees can be ignored entirely.
func (a *STA) IsTopDownUniversal(q State) bool {
	return a.NonChanging(q) && a.inBot[q] && !a.IsMarking(q)
}

// IsTopDownSink reports whether q is a non-changing state outside B: the
// q⊥ from which nothing accepts.
func (a *STA) IsTopDownSink(q State) bool {
	return a.NonChanging(q) && !a.inBot[q]
}

// String renders the automaton for debugging; lt may be nil.
func (a *STA) String(lt *tree.LabelTable) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "STA{states=%d top=%v bottom=%v\n", a.NumStates, a.Top, a.Bottom)
	for _, t := range a.Trans {
		arrow := "->"
		if t.Selecting {
			arrow = "=>"
		}
		fmt.Fprintf(&sb, "  q%d, %s %s (q%d, q%d)\n", t.From, t.Guard.String(lt), arrow, t.Dest.Left, t.Dest.Right)
	}
	sb.WriteString("}")
	return sb.String()
}
