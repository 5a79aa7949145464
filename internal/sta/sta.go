// Package sta implements the selecting tree automata of §2 and §3 of the
// paper: the STA model over binary (first-child/next-sibling) trees,
// top-down and bottom-up deterministic subclasses, reference run
// semantics, minimization (Appendix A), the relevant-node
// characterizations (Lemma 3.1 and 3.2) and the jumping evaluation
// algorithms topdown_jump (Appendix B.1) and a bottom-up skipping
// evaluator (§3.2 / Appendix B.2).
package sta

import (
	"fmt"
	"sort"
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

	byFrom  [][]int32
	inTop   []bool
	inBot   []bool
	selOf   []labels.Set // per-state selecting labels, derived from Trans
	jump    []JumpInfo   // per-state AnalyzeState, for EvalTopDownJump
	alpha   []tree.LabelID
	isFinal bool
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
	a.inTop = make([]bool, a.NumStates)
	for _, q := range a.Top {
		a.inTop[q] = true
	}
	a.inBot = make([]bool, a.NumStates)
	for _, q := range a.Bottom {
		a.inBot[q] = true
	}
	a.jump = make([]JumpInfo, a.NumStates)
	for q := range a.jump {
		a.jump[q] = a.AnalyzeState(State(q))
	}
	a.alpha = a.mentionedLabels()
	a.isFinal = true
	return a
}

// SizeBytes estimates the resident size of the (minimized) automaton:
// transitions with their guard sets plus the lookup structures built by
// Finalize. The byte-weighted compiled-query LRU weighs cache entries
// with it, so the estimate only needs to be proportionally honest.
func (a *STA) SizeBytes() int64 {
	const transFixed = 48 // Transition struct less the guard's backing
	b := int64(128)       // STA header and slice headers
	b += 4 * int64(len(a.Top)+len(a.Bottom))
	for i := range a.Trans {
		b += transFixed + a.Trans[i].Guard.SizeBytes()
	}
	for _, row := range a.byFrom {
		b += 24 + 4*int64(len(row))
	}
	b += int64(len(a.inTop) + len(a.inBot))
	for _, s := range a.selOf {
		b += s.SizeBytes()
	}
	for _, j := range a.jump {
		b += 8 + j.Essential.SizeBytes()
	}
	b += 4 * int64(len(a.alpha))
	return b
}

func (a *STA) mentionedLabels() []tree.LabelID {
	seen := make(map[tree.LabelID]bool)
	for _, t := range a.Trans {
		if ids, ok := t.Guard.Finite(); ok {
			for _, l := range ids {
				seen[l] = true
			}
		} else if ids, ok := t.Guard.Negated(); ok {
			for _, l := range ids {
				seen[l] = true
			}
		}
	}
	out := make([]tree.LabelID, 0, len(seen))
	for l := range seen {
		out = append(out, l)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// EffectiveAlphabet returns the labels mentioned in any guard plus one
// fresh label standing for "every other symbol"; per-label algorithms
// (minimization, determinism checks) iterate this set, which is sound
// because guards cannot distinguish unmentioned labels.
func (a *STA) EffectiveAlphabet() []tree.LabelID {
	fresh := tree.LabelID(0)
	if n := len(a.alpha); n > 0 {
		fresh = a.alpha[n-1] + 1
	}
	out := make([]tree.LabelID, len(a.alpha), len(a.alpha)+1)
	copy(out, a.alpha)
	return append(out, fresh)
}

// SelectingLabels returns the labels l with (q, l) ∈ S.
func (a *STA) SelectingLabels(q State) labels.Set { return a.selOf[q] }

// IsSelecting reports whether (q, l) is a selecting configuration.
func (a *STA) IsSelecting(q State, l tree.LabelID) bool {
	return a.selOf[q].Contains(l)
}

// IsMarking reports whether state q selects on any label.
func (a *STA) IsMarking(q State) bool { return !a.selOf[q].IsEmpty() }

// TransOf returns the indices into Trans of q's transitions.
func (a *STA) TransOf(q State) []int32 { return a.byFrom[q] }

// Dest returns δ(q, l): all destination pairs reachable from q reading l.
func (a *STA) Dest(q State, l tree.LabelID) []Pair {
	var out []Pair
	for _, ti := range a.byFrom[q] {
		if a.Trans[ti].Guard.Contains(l) {
			out = append(out, a.Trans[ti].Dest)
		}
	}
	return out
}

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

// Sources returns δ(q1, q2, l): all states q with a transition
// q, L -> (q1, q2) and l ∈ L.
func (a *STA) Sources(q1, q2 State, l tree.LabelID) []State {
	var out []State
	for _, t := range a.Trans {
		if t.Dest.Left == q1 && t.Dest.Right == q2 && t.Guard.Contains(l) {
			out = append(out, t.From)
		}
	}
	return out
}

// SourceDet returns the unique source state of a bottom-up deterministic
// automaton for (q1, q2, l), or ok=false.
func (a *STA) SourceDet(q1, q2 State, l tree.LabelID) (State, bool) {
	for _, t := range a.Trans {
		if t.Dest.Left == q1 && t.Dest.Right == q2 && t.Guard.Contains(l) {
			return t.From, true
		}
	}
	return NoState, false
}

// IsTopDownDeterministic reports whether |T| == 1 and δ(q, l) has at most
// one element for all q, l (Definition after 2.1; completeness is checked
// separately).
func (a *STA) IsTopDownDeterministic() bool {
	if len(a.Top) != 1 {
		return false
	}
	for q := 0; q < a.NumStates; q++ {
		ts := a.byFrom[q]
		for i := 0; i < len(ts); i++ {
			for j := i + 1; j < len(ts); j++ {
				if a.Trans[ts[i]].Guard.Overlaps(a.Trans[ts[j]].Guard) {
					return false
				}
			}
		}
	}
	return true
}

// IsTopDownComplete reports whether δ(q, l) is non-empty for every q and
// every label of the effective alphabet.
func (a *STA) IsTopDownComplete() bool {
	for q := State(0); int(q) < a.NumStates; q++ {
		cover := labels.None
		for _, ti := range a.byFrom[q] {
			cover = cover.Union(a.Trans[ti].Guard)
		}
		if !cover.IsAny() {
			return false
		}
	}
	return true
}

// IsBottomUpDeterministic reports whether |B| == 1 and δ(q1, q2, l) has at
// most one element for all q1, q2, l.
func (a *STA) IsBottomUpDeterministic() bool {
	if len(a.Bottom) != 1 {
		return false
	}
	for i := 0; i < len(a.Trans); i++ {
		for j := i + 1; j < len(a.Trans); j++ {
			ti, tj := a.Trans[i], a.Trans[j]
			if ti.Dest == tj.Dest && ti.From != tj.From && ti.Guard.Overlaps(tj.Guard) {
				return false
			}
		}
	}
	return true
}

// IsBottomUpComplete reports whether δ(q1, q2, l) is non-empty for every
// pair of states and every label of the effective alphabet.
func (a *STA) IsBottomUpComplete() bool {
	alpha := a.EffectiveAlphabet()
	for q1 := State(0); int(q1) < a.NumStates; q1++ {
		for q2 := State(0); int(q2) < a.NumStates; q2++ {
			for _, l := range alpha {
				if _, ok := a.SourceDet(q1, q2, l); !ok {
					// Non-deterministic automata may have several
					// sources; any is fine for completeness.
					if len(a.Sources(q1, q2, l)) == 0 {
						return false
					}
				}
			}
		}
	}
	return true
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

// Reachable returns the states reachable from the given roots through
// transition right-hand sides (Definition A.1).
func (a *STA) Reachable(roots []State) []bool {
	seen := make([]bool, a.NumStates)
	var stack []State
	for _, q := range roots {
		if !seen[q] {
			seen[q] = true
			stack = append(stack, q)
		}
	}
	for len(stack) > 0 {
		q := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, ti := range a.byFrom[q] {
			for _, nq := range []State{a.Trans[ti].Dest.Left, a.Trans[ti].Dest.Right} {
				if !seen[nq] {
					seen[nq] = true
					stack = append(stack, nq)
				}
			}
		}
	}
	return seen
}

// Restrict returns A[q1..qn] (Definition A.2): the automaton with T
// replaced by the given states and everything unreachable dropped.
// State numbering is preserved (unreachable states keep their ids but
// lose transitions), which keeps comparisons simple.
func (a *STA) Restrict(roots ...State) *STA {
	seen := a.Reachable(roots)
	out := &STA{NumStates: a.NumStates, Top: append([]State(nil), roots...)}
	for _, q := range a.Bottom {
		if seen[q] {
			out.Bottom = append(out.Bottom, q)
		}
	}
	for _, t := range a.Trans {
		if seen[t.From] {
			out.Trans = append(out.Trans, t)
		}
	}
	return out.Finalize()
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
