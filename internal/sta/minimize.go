package sta

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/labels"
	"repro/internal/tree"
)

// MakeTopDownComplete returns an equivalent automaton in which δ(q, l) is
// non-empty for every q and l, adding a fresh sink state if needed.
// Deterministic automata stay deterministic.
func (a *STA) MakeTopDownComplete() *STA {
	missing := make([]labels.Set, a.NumStates)
	needSink := false
	for q := 0; q < a.NumStates; q++ {
		cover := labels.None
		for _, ti := range a.byFrom[q] {
			cover = cover.Union(a.Trans[ti].Guard)
		}
		missing[q] = cover.Complement()
		if !missing[q].IsEmpty() {
			needSink = true
		}
	}
	if !needSink {
		return a
	}
	out := &STA{
		NumStates: a.NumStates + 1,
		Top:       append([]State(nil), a.Top...),
		Bottom:    append([]State(nil), a.Bottom...),
		Trans:     append([]Transition(nil), a.Trans...),
	}
	sink := State(a.NumStates)
	for q := 0; q < a.NumStates; q++ {
		if !missing[q].IsEmpty() {
			out.Trans = append(out.Trans, Transition{
				From: State(q), Guard: missing[q], Dest: Pair{sink, sink},
			})
		}
	}
	out.Trans = append(out.Trans, Transition{
		From: sink, Guard: labels.Any, Dest: Pair{sink, sink},
	})
	return out.Finalize()
}

// partitionKey is the initial Moore partition: states are separated when
// they differ on final-set membership or on their selecting labels —
// exactly the four-way initial relation E0 of Appendix A.2, generalized
// to per-label selecting sets.
func (a *STA) partitionKey(q State, bottomUp bool) string {
	final := a.inBot[q]
	if bottomUp {
		final = a.inTop[q]
	}
	return fmt.Sprintf("%v|%s", final, a.selOf[q].String(nil))
}

// MinimizeTopDown returns the unique minimal TDSTA equivalent to a
// (Theorem A.1). The automaton must be top-down deterministic and
// top-down complete. Unreachable states are dropped first.
func (a *STA) MinimizeTopDown() *STA {
	reach := a.Reachable(a.Top)
	alpha := a.EffectiveAlphabet()

	// class[q] is q's current equivalence class; start from E0.
	class := make([]int, a.NumStates)
	keys := make(map[string]int)
	for q := 0; q < a.NumStates; q++ {
		if !reach[q] {
			class[q] = -1
			continue
		}
		k := a.partitionKey(State(q), false)
		id, ok := keys[k]
		if !ok {
			id = len(keys)
			keys[k] = id
		}
		class[q] = id
	}

	var sig []byte // one state's signature, reused across states
	for {
		next := make([]int, a.NumStates)
		sigs := make(map[string]int)
		for q := 0; q < a.NumStates; q++ {
			if !reach[q] {
				next[q] = -1
				continue
			}
			sig = strconv.AppendInt(sig[:0], int64(class[q]), 10)
			for _, l := range alpha {
				dest, ok := a.DestDet(State(q), l)
				if !ok {
					sig = append(sig, "|∅"...)
					continue
				}
				sig = append(sig, '|')
				sig = strconv.AppendInt(sig, int64(class[dest.Left]), 10)
				sig = append(sig, ',')
				sig = strconv.AppendInt(sig, int64(class[dest.Right]), 10)
			}
			id, ok := sigs[string(sig)]
			if !ok {
				id = len(sigs)
				sigs[string(sig)] = id
			}
			next[q] = id
		}
		// Stable iff the partition has the same number of classes.
		if len(sigs) == countClasses(class) {
			break
		}
		class = next
	}
	return a.quotient(class)
}

// MinimizeBottomUp returns the minimal BDSTA equivalent to a. The
// automaton must be bottom-up deterministic and bottom-up complete.
func (a *STA) MinimizeBottomUp() *STA {
	gen := a.generable()
	alpha := a.EffectiveAlphabet()
	class := make([]int, a.NumStates)
	keys := make(map[string]int)
	for q := 0; q < a.NumStates; q++ {
		if !gen[q] {
			class[q] = -1
			continue
		}
		k := a.partitionKey(State(q), true)
		id, ok := keys[k]
		if !ok {
			id = len(keys)
			keys[k] = id
		}
		class[q] = id
	}
	// Precompute source lookups once per (q1, q2, l).
	for {
		next := make([]int, a.NumStates)
		sigs := make(map[string]int)
		for q := 0; q < a.NumStates; q++ {
			if !gen[q] {
				next[q] = -1
				continue
			}
			var sb strings.Builder
			fmt.Fprintf(&sb, "c%d", class[q])
			for other := 0; other < a.NumStates; other++ {
				if !gen[other] {
					continue
				}
				for _, l := range alpha {
					if s, ok := a.SourceDet(State(q), State(other), l); ok {
						fmt.Fprintf(&sb, "|L%d", class[s])
					} else {
						sb.WriteString("|L∅")
					}
					if s, ok := a.SourceDet(State(other), State(q), l); ok {
						fmt.Fprintf(&sb, "|R%d", class[s])
					} else {
						sb.WriteString("|R∅")
					}
				}
			}
			sig := sb.String()
			id, ok := sigs[sig]
			if !ok {
				id = len(sigs)
				sigs[sig] = id
			}
			next[q] = id
		}
		if len(sigs) == countClasses(class) {
			break
		}
		class = next
	}
	return a.quotient(class)
}

// generable returns the states reachable bottom-up: B at the leaves,
// closed under δ upward.
func (a *STA) generable() []bool {
	gen := make([]bool, a.NumStates)
	for _, q := range a.Bottom {
		gen[q] = true
	}
	for changed := true; changed; {
		changed = false
		for _, t := range a.Trans {
			if !gen[t.From] && gen[t.Dest.Left] && gen[t.Dest.Right] {
				gen[t.From] = true
				changed = true
			}
		}
	}
	return gen
}

func countClasses(class []int) int {
	seen := make(map[int]bool)
	for _, c := range class {
		if c >= 0 {
			seen[c] = true
		}
	}
	return len(seen)
}

// quotient builds the automaton over equivalence classes. class[q] == -1
// marks dropped (unreachable) states.
func (a *STA) quotient(class []int) *STA {
	// Renumber classes densely in order of first occurrence.
	renum := make(map[int]State)
	for q := 0; q < a.NumStates; q++ {
		if class[q] < 0 {
			continue
		}
		if _, ok := renum[class[q]]; !ok {
			renum[class[q]] = State(len(renum))
		}
	}
	out := &STA{NumStates: len(renum)}
	seenTop := make(map[State]bool)
	for _, q := range a.Top {
		if class[q] < 0 {
			continue
		}
		c := renum[class[q]]
		if !seenTop[c] {
			seenTop[c] = true
			out.Top = append(out.Top, c)
		}
	}
	seenBot := make(map[State]bool)
	for _, q := range a.Bottom {
		if class[q] < 0 {
			continue
		}
		c := renum[class[q]]
		if !seenBot[c] {
			seenBot[c] = true
			out.Bottom = append(out.Bottom, c)
		}
	}
	// Emit transitions from one representative per class, merging guards
	// of transitions with identical (dest, selecting).
	repDone := make(map[State]bool)
	type tkey struct {
		from State
		dest Pair
		sel  bool
	}
	merged := make(map[tkey]labels.Set)
	var order []tkey
	for q := 0; q < a.NumStates; q++ {
		if class[q] < 0 {
			continue
		}
		c := renum[class[q]]
		if repDone[c] {
			continue
		}
		repDone[c] = true
		for _, ti := range a.byFrom[q] {
			t := a.Trans[ti]
			if class[t.Dest.Left] < 0 || class[t.Dest.Right] < 0 {
				continue // transition into dropped states cannot fire
			}
			k := tkey{
				from: c,
				dest: Pair{renum[class[t.Dest.Left]], renum[class[t.Dest.Right]]},
				sel:  t.Selecting,
			}
			if _, ok := merged[k]; !ok {
				order = append(order, k)
				merged[k] = t.Guard
			} else {
				merged[k] = merged[k].Union(t.Guard)
			}
		}
	}
	for _, k := range order {
		out.Trans = append(out.Trans, Transition{
			From: k.from, Guard: merged[k], Dest: k.dest, Selecting: k.sel,
		})
	}
	return out.Finalize()
}

// Equivalent reports whether a and b select the same nodes and accept the
// same trees on the given sample documents; a cheap stand-in for the
// EXPTIME-complete exact equivalence used by tests.
func Equivalent(a, b *STA, docs []*tree.Document) bool {
	for _, d := range docs {
		ra, rb := a.Eval(d), b.Eval(d)
		if ra.Accepted != rb.Accepted {
			return false
		}
		if len(ra.Selected) != len(rb.Selected) {
			return false
		}
		for i := range ra.Selected {
			if ra.Selected[i] != rb.Selected[i] {
				return false
			}
		}
	}
	return true
}
