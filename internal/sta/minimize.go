package sta

import (
	"slices"
	"strconv"

	"repro/internal/labels"
)

// MinimizeTopDown returns the unique minimal TDSTA equivalent to a
// (Theorem A.1). The automaton must be top-down deterministic and
// top-down complete. Unreachable states are dropped first.
func (a *STA) MinimizeTopDown() *STA {
	reach := a.Reachable(a.Top)
	alpha := a.EffectiveAlphabet()

	// class[q] is q's current equivalence class. Start from E0, the
	// initial Moore partition: states are separated when they differ on
	// final-set membership or on their selecting labels — exactly the
	// four-way initial relation E0 of Appendix A.2, generalized to
	// per-label selecting sets. Classes are numbered in order of their
	// first state.
	class := make([]int, a.NumStates)
	var first []State // the first state of each class of E0
	for q := 0; q < a.NumStates; q++ {
		if !reach[q] {
			class[q] = -1
			continue
		}
		class[q] = slices.IndexFunc(first, func(r State) bool {
			return a.inBot[r] == a.inBot[q] && a.selOf[r].Equal(a.selOf[q])
		})
		if class[q] < 0 {
			class[q] = len(first)
			first = append(first, State(q))
		}
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
