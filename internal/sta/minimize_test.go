package sta

import (
	"maps"
	"math/rand"
	"slices"
	"strconv"
	"testing"
	"testing/quick"

	"repro/internal/index"
	"repro/internal/labels"
	"repro/internal/tgen"
	"repro/internal/tree"
)

// Minimization of top-down deterministic STAs (Theorem A.1) serves no
// query: the TDSTA a query compiles to is minimal as built
// (compile.DeterminizeTopDown). It is kept here as the reference that
// claim is tested against.

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

// EffectiveAlphabet returns the labels mentioned in any guard, in
// increasing order, plus one fresh label standing for "every other
// symbol"; per-label algorithms (minimization, determinism checks)
// iterate this set, which is sound because guards cannot distinguish
// unmentioned labels.
func (a *STA) EffectiveAlphabet() []tree.LabelID {
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
	out := slices.Sorted(maps.Keys(seen))
	fresh := tree.LabelID(0)
	if n := len(out); n > 0 {
		fresh = out[n-1] + 1
	}
	return append(out, fresh)
}

// randomTDSTA generates a random complete top-down deterministic STA
// over the labels {a, b, c}: for every state and every guard cell of the
// partition {a}, {b}, {c}, Σ\{a,b,c}, one destination pair, with random
// bottom membership and selecting flags.
func randomTDSTA(rng *rand.Rand, numStates int, a, b, c tree.LabelID) *STA {
	guards := []labels.Set{
		labels.Of(a), labels.Of(b), labels.Of(c), labels.Not(a, b, c),
	}
	aut := &STA{
		NumStates: numStates,
		Top:       []State{State(rng.Intn(numStates))},
	}
	for q := 0; q < numStates; q++ {
		if rng.Intn(3) > 0 { // bias toward accepting leaves
			aut.Bottom = append(aut.Bottom, State(q))
		}
		for _, g := range guards {
			aut.Trans = append(aut.Trans, Transition{
				From:      State(q),
				Guard:     g,
				Dest:      Pair{State(rng.Intn(numStates)), State(rng.Intn(numStates))},
				Selecting: rng.Intn(6) == 0,
			})
		}
	}
	return aut.Finalize()
}

// sampleDocs builds a shared pool of sample documents over {a,b,c} for
// equivalence checks.
func sampleDocs(n int) []*tree.Document {
	docs := make([]*tree.Document, 0, n)
	for seed := int64(100); len(docs) < n; seed++ {
		docs = append(docs, tgen.Random(seed, tgen.Config{
			Labels:   []string{"a", "b", "c"},
			MaxNodes: 60,
		}))
	}
	// Plus degenerate shapes.
	docs = append(docs, tgen.Chain("a", 12), tgen.Chain("b", 1), tgen.Star("a", "c", 8))
	return docs
}

// TestMinimizeRandomTDSTA: on random deterministic automata,
// minimization (a) preserves acceptance and selection on sample trees,
// (b) never grows, (c) is idempotent, and (d) leaves at most one sink
// and one universal state.
func TestMinimizeRandomTDSTA(t *testing.T) {
	lt := tree.NewLabelTable()
	a, b, c := lt.Intern("a"), lt.Intern("b"), lt.Intern("c")
	docs := sampleDocs(12)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		aut := randomTDSTA(rng, 2+rng.Intn(6), a, b, c)
		if !aut.IsTopDownDeterministic() || !aut.IsTopDownComplete() {
			t.Logf("generator produced a bad automaton")
			return false
		}
		min := aut.MinimizeTopDown()
		if min.NumStates > aut.NumStates {
			t.Logf("minimization grew: %d -> %d", aut.NumStates, min.NumStates)
			return false
		}
		if !min.IsTopDownDeterministic() {
			t.Logf("minimal automaton not deterministic")
			return false
		}
		if !Equivalent(aut, min, docs) {
			t.Logf("seed=%d: minimized automaton differs\noriginal:\n%s\nminimal:\n%s",
				seed, aut.String(lt), min.String(lt))
			return false
		}
		again := min.MinimizeTopDown()
		if again.NumStates != min.NumStates {
			t.Logf("not idempotent: %d -> %d", min.NumStates, again.NumStates)
			return false
		}
		sinks, universals := 0, 0
		for q := State(0); int(q) < min.NumStates; q++ {
			if min.IsTopDownSink(q) {
				sinks++
			}
			if min.IsTopDownUniversal(q) {
				universals++
			}
		}
		return sinks <= 1 && universals <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestJumpOnRandomMinimalTDSTA: topdown_jump agrees with the full run on
// random minimal automata — Theorem 3.1 beyond the hand-built examples.
func TestJumpOnRandomMinimalTDSTA(t *testing.T) {
	lt := tree.NewLabelTable()
	a, b, c := lt.Intern("a"), lt.Intern("b"), lt.Intern("c")
	docs := sampleDocs(8)
	indexes := make([]*index.Index, len(docs))
	for i, d := range docs {
		indexes[i] = index.New(d)
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		min := randomTDSTA(rng, 2+rng.Intn(5), a, b, c).MinimizeTopDown()
		for i, d := range docs {
			full := min.EvalTopDownDet(d)
			run := make(Run, d.NumNodes())
			jump := min.EvalTopDownJump(d, indexes[i].NewCursors(), run, nil)
			if full.Accepted != jump.Accepted {
				t.Logf("seed=%d doc=%d acceptance: full=%v jump=%v\n%s",
					seed, i, full.Accepted, jump.Accepted, min.String(lt))
				return false
			}
			if !full.Accepted {
				continue
			}
			if len(full.Selected) != len(jump.Selected) {
				t.Logf("seed=%d doc=%d selection differs: %v vs %v",
					seed, i, full.Selected, jump.Selected)
				return false
			}
			for k := range full.Selected {
				if full.Selected[k] != jump.Selected[k] {
					return false
				}
			}
			if jump.Visited > full.Visited {
				return false
			}
			// The recorded run is the full run's, where it records.
			for v, q := range run {
				if q != NoState && q != full.Run[v] {
					t.Logf("seed=%d doc=%d node %d: state %d, full run %d", seed, i, v, q, full.Run[v])
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestBottomUpJumpOnRandomBDSTA: the skipping bottom-up evaluator agrees
// with the full sweep on randomized bottom-up deterministic automata.
func TestBottomUpJumpOnRandomBDSTA(t *testing.T) {
	lt := tree.NewLabelTable()
	a, b := lt.Intern("a"), lt.Intern("b")
	docs := sampleDocs(8)
	indexes := make([]*index.Index, len(docs))
	for i, d := range docs {
		indexes[i] = index.New(d)
	}
	aut := exampleAWithDescB(a, b)
	for i, d := range docs {
		full := aut.EvalBottomUpDet(d)
		jump := aut.EvalBottomUpJump(d, indexes[i].NewCursors())
		if full.Accepted != jump.Accepted || len(full.Selected) != len(jump.Selected) {
			t.Fatalf("doc %d: full=%v/%d jump=%v/%d", i,
				full.Accepted, len(full.Selected), jump.Accepted, len(jump.Selected))
		}
	}
}
