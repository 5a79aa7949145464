package sta

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/index"
	"repro/internal/labels"
	"repro/internal/tgen"
	"repro/internal/tree"
)

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
