package sta

import (
	"testing"
	"testing/quick"

	"repro/internal/index"
	"repro/internal/labels"
	"repro/internal/tgen"
	"repro/internal/tree"
)

// abcDoc generates a random document over labels a, b, c.
func abcDoc(seed int64, maxNodes int) *tree.Document {
	return tgen.Random(seed, tgen.Config{
		Labels:   []string{"a", "b", "c"},
		MaxNodes: maxNodes,
	})
}

// abIDs returns the label ids of a and b. A name the random doc lacks
// gets an id past its label table, which no node carries, so the
// automata are well-defined either way; the table itself, which other
// documents with its names share, is not touched.
func abIDs(d *tree.Document) (tree.LabelID, tree.LabelID) {
	id := func(name string, spare tree.LabelID) tree.LabelID {
		if l, ok := d.Names().Lookup(name); ok {
			return l
		}
		return spare
	}
	past := tree.LabelID(d.Names().Size())
	return id("a", past), id("b", past+1)
}

// oracleDescADescB selects all b-nodes with a proper a-labeled XML
// ancestor: the semantics of //a//b.
func oracleDescADescB(d *tree.Document, a, b tree.LabelID) []tree.NodeID {
	var out []tree.NodeID
	for v := tree.NodeID(0); int(v) < d.NumNodes(); v++ {
		if d.Label(v) != b {
			continue
		}
		for u := d.Parent(v); u != tree.Nil; u = d.Parent(u) {
			if d.Label(u) == a {
				out = append(out, v)
				break
			}
		}
	}
	return out
}

// oracleAWithDescB selects all a-nodes with a proper b-labeled XML
// descendant: the semantics of //a[.//b].
func oracleAWithDescB(d *tree.Document, a, b tree.LabelID) []tree.NodeID {
	var out []tree.NodeID
	for v := tree.NodeID(0); int(v) < d.NumNodes(); v++ {
		if d.Label(v) != a {
			continue
		}
		for u := v + 1; u <= d.LastDesc(v); u++ {
			if d.Label(u) == b {
				out = append(out, v)
				break
			}
		}
	}
	return out
}

func sameNodes(a, b []tree.NodeID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestDescADescBTopDownDet(t *testing.T) {
	d := abcDoc(1, 200)
	a, b := abIDs(d)
	aut := exampleDescADescB(a, b)
	if !aut.IsTopDownDeterministic() {
		t.Fatal("A_//a//b should be top-down deterministic")
	}
	if !aut.IsTopDownComplete() {
		t.Fatal("A_//a//b should be top-down complete")
	}
	if aut.IsBottomUpDeterministic() {
		t.Fatal("A_//a//b is not bottom-up deterministic (paper, after Ex. 2.1)")
	}
	res := aut.EvalTopDownDet(d)
	if !res.Accepted {
		t.Fatal("A_//a//b accepts every tree")
	}
	if want := oracleDescADescB(d, a, b); !sameNodes(res.Selected, want) {
		t.Errorf("selected %v, want %v", res.Selected, want)
	}
	if res.Visited != d.NumNodes() {
		t.Errorf("full evaluation should visit all %d nodes, visited %d", d.NumNodes(), res.Visited)
	}
}

// Property: the deterministic evaluator agrees with the nondeterministic
// reference semantics on random documents.
func TestDetAgreesWithReference(t *testing.T) {
	f := func(seed int64) bool {
		d := abcDoc(seed, 150)
		a, b := abIDs(d)
		aut := exampleDescADescB(a, b)
		det := aut.EvalTopDownDet(d)
		ref := aut.Eval(d)
		return det.Accepted == ref.Accepted && sameNodes(det.Selected, ref.Selected)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestRootARecognizer(t *testing.T) {
	d := abcDoc(3, 80)
	aut := exampleRootA(tree.LabelDoc)
	if !aut.Accepts(d) {
		t.Error("recognizer for root=#doc should accept any built document")
	}
	res := aut.EvalTopDownDet(d)
	if !res.Accepted || len(res.Selected) != 0 {
		t.Errorf("recognizer selected %v", res.Selected)
	}
	aID, _ := d.Names().Lookup("a")
	rej := exampleRootA(aID)
	if rej.Accepts(d) {
		t.Error("recognizer for root=a should reject a #doc-rooted document")
	}
	if rej.EvalTopDownDet(d).Accepted {
		t.Error("deterministic evaluation should also reject")
	}
}

func TestUniversalAndSinkDetection(t *testing.T) {
	aut := exampleRootA(tree.LabelDoc)
	if !aut.IsTopDownUniversal(1) {
		t.Error("q⊤ not detected as universal")
	}
	if !aut.IsTopDownSink(2) {
		t.Error("q⊥ not detected as sink")
	}
	if aut.IsTopDownUniversal(0) || aut.IsTopDownSink(0) {
		t.Error("q0 misclassified")
	}
	if !aut.NonChanging(1) || !aut.NonChanging(2) || aut.NonChanging(0) {
		t.Error("NonChanging wrong")
	}
}

// bloatDescADescB builds an equivalent of A_//a//b with redundant and
// unreachable states, to exercise minimization.
func bloatDescADescB(a, b tree.LabelID) *STA {
	// q0, q1 as usual; q2 duplicates q0; q3 duplicates q1; q4 unreachable.
	return (&STA{
		NumStates: 5,
		Top:       []State{0},
		Bottom:    []State{0, 1, 2, 3, 4},
		Trans: []Transition{
			{From: 0, Guard: labels.Of(a), Dest: Pair{3, 2}},
			{From: 0, Guard: labels.Not(a), Dest: Pair{2, 0}},
			{From: 2, Guard: labels.Of(a), Dest: Pair{1, 0}},
			{From: 2, Guard: labels.Not(a), Dest: Pair{0, 2}},
			{From: 1, Guard: labels.Of(b), Dest: Pair{3, 1}, Selecting: true},
			{From: 1, Guard: labels.Not(b), Dest: Pair{1, 3}},
			{From: 3, Guard: labels.Of(b), Dest: Pair{1, 3}, Selecting: true},
			{From: 3, Guard: labels.Not(b), Dest: Pair{3, 1}},
			{From: 4, Guard: labels.Any, Dest: Pair{4, 4}},
		},
	}).Finalize()
}

func TestMinimizeTopDown(t *testing.T) {
	lt := tree.NewLabelTable()
	a, b := lt.Intern("a"), lt.Intern("b")
	bloated := bloatDescADescB(a, b)
	if !bloated.IsTopDownDeterministic() || !bloated.IsTopDownComplete() {
		t.Fatal("bloated automaton should be deterministic and complete")
	}
	min := bloated.MinimizeTopDown()
	if min.NumStates != 2 {
		t.Fatalf("minimal automaton has %d states, want 2:\n%s", min.NumStates, min.String(lt))
	}
	// Equivalence on sample documents.
	var docs []*tree.Document
	for seed := int64(0); seed < 15; seed++ {
		docs = append(docs, abcDoc(seed, 100))
	}
	if !Equivalent(bloated, min, docs) {
		t.Error("minimized automaton not equivalent to original")
	}
	if !Equivalent(min, exampleDescADescB(a, b), docs) {
		t.Error("minimized automaton differs from the canonical A_//a//b")
	}
	// Idempotence.
	min2 := min.MinimizeTopDown()
	if min2.NumStates != min.NumStates {
		t.Errorf("re-minimizing changed state count: %d -> %d", min.NumStates, min2.NumStates)
	}
}

func TestMinimalHasAtMostOneSinkAndUniversal(t *testing.T) {
	lt := tree.NewLabelTable()
	a := lt.Intern("a")
	// Recognizer with two redundant sinks and two redundant universals.
	aut := (&STA{
		NumStates: 5,
		Top:       []State{0},
		Bottom:    []State{1, 2},
		Trans: []Transition{
			{From: 0, Guard: labels.Of(a), Dest: Pair{1, 2}},
			{From: 0, Guard: labels.Not(a), Dest: Pair{3, 4}},
			{From: 1, Guard: labels.Any, Dest: Pair{1, 1}},
			{From: 2, Guard: labels.Any, Dest: Pair{2, 2}},
			{From: 3, Guard: labels.Any, Dest: Pair{3, 3}},
			{From: 4, Guard: labels.Any, Dest: Pair{4, 4}},
		},
	}).Finalize()
	min := aut.MinimizeTopDown()
	if min.NumStates != 3 {
		t.Fatalf("minimal has %d states, want 3 (q0, q⊤, q⊥)", min.NumStates)
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
	if sinks != 1 || universals != 1 {
		t.Errorf("sinks=%d universals=%d, want 1 and 1", sinks, universals)
	}
}

// Theorem 3.1: topdown_jump computes exactly the states of the full run
// at exactly the top-down relevant nodes.
func TestTopDownJumpTheorem(t *testing.T) {
	f := func(seed int64) bool {
		d := abcDoc(seed, 200)
		a, b := abIDs(d)
		aut := exampleDescADescB(a, b) // already minimal
		ix := index.New(d)
		full := aut.EvalTopDownDet(d)
		run := make(Run, d.NumNodes())
		jump := aut.EvalTopDownJump(d, ix.NewCursors(), run)
		if jump.Accepted != full.Accepted {
			return false
		}
		if !sameNodes(jump.Selected, full.Selected) {
			return false
		}
		relevant := aut.RelevantTopDown(d, full.Run)
		relSet := make(map[tree.NodeID]bool, len(relevant))
		for _, v := range relevant {
			relSet[v] = true
		}
		// States must agree exactly on relevant nodes; the jump run may
		// assign NoState elsewhere but never a wrong state.
		for v := tree.NodeID(0); int(v) < d.NumNodes(); v++ {
			if relSet[v] {
				if run[v] != full.Run[v] {
					return false
				}
			} else if run[v] != NoState && run[v] != full.Run[v] {
				return false
			}
		}
		// Visits are bounded by the full traversal.
		return jump.Visited <= full.Visited
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestJumpVisitsOnlyRelevantForRootRecognizer(t *testing.T) {
	d := abcDoc(5, 300)
	ix := index.New(d)
	aut := exampleRootA(tree.LabelDoc)
	res := aut.EvalTopDownJump(d, ix.NewCursors(), nil)
	if !res.Accepted {
		t.Fatal("should accept")
	}
	if res.Visited != 1 {
		t.Errorf("recognizer should visit exactly the root, visited %d", res.Visited)
	}
}

func TestJumpVisitCountsOnChain(t *testing.T) {
	// //a//b over c-chain with an a in the middle and b's below: the
	// jumping run should visit approximately only the a and the b's.
	b := tree.NewBuilder()
	for i := 0; i < 50; i++ {
		b.Open("c")
	}
	b.Open("a")
	for i := 0; i < 50; i++ {
		b.Open("c")
	}
	b.Open("b")
	b.Close()
	for i := 0; i < 50; i++ {
		b.Close()
	}
	b.Close()
	for i := 0; i < 50; i++ {
		b.Close()
	}
	d := b.MustFinish()
	aID, _ := d.Names().Lookup("a")
	bID, _ := d.Names().Lookup("b")
	aut := exampleDescADescB(aID, bID)
	ix := index.New(d)
	res := aut.EvalTopDownJump(d, ix.NewCursors(), nil)
	if !res.Accepted || len(res.Selected) != 1 {
		t.Fatalf("selected %v", res.Selected)
	}
	if res.Visited > 3 {
		t.Errorf("jump visited %d nodes on a 102-node chain; want <= 3 (the a, the b)", res.Visited)
	}
}

func TestAnalyzeStateKinds(t *testing.T) {
	lt := tree.NewLabelTable()
	a, b := lt.Intern("a"), lt.Intern("b")
	aut := exampleDescADescB(a, b)
	ji := aut.AnalyzeState(0)
	if ji.Kind != JumpTopMost {
		t.Errorf("q0 kind = %v, want JumpTopMost", ji.Kind)
	}
	if ids, _ := ji.Essential.Finite(); len(ids) != 1 || ids[0] != a {
		t.Errorf("q0 essential = %v, want {a}", ji.Essential.String(lt))
	}
	ji = aut.AnalyzeState(1)
	if ji.Kind != JumpTopMost {
		t.Errorf("q1 kind = %v, want JumpTopMost", ji.Kind)
	}
	if ids, _ := ji.Essential.Finite(); len(ids) != 1 || ids[0] != b {
		t.Errorf("q1 essential = %v, want {b} (selection makes b essential)", ji.Essential.String(lt))
	}
	rec := exampleRootA(a)
	if rec.AnalyzeState(2).Kind != JumpFail {
		t.Errorf("sink should analyze as JumpFail")
	}
}

// --- Bottom-up ---

func TestBottomUpDetSelectsAWithDescB(t *testing.T) {
	f := func(seed int64) bool {
		d := abcDoc(seed, 150)
		a, b := abIDs(d)
		aut := exampleAWithDescB(a, b)
		if !aut.IsBottomUpDeterministic() {
			return false
		}
		res := aut.EvalBottomUpDet(d)
		if !res.Accepted {
			return false
		}
		return sameNodes(res.Selected, oracleAWithDescB(d, a, b))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestLeafReductionMatchesSweep(t *testing.T) {
	f := func(seed int64) bool {
		d := abcDoc(seed, 120)
		a, b := abIDs(d)
		aut := exampleAWithDescB(a, b)
		sweep := aut.EvalBottomUpDet(d)
		run, accepted := aut.LeafReduction(d)
		if accepted != sweep.Accepted {
			return false
		}
		for v := range run {
			if run[v] != sweep.Run[v] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestBottomUpJumpMatchesFull(t *testing.T) {
	f := func(seed int64) bool {
		d := abcDoc(seed, 200)
		a, b := abIDs(d)
		aut := exampleAWithDescB(a, b)
		ix := index.New(d)
		full := aut.EvalBottomUpDet(d)
		jump := aut.EvalBottomUpJump(d, ix.NewCursors())
		if jump.Accepted != full.Accepted {
			return false
		}
		if !sameNodes(jump.Selected, full.Selected) {
			return false
		}
		return jump.Visited <= full.Visited
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestBottomUpJumpSkipsDeadRegions(t *testing.T) {
	// A document of c's with a single a(b) island: the bottom-up jump
	// should visit only around the island.
	bld := tree.NewBuilder()
	bld.Open("r")
	for i := 0; i < 100; i++ {
		bld.Open("c")
		bld.Close()
	}
	bld.Open("a")
	bld.Open("b")
	bld.Close()
	bld.Close()
	for i := 0; i < 100; i++ {
		bld.Open("c")
		bld.Close()
	}
	bld.Close()
	d := bld.MustFinish()
	a, b := abIDs(d)
	aut := exampleAWithDescB(a, b)
	ix := index.New(d)
	res := aut.EvalBottomUpJump(d, ix.NewCursors())
	if !res.Accepted || len(res.Selected) != 1 {
		t.Fatalf("selected %v", res.Selected)
	}
	if res.Visited > 110 {
		t.Errorf("bottom-up jump visited %d of %d nodes", res.Visited, d.NumNodes())
	}
	if res.Visited >= d.NumNodes() {
		t.Errorf("no skipping happened at all")
	}
}

func TestRelevantBottomUpIncludesSelected(t *testing.T) {
	d := abcDoc(9, 150)
	a, b := abIDs(d)
	aut := exampleAWithDescB(a, b)
	res := aut.EvalBottomUpDet(d)
	rel := aut.RelevantBottomUp(d, res.Run)
	relSet := make(map[tree.NodeID]bool, len(rel))
	for _, v := range rel {
		relSet[v] = true
	}
	for _, v := range res.Selected {
		if !relSet[v] {
			t.Errorf("selected node %d not relevant", v)
		}
	}
	if len(rel) > d.NumNodes() {
		t.Errorf("more relevant nodes than nodes")
	}
}

func TestMinimizeBottomUp(t *testing.T) {
	lt := tree.NewLabelTable()
	a, b := lt.Intern("a"), lt.Intern("b")
	aut := exampleAWithDescB(a, b)
	min := aut.MinimizeBottomUp()
	if min.NumStates != 3 {
		t.Fatalf("minimal BDSTA has %d states, want 3:\n%s", min.NumStates, min.String(lt))
	}
	var docs []*tree.Document
	for seed := int64(20); seed < 35; seed++ {
		docs = append(docs, abcDoc(seed, 80))
	}
	if !Equivalent(aut, min, docs) {
		t.Error("bottom-up minimization changed semantics")
	}
}

func TestRestrictAndReachable(t *testing.T) {
	lt := tree.NewLabelTable()
	a, b := lt.Intern("a"), lt.Intern("b")
	aut := exampleDescADescB(a, b)
	// From q1, only q1 is reachable.
	seen := aut.Reachable([]State{1})
	if seen[0] {
		t.Error("q0 should not be reachable from q1")
	}
}

func TestStringRendering(t *testing.T) {
	lt := tree.NewLabelTable()
	a, b := lt.Intern("a"), lt.Intern("b")
	s := exampleDescADescB(a, b).String(lt)
	if len(s) == 0 {
		t.Error("empty rendering")
	}
}

func TestEffectiveAlphabet(t *testing.T) {
	lt := tree.NewLabelTable()
	a, b := lt.Intern("a"), lt.Intern("b")
	aut := exampleDescADescB(a, b)
	alpha := aut.EffectiveAlphabet()
	if len(alpha) != 3 { // a, b, fresh
		t.Errorf("effective alphabet = %v, want 3 labels", alpha)
	}
	for _, l := range alpha[:2] {
		if l != a && l != b {
			t.Errorf("unexpected label %d", l)
		}
	}
	if alpha[2] != b+1 {
		t.Errorf("fresh label = %d", alpha[2])
	}
}

func BenchmarkEvalTopDownDet(b *testing.B) {
	d := abcDoc(1, 50000)
	a, bb := abIDs(d)
	aut := exampleDescADescB(a, bb)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = aut.EvalTopDownDet(d)
	}
}

func BenchmarkEvalTopDownJump(b *testing.B) {
	d := abcDoc(1, 50000)
	a, bb := abIDs(d)
	aut := exampleDescADescB(a, bb)
	cur := index.New(d).NewCursors()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cur.Reset() // warm: the cursor set of the run before, rewound
		_ = aut.EvalTopDownJump(d, cur, nil)
	}
}
