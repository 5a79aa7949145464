package core

import (
	"testing"

	"repro/internal/tgen"
	"repro/internal/xmark"
)

// visitedAndRelevant runs query on TopDownDet through the engine and
// returns the Visited it reports and the number of top-down relevant
// nodes (Lemma 3.1) of the minimal TDSTA the query cache now holds for
// it, computed from that automaton's full run.
func visitedAndRelevant(t *testing.T, e *Engine, query string) (visited, relevant int) {
	t.Helper()
	cur, err := e.EvalCursor(query, TopDownDet)
	if err != nil {
		t.Fatalf("%s: %v", query, err)
	}
	visited = cur.Visited()
	cur.Close()
	v, ok := e.cache.Get(e.cacheKey(query))
	if !ok {
		t.Fatalf("%s: not cached", query)
	}
	aut := v.(*compiled).det.Load()
	return visited, len(aut.RelevantTopDown(e.doc, aut.EvalTopDownDet(e.doc).Run))
}

// TestTDSTAVisitsTheRelevantNodes is Theorem 3.1 through the engine:
// topdown_jump on a minimal TDSTA visits exactly the top-down relevant
// nodes, so the Visited a TopDownDet request reports equals their
// number. It holds on the paper queries the TDSTA takes and on the
// shapes bulk-stream reads, at two XMark scales.
func TestTDSTAVisitsTheRelevantNodes(t *testing.T) {
	var queries []string
	for _, q := range xmark.Queries() {
		switch q.ID {
		case "Q01", "Q02", "Q03", "Q04", "Q05", "Q06", "Q11":
			queries = append(queries, q.XPath)
		}
	}
	queries = append(queries, "/site//text", "/site//listitem", "/site//emph")
	for _, scale := range []float64{0.01, 0.05} {
		e := New(xmark.Generate(xmark.Config{Scale: scale, Seed: 1}))
		for _, q := range queries {
			if visited, relevant := visitedAndRelevant(t, e, q); visited != relevant || relevant == 0 {
				t.Errorf("XMark %g %s: visited %d, relevant %d; want equal and not 0", scale, q, visited, relevant)
			}
		}
	}
}

// TestTDSTAVisitsAtLeastTheRelevantNodes: under a `*` step the run has
// no move that skips text leaves, so on documents with text it visits
// more than the relevant nodes. It never visits fewer; the gap is
// logged, not held to zero, until the run jumps over text.
func TestTDSTAVisitsAtLeastTheRelevantNodes(t *testing.T) {
	for _, q := range []string{"//*", "/a/*//b"} {
		over, gap := 0, 0
		const seeds = 50
		for seed := int64(1); seed <= seeds; seed++ {
			e := New(tgen.Random(seed, tgen.Config{MaxNodes: 200, TextProb: 0.2}))
			visited, relevant := visitedAndRelevant(t, e, q)
			if visited < relevant {
				t.Errorf("%s seed %d: visited %d, fewer than the %d relevant", q, seed, visited, relevant)
			}
			if visited > relevant {
				over++
				gap += visited - relevant
			}
		}
		t.Logf("%s: visited > relevant on %d of %d documents, %d nodes over in all", q, over, seeds, gap)
	}
}

// TestTDSTAAbsentLabelVisitsNothing: a path naming a label the document
// lacks can select nothing, and its TDSTA is built as the one state
// that never selects, so topdown_jump answers it without visiting a
// node. Left to the states of the steps before the absent label, the
// run would search the document's regions for it (4 939 nodes here).
func TestTDSTAAbsentLabelVisitsNothing(t *testing.T) {
	const query = "/site/*/*/zzz//keyword"
	e := New(xmark.Generate(xmark.Config{Scale: 0.1, Seed: 1}))
	cur, err := e.EvalCursor(query, TopDownDet)
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()
	if cur.Count() != 0 || cur.Visited() != 0 {
		t.Errorf("%s: %d selected, %d visited; want 0 and 0", query, cur.Count(), cur.Visited())
	}
	v, _ := e.cache.Get(e.cacheKey(query))
	if n := v.(*compiled).det.Load().NumStates; n != 1 {
		t.Errorf("%s: TDSTA of %d states, want 1", query, n)
	}
}
