package repro_test

import (
	"bytes"
	"testing"

	"repro"
	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/stepwise"
	"repro/internal/tree"
	"repro/internal/xmark"
	"repro/internal/xmlparse"
)

// TestEndToEndPipeline exercises the full stack the way a user would:
// generate a workload, serialize it to XML, re-parse it, and verify that
// every engine agrees with the oracle on every paper query.
func TestEndToEndPipeline(t *testing.T) {
	gen := xmark.Generate(xmark.Config{Scale: 0.004, Seed: 11})
	src := gen.XMLString()
	doc, err := xmlparse.ParseString(src)
	if err != nil {
		t.Fatalf("re-parse of generated document: %v", err)
	}
	// Adjacent text nodes merge on re-parse, so compare element counts.
	countElems := func(d *tree.Document) int {
		n := 0
		for v := tree.NodeID(0); int(v) < d.NumNodes(); v++ {
			if d.Label(v) != tree.LabelText {
				n++
			}
		}
		return n
	}
	if countElems(doc) != countElems(gen) {
		t.Fatalf("parse round trip changed element count: %d -> %d", countElems(gen), countElems(doc))
	}
	eng := core.New(doc)
	for _, q := range xmark.Queries() {
		want, err := stepwise.EvalString(doc, q.XPath, stepwise.Default())
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range []core.Strategy{core.Naive, core.Jumping, core.Memoized, core.Optimized, core.Auto} {
			got, err := eng.QueryWith(q.XPath, s)
			if err != nil {
				t.Fatalf("%s (%v): %v", q.ID, s, err)
			}
			if len(got.Nodes) != len(want.Selected) {
				t.Errorf("%s (%v): %d nodes, oracle %d", q.ID, s, len(got.Nodes), len(want.Selected))
				continue
			}
			for i := range want.Selected {
				if got.Nodes[i] != want.Selected[i] {
					t.Errorf("%s (%v): node %d differs", q.ID, s, i)
					break
				}
			}
		}
	}
}

// TestBinarySerializationPipeline: documents survive the binary format
// and evaluate identically afterwards.
func TestBinarySerializationPipeline(t *testing.T) {
	d1 := xmark.Generate(xmark.Config{Scale: 0.003, Seed: 5})
	var buf bytes.Buffer
	if _, err := repro.SaveDocument(&buf, d1); err != nil {
		t.Fatal(err)
	}
	d2, err := repro.LoadDocument(&buf)
	if err != nil {
		t.Fatal(err)
	}
	e1, e2 := repro.NewEngine(d1), repro.NewEngine(d2)
	for _, q := range []string{"//listitem//keyword", "/site/people/person[ address and (phone or homepage) ]"} {
		a1, err := e1.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		a2, err := e2.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		if len(a1.Nodes) != len(a2.Nodes) {
			t.Errorf("%q: %d vs %d after serialization", q, len(a1.Nodes), len(a2.Nodes))
		}
	}
}

// TestExperimentInvariantsSmallScale runs the Figure 3 harness at a tiny
// scale and re-checks its cross-strategy invariants end to end.
func TestExperimentInvariantsSmallScale(t *testing.T) {
	w := exp.NewWorkload(0.002, 3)
	rows, err := exp.Figure3(w)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.Selected > r.VisitedJump || r.VisitedJump > r.VisitedNoJump {
			t.Errorf("%s: count invariants violated: %d/%d/%d",
				r.ID, r.Selected, r.VisitedJump, r.VisitedNoJump)
		}
	}
}
