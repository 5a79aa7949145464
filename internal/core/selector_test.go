package core

// The Auto selector's decision table and the routing fixes it rode in
// with: chains with an absent label must short-circuit to an empty
// answer without running (or polluting the estimates of) any engine,
// and the explain trace must say which engine each run span timed.

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/hybrid"
	"repro/internal/obsv"
	"repro/internal/tree"
	"repro/internal/xmlparse"
	"repro/internal/xpath"
)

// selDoc: b is frequent (24×), c rare (1×), so /r/a/b has min=1 (the
// root) and max=24 — past the §5 threshold (1 <= 0.05·24), i.e. the
// static heuristic routes it to Hybrid.
func selDoc(t *testing.T) *tree.Document {
	t.Helper()
	var sb strings.Builder
	sb.WriteString("<r><a>")
	for i := 0; i < 24; i++ {
		sb.WriteString("<b/>")
	}
	sb.WriteString("</a><a><c/></a></r>")
	d, err := xmlparse.ParseString(sb.String())
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func mustPath(t *testing.T, q string) *xpath.Path {
	t.Helper()
	p, err := xpath.Parse(q)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// shapeOn resolves query q to its shape on eng's selector, and decideOn
// decides a shape, the way autoCursor does: with the chain counts
// probed in eng's document.
func shapeOn(t *testing.T, eng *Engine, q string) *shapeStats {
	t.Helper()
	return eng.auto.shapeFor(q, mustPath(t, q))
}

func decideOn(t *testing.T, eng *Engine, st *shapeStats) autoDecision {
	t.Helper()
	var min, max int
	if st.chain {
		min, max = eng.chainCounts(mustPath(t, st.shape))
	}
	return eng.auto.decide(st, min, max)
}

// TestAutoDecisionTable walks the selector through its whole decision
// vocabulary on one engine.
func TestAutoDecisionTable(t *testing.T) {
	eng := New(selDoc(t))
	sel := eng.auto

	// Cold chain key, rare label: the §5 heuristic decides — Hybrid.
	stChain := shapeOn(t, eng, "/r/a/b")
	if !stChain.eligible[slotHybrid] || !stChain.eligible[slotTDSTA] || !stChain.eligible[slotOptimized] {
		t.Fatalf("eligibility for /r/a/b = %v, want all three", stChain.eligible)
	}
	d := decideOn(t, eng, stChain)
	if d.strategy != Hybrid || d.reason != ReasonCold {
		t.Fatalf("cold rare chain: got (%v, %s), want (Hybrid, %s)", d.strategy, d.reason, ReasonCold)
	}

	// Cold chain key, no rare label: heuristic says Optimized. /r/a has
	// min=1 (root) and max=2, 1 > 0.05·2.
	stPlain := shapeOn(t, eng, "/r/a")
	if d := decideOn(t, eng, stPlain); d.strategy != Optimized || d.reason != ReasonCold {
		t.Fatalf("cold non-rare chain: got (%v, %s), want (Optimized, %s)", d.strategy, d.reason, ReasonCold)
	}

	// Out-of-fragment query: neither chain nor TDSTA eligible — the
	// single-candidate path, no probing ever.
	stBack := shapeOn(t, eng, "//b/parent::*")
	if stBack.eligible[slotHybrid] || stBack.eligible[slotTDSTA] {
		t.Fatalf("eligibility for //b/parent::* = %v, want optimized only", stBack.eligible)
	}
	if d := decideOn(t, eng, stBack); d.strategy != Optimized || d.reason != ReasonOnly {
		t.Fatalf("out-of-fragment: got (%v, %s), want (Optimized, %s)", d.strategy, d.reason, ReasonOnly)
	}

	// One observation in: the unmeasured candidates are probed in slot
	// order before any argmin is trusted.
	sel.observe(stChain, slotHybrid, 50_000, 10)
	d = decideOn(t, eng, stChain)
	if d.strategy != Optimized || d.reason != ReasonProbe {
		t.Fatalf("probe 1: got (%v, %s), want (Optimized, %s)", d.strategy, d.reason, ReasonProbe)
	}
	sel.observe(stChain, slotOptimized, 80_000, 25)
	d = decideOn(t, eng, stChain)
	if d.strategy != TopDownDet || d.reason != ReasonProbe {
		t.Fatalf("probe 2: got (%v, %s), want (TopDownDet, %s)", d.strategy, d.reason, ReasonProbe)
	}

	// Fully measured with TDSTA cheapest: exploit must pick it — the
	// restricted-fragment engine the static heuristic never considered.
	sel.observe(stChain, slotTDSTA, 10_000, 5)
	d = decideOn(t, eng, stChain)
	if d.strategy != TopDownDet || d.reason != ReasonExploit {
		t.Fatalf("warm: got (%v, %s), want (TopDownDet, %s)", d.strategy, d.reason, ReasonExploit)
	}

	// New observations move the argmin: hybrid gets much cheaper.
	for i := 0; i < 20; i++ {
		sel.observe(stChain, slotHybrid, 1_000, 2)
	}
	if d := decideOn(t, eng, stChain); d.strategy != Hybrid {
		t.Fatalf("after hybrid speedup: got %v, want Hybrid", d.strategy)
	}
}

// TestAutoExplorationCadence pins the deterministic epsilon-greedy
// floor: every explorePeriod-th warm decision re-measures a non-best
// candidate, and the exploration counter tracks it.
func TestAutoExplorationCadence(t *testing.T) {
	eng := New(selDoc(t))
	sel := eng.auto
	st := shapeOn(t, eng, "/r/a/b")
	sel.observe(st, slotOptimized, 10_000, 5)
	sel.observe(st, slotHybrid, 50_000, 10)
	sel.observe(st, slotTDSTA, 60_000, 10)

	explored := 0
	for i := 0; i < 2*explorePeriod; i++ {
		d := decideOn(t, eng, st)
		switch d.reason {
		case ReasonExplore:
			explored++
			if d.strategy == Optimized {
				t.Fatalf("decision %d explored the incumbent best", i)
			}
		case ReasonExploit:
			if d.strategy != Optimized {
				t.Fatalf("decision %d exploited %v, want Optimized", i, d.strategy)
			}
		default:
			t.Fatalf("decision %d: unexpected reason %s", i, d.reason)
		}
		// Feed the decision back so estimates stay measured.
		sel.observe(st, d.slot, 10_000, 5)
	}
	if explored != 2 {
		t.Fatalf("explored %d of %d decisions, want 2", explored, int(2*explorePeriod))
	}
	if got := sel.explorations.Load(); got != 2 {
		t.Fatalf("exploration counter = %d, want 2", got)
	}
}

// TestAutoStaticMode pins Adaptive=false: every decision is the §5
// heuristic, but observations still accumulate (flipping adaptive on
// later starts warm).
func TestAutoStaticMode(t *testing.T) {
	eng := New(selDoc(t))
	eng.ConfigureAuto(AutoConfig{Adaptive: false})
	for i := 0; i < 4; i++ {
		ans, err := eng.QueryWith("/r/a/b", Auto)
		if err != nil {
			t.Fatal(err)
		}
		if ans.Strategy != Hybrid {
			t.Fatalf("static mode run %d picked %v, want Hybrid every time", i, ans.Strategy)
		}
	}
	s := eng.SelectorStats()
	if s.Adaptive {
		t.Fatal("stats report adaptive mode")
	}
	if s.Decisions != 4 || s.Observations != 4 {
		t.Fatalf("decisions=%d observations=%d, want 4/4", s.Decisions, s.Observations)
	}
	if len(s.TopShapes) != 1 || s.TopShapes[0].LastReason != ReasonStatic {
		t.Fatalf("top shapes = %+v, want one shape with reason %s", s.TopShapes, ReasonStatic)
	}
}

// TestAbsentChainLabelShortCircuit is the min=0 misroute regression:
// a chain with a label absent from the document used to satisfy
// 0 <= 0.05·max and always run Hybrid; now it answers empty without
// running any engine and cannot pollute the Hybrid estimates.
func TestAbsentChainLabelShortCircuit(t *testing.T) {
	// Any engine run would be visible: it visits nodes and feeds the
	// selector an observation.
	eng := New(selDoc(t))
	for _, q := range []string{"/r/a/zzz", "//zzz", "/r/zzz/b"} {
		ans, err := eng.QueryWith(q, Auto)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		if ans.Strategy != EmptyChain {
			t.Fatalf("%s: strategy %v, want EmptyChain", q, ans.Strategy)
		}
		if len(ans.Nodes) != 0 || ans.Visited != 0 {
			t.Fatalf("%s: %d nodes, %d visited — want a zero-cost empty answer", q, len(ans.Nodes), ans.Visited)
		}
	}
	s := eng.SelectorStats()
	if s.ShortCircuits != 3 {
		t.Fatalf("short circuits = %d, want 3", s.ShortCircuits)
	}
	if s.Observations != 0 {
		t.Fatalf("observations = %d — a non-run must not feed any estimate", s.Observations)
	}
	if s.WinsByStrategy[EmptyChain.String()] != 3 {
		t.Fatalf("wins = %v, want 3 empty-chain", s.WinsByStrategy)
	}
	// The cursor path agrees (paged/streamed absent-label chains).
	cur, err := eng.EvalCursor("/r/a/zzz", Auto)
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()
	if cur.Strategy() != EmptyChain || cur.Count() != 0 {
		t.Fatalf("cursor strategy=%v count=%d, want EmptyChain/0", cur.Strategy(), cur.Count())
	}
	if cur.AutoReason() != ReasonShortCircuit {
		t.Fatalf("cursor reason = %q, want %q", cur.AutoReason(), ReasonShortCircuit)
	}
}

// TestEmptyChainIsNotForceable: the outcome label round-trips through
// String but is rejected as a request strategy.
func TestEmptyChainIsNotForceable(t *testing.T) {
	if EmptyChain.String() != "empty-chain" {
		t.Fatalf("String = %q", EmptyChain.String())
	}
	if _, ok := ParseStrategy("empty-chain"); ok {
		t.Fatal("ParseStrategy accepted empty-chain")
	}
}

// collectSpans flattens a profile span tree.
func collectSpans(spans []obsv.Span, into *[]obsv.Span) {
	for _, s := range spans {
		*into = append(*into, s)
		collectSpans(s.Children, into)
	}
}

// TestExplainRunSpanAnnotations is the anonymous-run-span golden test:
// the profile of an Auto evaluation carries exactly one run span, naming
// the engine the selector picked and its outcome, plus a select span
// explaining the decision.
func TestExplainRunSpanAnnotations(t *testing.T) {
	eng := New(selDoc(t))
	tr := obsv.NewTrace(true)
	defer obsv.ReleaseTrace(tr)
	root := tr.Begin(obsv.SpanQuery)
	cur, err := eng.EvalCursorTrace("/r/a/b", Auto, tr)
	if err != nil {
		t.Fatal(err)
	}
	cur.Close()
	tr.End(root)
	p := tr.Profile("rid")

	var flat []obsv.Span
	collectSpans(p.Spans, &flat)
	var details []string
	var selectDetail string
	for _, s := range flat {
		if s.Name == obsv.SpanRun {
			details = append(details, s.Detail)
		}
		if s.Name == obsv.SpanSelect {
			selectDetail = s.Detail
		}
	}
	// Golden: the engine the cold heuristic picked, and nothing else.
	want := []string{"strategy=hybrid outcome=ok"}
	if len(details) != len(want) {
		t.Fatalf("run spans %q, want %q", details, want)
	}
	for i := range want {
		if details[i] != want[i] {
			t.Fatalf("run span %d detail = %q, want %q", i, details[i], want[i])
		}
	}
	// The shape is the canonical (axis-explicit) skeleton, not the raw
	// query spelling.
	for _, frag := range []string{"shape=/child::r/child::a/child::b", "pick=hybrid", "reason=" + ReasonCold, "min_count=1", "max_count=24"} {
		if !strings.Contains(selectDetail, frag) {
			t.Fatalf("select span detail %q missing %q", selectDetail, frag)
		}
	}

	// Forced strategies annotate their run spans too, a refused one
	// included.
	tr1 := obsv.NewTrace(true)
	defer obsv.ReleaseTrace(tr1)
	root = tr1.Begin(obsv.SpanQuery)
	if _, err := eng.EvalCursorTrace("/r/a[b]", Hybrid, tr1); !errors.Is(err, hybrid.ErrUnsupported) {
		t.Fatalf("forced Hybrid on a predicate: %v, want hybrid.ErrUnsupported", err)
	}
	tr1.End(root)
	flat = flat[:0]
	collectSpans(tr1.Profile("rid1").Spans, &flat)
	if len(flat) != 3 || flat[2].Name != obsv.SpanRun || flat[2].Detail != "strategy=hybrid outcome=failed" {
		t.Fatalf("refused Hybrid run span not annotated: %+v", flat)
	}

	tr2 := obsv.NewTrace(true)
	defer obsv.ReleaseTrace(tr2)
	root = tr2.Begin(obsv.SpanQuery)
	cur, err = eng.EvalCursorTrace("/r/a/b", TopDownDet, tr2)
	if err != nil {
		t.Fatal(err)
	}
	cur.Close()
	tr2.End(root)
	flat = flat[:0]
	collectSpans(tr2.Profile("rid2").Spans, &flat)
	found := false
	for _, s := range flat {
		if s.Name == obsv.SpanRun && s.Detail == "strategy=topdown-det outcome=ok" {
			found = true
		}
	}
	if !found {
		t.Fatalf("forced TDSTA run span not annotated: %+v", flat)
	}
}

// TestSelectorFeedbackAtClose pins the feedback path: estimates update
// when the cursor closes (or materializes), not before, and exactly
// once.
func TestSelectorFeedbackAtClose(t *testing.T) {
	eng := New(selDoc(t))
	sel := eng.auto
	cur, err := eng.EvalCursor("/r/a/b", Auto)
	if err != nil {
		t.Fatal(err)
	}
	if got := sel.observations.Load(); got != 0 {
		t.Fatalf("observations before close = %d, want 0", got)
	}
	cur.Close()
	if got := sel.observations.Load(); got != 1 {
		t.Fatalf("observations after close = %d, want 1", got)
	}
	cur.Close() // idempotent
	if got := sel.observations.Load(); got != 1 {
		t.Fatalf("observations after double close = %d, want 1", got)
	}
	// The materializing path reports too.
	if _, err := eng.QueryWith("/r/a/b", Auto); err != nil {
		t.Fatal(err)
	}
	if got := sel.observations.Load(); got != 2 {
		t.Fatalf("observations after QueryWith = %d, want 2", got)
	}
	// Forced strategies never touch the selector.
	if _, err := eng.QueryWith("/r/a/b", Optimized); err != nil {
		t.Fatal(err)
	}
	if got := sel.observations.Load(); got != 2 {
		t.Fatalf("forced strategy fed the selector (observations=%d)", got)
	}
}

// TestTDSTAEligibleMirrorsCompiler: the selector offers TopDownDet and
// Hybrid exactly to the queries those engines answer, which is why Auto
// needs no path for an engine refusing the query it was routed.
func TestTDSTAEligibleMirrorsCompiler(t *testing.T) {
	eng := New(selDoc(t))
	for _, q := range []string{
		"/r/a/b", "/r/a//b", "//b", "/r/*/b", "//zzz",
		"//a/b",   // child after descendant: a chain, not TDSTA
		"/r/a[b]", // predicate
		"b/c",     // relative
		"//b/parent::*",
	} {
		st := shapeOn(t, eng, q)
		for _, c := range []struct {
			slot int
			s    Strategy
		}{{slotTDSTA, TopDownDet}, {slotHybrid, Hybrid}} {
			_, err := eng.QueryWith(q, c.s)
			if st.eligible[c.slot] != (err == nil) {
				t.Errorf("%s: selector offers %v = %v, but the engine answers with error %v", q, c.s, st.eligible[c.slot], err)
			}
		}
	}
}

func TestExplorationSkipsHopelessCandidates(t *testing.T) {
	eng := New(selDoc(t))
	sel := eng.auto
	st := shapeOn(t, eng, "/r/a/b")
	// Hybrid measured 200x worse than the incumbent: far past the 8x
	// exploration bound. TDSTA within it.
	sel.observe(st, slotOptimized, 10_000, 5)
	sel.observe(st, slotHybrid, 2_000_000, 10)
	sel.observe(st, slotTDSTA, 50_000, 10)
	for i := 0; i < 2*explorePeriod; i++ {
		d := decideOn(t, eng, st)
		if d.strategy == Hybrid {
			t.Fatalf("decision %d explored a candidate measured %dx past the bound", i, 200)
		}
		if d.reason == ReasonExplore && d.strategy != TopDownDet {
			t.Fatalf("decision %d explored %v, want only the in-bound TDSTA", i, d.strategy)
		}
		sel.observe(st, d.slot, 10_000, 5)
	}
	if sel.explorations.Load() == 0 {
		t.Fatal("in-bound candidate was never explored")
	}

	// When every non-best candidate is out of bound, the tick falls
	// through to exploit rather than burning a run on a known-bad pick.
	// "//a/b" has exactly two candidates (Optimized, Hybrid — the
	// descendant step is outside the TDSTA fragment).
	st2 := shapeOn(t, eng, "//a/b")
	sel.observe(st2, slotOptimized, 10_000, 5)
	sel.observe(st2, slotHybrid, 2_000_000, 10)
	for i := 0; i < 2*explorePeriod; i++ {
		d := decideOn(t, eng, st2)
		if d.reason == ReasonExplore {
			t.Fatalf("decision %d explored with every alternative out of bound", i)
		}
		if d.reason != ReasonExploit || d.strategy != Optimized {
			t.Fatalf("decision %d: %v via %s, want exploit Optimized", i, d.strategy, d.reason)
		}
		sel.observe(st2, d.slot, 10_000, 5)
	}
}
