package core

// Auto's route: a function of the parsed query, taken the same way on
// every document and every run, and attributed in the explain profile.

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/asta"
	"repro/internal/hybrid"
	"repro/internal/obsv"
	"repro/internal/tree"
	"repro/internal/xmark"
	"repro/internal/xmlparse"
	"repro/internal/xpath"
)

// selDoc: b is frequent (24×), c rare (1×).
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

// TestAutoDecisionTable pins the route of every query the benchmark's
// workloads send, plus a `*` shape, a predicate the TDSTA cannot take
// and two queries no automaton expresses: the engine that runs, the
// reason Auto gives, and an answer equal to the step-wise oracle's.
func TestAutoDecisionTable(t *testing.T) {
	eng := New(xmark.Generate(xmark.Config{Scale: 0.002, Seed: 7}))
	queries := map[string]string{}
	for _, q := range xmark.Queries() {
		queries[q.ID] = q.XPath
	}
	for _, tc := range []struct {
		query  string
		route  Strategy
		reason string
	}{
		{queries["Q01"], Hybrid, ReasonChain},
		{queries["Q02"], Hybrid, ReasonChain},
		{queries["Q03"], Hybrid, ReasonChain},
		{queries["Q04"], TopDownDet, ReasonTDSTA},
		{queries["Q05"], Hybrid, ReasonChain},
		{queries["Q06"], TopDownDet, ReasonTDSTA},
		{queries["Q07"], Optimized, ReasonASTA},
		{queries["Q08"], Optimized, ReasonASTA},
		{queries["Q09"], Optimized, ReasonASTA},
		{queries["Q10"], Optimized, ReasonASTA},
		{queries["Q11"], Hybrid, ReasonChain},
		{queries["Q12"], Optimized, ReasonASTA},
		{queries["Q13"], Optimized, ReasonASTA},
		{queries["Q14"], Optimized, ReasonASTA},
		{queries["Q15"], Optimized, ReasonASTA},
		// The bulk-stream shapes (Q11 is the fourth).
		{"/site//text", Hybrid, ReasonChain},
		{"/site//listitem", Hybrid, ReasonChain},
		{"/site//emph", Hybrid, ReasonChain},
		{"//*", TopDownDet, ReasonTDSTA},
		{"/site/*/*/item", TopDownDet, ReasonTDSTA},
		{"//item/name", Hybrid, ReasonChain},
		{"//item//*", TopDownDet, ReasonTDSTA},
		{"//*/name", Optimized, ReasonASTA}, // a child step after a descendant `*`
		{"//keyword/parent::*", Stepwise, ReasonOutside},
		{`//item[contains(description, "gold")]`, Stepwise, ReasonOutside},
	} {
		want, err := eng.QueryWith(tc.query, Stepwise)
		if err != nil {
			t.Fatal(err)
		}
		for run := 0; run < 2; run++ {
			cur, err := eng.EvalCursor(tc.query, Auto)
			if err != nil {
				t.Fatalf("%s: %v", tc.query, err)
			}
			if cur.Strategy() != tc.route || cur.Run().AutoReason != tc.reason {
				t.Errorf("%s run %d: routed to %v (%s), want %v (%s)", tc.query, run, cur.Strategy(), cur.Run().AutoReason, tc.route, tc.reason)
			}
			if got := collect(t, cur); len(got) != len(want.Nodes) {
				t.Errorf("%s: %d nodes, oracle %d", tc.query, len(got), len(want.Nodes))
			}
		}
	}
}

// TestAbsentChainLabelShortCircuit: a chain with a label absent from the
// document is answered empty by the hybrid run from the label table,
// before it takes a single occurrence row.
func TestAbsentChainLabelShortCircuit(t *testing.T) {
	eng := New(selDoc(t))
	for _, q := range []string{"/r/a/zzz", "//zzz", "/r/zzz/b"} {
		ans, err := eng.QueryWith(q, Auto)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		if ans.Strategy != Hybrid || len(ans.Nodes) != 0 || ans.Work != (obsv.Work{}) {
			t.Fatalf("%s: %v selected %d nodes with %+v, want hybrid selecting none with no work", q, ans.Strategy, len(ans.Nodes), ans.Work)
		}
	}
}

// TestAutoStaticMode: Auto reads nothing a run changes, so the same
// query takes the same route on every run and on every document —
// whatever its labels' counts, and however fast each engine was last.
func TestAutoStaticMode(t *testing.T) {
	rare, plain := New(selDoc(t)), New(xmark.Generate(xmark.Config{Scale: 0.002, Seed: 1}))
	for _, eng := range []*Engine{rare, plain} {
		for i := 0; i < 40; i++ {
			for q, want := range map[string]Strategy{"/r/a/b": Hybrid, "/r/*/b": TopDownDet, "/r/a[b]": Optimized} {
				ans, err := eng.QueryWith(q, Auto)
				if err != nil {
					t.Fatal(err)
				}
				if ans.Strategy != want {
					t.Fatalf("run %d of %s took %v, want %v", i, q, ans.Strategy, want)
				}
			}
		}
	}
}

// TestEmptyChainIsNotForceable: the outcome Auto once reported for a
// chain with an absent label is not a strategy a request can name.
func TestEmptyChainIsNotForceable(t *testing.T) {
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
// the engine Auto routed to and its outcome, plus a select span with the
// shape, the route and the reason.
func TestExplainRunSpanAnnotations(t *testing.T) {
	eng := New(selDoc(t))
	tr := obsv.NewTrace()
	defer obsv.ReleaseTrace(tr)
	root := tr.Begin(obsv.SpanQuery)
	cur, err := eng.EvalCursorTrace("/r/a/b", Auto, tr)
	if err != nil {
		t.Fatal(err)
	}
	cur.Close()
	tr.End(root)
	p := tr.Profile("rid", obsv.Counters{})

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
	if want := "auto shape=/child::r/child::a/child::b route=hybrid reason=" + ReasonChain; selectDetail != want {
		t.Fatalf("select span detail %q, want %q", selectDetail, want)
	}
	if cur.AutoShape() != "/child::r/child::a/child::b" {
		t.Fatalf("cursor shape %q", cur.AutoShape())
	}

	// Forced strategies annotate their run spans too, a refused one
	// included.
	tr1 := obsv.NewTrace()
	defer obsv.ReleaseTrace(tr1)
	root = tr1.Begin(obsv.SpanQuery)
	if _, err := eng.EvalCursorTrace("/r/a[b]", Hybrid, tr1); !errors.Is(err, hybrid.ErrUnsupported) {
		t.Fatalf("forced Hybrid on a predicate: %v, want hybrid.ErrUnsupported", err)
	}
	tr1.End(root)
	flat = flat[:0]
	collectSpans(tr1.Profile("rid1", obsv.Counters{}).Spans, &flat)
	if len(flat) != 3 || flat[2].Name != obsv.SpanRun || flat[2].Detail != "strategy=hybrid outcome=failed" {
		t.Fatalf("refused Hybrid run span not annotated: %+v", flat)
	}

	tr2 := obsv.NewTrace()
	defer obsv.ReleaseTrace(tr2)
	root = tr2.Begin(obsv.SpanQuery)
	cur, err = eng.EvalCursorTrace("/r/a/b", TopDownDet, tr2)
	if err != nil {
		t.Fatal(err)
	}
	cur.Close()
	tr2.End(root)
	flat = flat[:0]
	collectSpans(tr2.Profile("rid2", obsv.Counters{}).Spans, &flat)
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

// TestTDSTAEligibleMirrorsCompiler: Auto routes to TopDownDet or Hybrid
// only queries those engines answer, which is why it needs no path for
// an engine refusing the query it was routed.
func TestTDSTAEligibleMirrorsCompiler(t *testing.T) {
	eng := New(selDoc(t))
	for _, q := range []string{
		"/r/a/b", "/r/a//b", "//b", "/r/*/b", "//zzz",
		"//a/b",   // child after descendant: a chain, not TDSTA
		"/r/a[b]", // predicate
		"b/c",     // relative
		"//b/parent::*",
	} {
		for _, s := range []Strategy{TopDownDet, Hybrid} {
			_, err := eng.QueryWith(q, s)
			ans, aerr := eng.QueryWith(q, Auto)
			if aerr != nil {
				t.Fatalf("%s: Auto: %v", q, aerr)
			}
			if ans.Strategy == s && err != nil {
				t.Errorf("%s: Auto routes to %v, but the engine answers with error %v", q, s, err)
			}
		}
	}
}

// TestRouteIsACheck: Auto asks each engine's fragment test before
// anything runs, the ASTA's included, so what no automaton expresses
// goes to Stepwise without a compile being tried.
func TestRouteIsACheck(t *testing.T) {
	fits := "/a" + strings.Repeat("//b[.//b]", (asta.MaxStates-2)/2) // 64 states
	for q, want := range map[string]Strategy{
		"//a/parent::b":                         Stepwise,
		`//item[contains(description, "gold")]`: Stepwise,
		fits + "/b":                             Stepwise, // 65 states
		fits:                                    Optimized,
	} {
		s, reason := route(mustPath(t, q))
		wantReason := ReasonASTA
		if want == Stepwise {
			wantReason = ReasonOutside
		}
		if s != want || reason != wantReason {
			t.Errorf("%.40s: routed to %v (%s), want %v (%s)", q, s, reason, want, wantReason)
		}
	}
}
