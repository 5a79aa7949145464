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

// TestExplainRunSpanAndCounters: the profile of an evaluation carries
// exactly one run span, and an Auto one a select span before it; spans
// carry a name and a time, and what ran and why is the cursor's Run —
// the profile's counters. A refused forced engine still times its run
// span, and its error says why.
func TestExplainRunSpanAndCounters(t *testing.T) {
	eng := New(selDoc(t))
	spans := func(q string, s Strategy) ([]obsv.Span, *Cursor, error) {
		t.Helper()
		tr := obsv.NewTrace()
		root := tr.Begin(obsv.SpanQuery)
		cur, err := eng.EvalCursorTrace(q, s, tr)
		tr.End(root)
		var flat []obsv.Span
		collectSpans(tr.Profile("rid", obsv.Counters{}).Spans, &flat)
		return flat, cur, err
	}
	names := func(flat []obsv.Span) string {
		var out []string
		for _, s := range flat {
			out = append(out, s.Name)
		}
		return strings.Join(out, " ")
	}

	flat, cur, err := spans("/r/a/b", Auto)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := names(flat), "query parse select run"; got != want {
		t.Fatalf("auto spans %q, want %q", got, want)
	}
	// The shape is the canonical (axis-explicit) skeleton, not the raw
	// query spelling.
	if run := cur.Run(); run.Strategy != "hybrid" || run.AutoReason != ReasonChain || cur.AutoShape() != "/child::r/child::a/child::b" {
		t.Fatalf("auto run %+v shape %q", run, cur.AutoShape())
	}

	flat, _, err = spans("/r/a[b]", Hybrid)
	if !errors.Is(err, hybrid.ErrUnsupported) {
		t.Fatalf("forced Hybrid on a predicate: %v, want hybrid.ErrUnsupported", err)
	}
	if got, want := names(flat), "query parse run"; got != want {
		t.Fatalf("refused Hybrid spans %q, want %q", got, want)
	}

	flat, cur, err = spans("/r/a/b", TopDownDet)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := names(flat), "query parse compile run"; got != want {
		t.Fatalf("forced TDSTA spans %q, want %q", got, want)
	}
	if run := cur.Run(); run.Strategy != "topdown-det" || run.AutoReason != "" || cur.AutoShape() != "" {
		t.Fatalf("forced TDSTA run %+v shape %q", run, cur.AutoShape())
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

// TestRouteAllocatesNothing: every fragment test Auto asks answers from
// the parsed query alone, and the refusals of the hybrid run and the
// TDSTA are built once, so routing the paper's queries, the bulk
// shapes and the `*` shapes the ASTA takes allocates nothing.
func TestRouteAllocatesNothing(t *testing.T) {
	queries := []string{"/site//text", "/site//listitem", "/site//emph", "/site//*/keyword", "//item/*/mail"}
	for _, q := range xmark.Queries() {
		queries = append(queries, q.XPath)
	}
	for _, q := range queries {
		p := mustPath(t, q)
		if got := testing.AllocsPerRun(100, func() { route(p) }); got != 0 {
			s, reason := route(p)
			t.Errorf("%s: routing to %v (%s) allocates %.1f/op, want 0", q, s, reason, got)
		}
	}
}
