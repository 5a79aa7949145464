package xpath

import (
	"errors"
	"strings"
	"testing"
	"time"
)

func mustParse(t *testing.T, q string) *Path {
	t.Helper()
	p, err := Parse(q)
	if err != nil {
		t.Fatalf("Parse(%q): %v", q, err)
	}
	return p
}

func TestSimpleAbsolute(t *testing.T) {
	p := mustParse(t, "/site/regions")
	if !p.Absolute || len(p.Steps) != 2 {
		t.Fatalf("shape wrong: %+v", p)
	}
	if p.Steps[0].Axis != Child || p.Steps[0].Test.Name != "site" {
		t.Errorf("step 0 = %v", p.Steps[0])
	}
	if p.Steps[1].Axis != Child || p.Steps[1].Test.Name != "regions" {
		t.Errorf("step 1 = %v", p.Steps[1])
	}
}

func TestDescendantAbbrev(t *testing.T) {
	p := mustParse(t, "//listitem//keyword")
	if !p.Absolute || len(p.Steps) != 2 {
		t.Fatalf("shape wrong: %+v", p)
	}
	for i, want := range []string{"listitem", "keyword"} {
		if p.Steps[i].Axis != Descendant || p.Steps[i].Test.Name != want {
			t.Errorf("step %d = %v", i, p.Steps[i])
		}
	}
}

func TestMixedAxes(t *testing.T) {
	p := mustParse(t, "/site/regions/*/item//keyword")
	if len(p.Steps) != 5 {
		t.Fatalf("steps = %d", len(p.Steps))
	}
	if p.Steps[2].Test.Kind != TestStar || p.Steps[2].Axis != Child {
		t.Errorf("star step wrong: %v", p.Steps[2])
	}
	if p.Steps[4].Axis != Descendant {
		t.Errorf("last step axis = %v", p.Steps[4].Axis)
	}
}

func TestExplicitAxes(t *testing.T) {
	p := mustParse(t, "/site/descendant::keyword")
	if p.Steps[1].Axis != Descendant || p.Steps[1].Test.Name != "keyword" {
		t.Errorf("explicit descendant axis: %v", p.Steps[1])
	}
	p = mustParse(t, "/a/following-sibling::b")
	if p.Steps[1].Axis != FollowingSibling {
		t.Errorf("following-sibling axis: %v", p.Steps[1])
	}
	p = mustParse(t, "/a/attribute::href")
	if p.Steps[1].Axis != Attribute || p.Steps[1].Test.Name != "@href" {
		t.Errorf("attribute axis: %v", p.Steps[1])
	}
	p = mustParse(t, "/a/@href")
	if p.Steps[1].Axis != Attribute || p.Steps[1].Test.Name != "@href" {
		t.Errorf("@ abbreviation: %v", p.Steps[1])
	}
}

func TestAxisNameAsElement(t *testing.T) {
	// "child" with no "::" is an ordinary element name.
	p := mustParse(t, "/child/descendant")
	if p.Steps[0].Test.Name != "child" || p.Steps[1].Test.Name != "descendant" {
		t.Errorf("axis-looking names mis-parsed: %v", p)
	}
}

func TestNodeTests(t *testing.T) {
	p := mustParse(t, "//node()/text()")
	if p.Steps[0].Test.Kind != TestNode {
		t.Errorf("node() test: %v", p.Steps[0])
	}
	if p.Steps[1].Test.Kind != TestText {
		t.Errorf("text() test: %v", p.Steps[1])
	}
	// An element actually named "node" (no parens).
	p = mustParse(t, "/node/text")
	if p.Steps[0].Test.Kind != TestName || p.Steps[0].Test.Name != "node" {
		t.Errorf("element named node: %v", p.Steps[0])
	}
}

func TestPredicates(t *testing.T) {
	p := mustParse(t, "/site/people/person[ address and (phone or homepage) ]")
	if len(p.Steps) != 3 || len(p.Steps[2].Preds) != 1 {
		t.Fatalf("shape: %+v", p)
	}
	and, ok := p.Steps[2].Preds[0].(*And)
	if !ok {
		t.Fatalf("top predicate is %T, want And", p.Steps[2].Preds[0])
	}
	l, ok := and.Left.(*PathPred)
	if !ok || l.Path.Steps[0].Test.Name != "address" {
		t.Errorf("left of and: %v", and.Left)
	}
	or, ok := and.Right.(*Or)
	if !ok {
		t.Fatalf("right of and is %T", and.Right)
	}
	if or.Left.(*PathPred).Path.Steps[0].Test.Name != "phone" {
		t.Errorf("or left wrong")
	}
}

func TestRelativeDescendantPredicate(t *testing.T) {
	p := mustParse(t, "//listitem[ .//keyword and .//emph]//parlist")
	preds := p.Steps[0].Preds
	if len(preds) != 1 {
		t.Fatalf("preds = %d", len(preds))
	}
	and := preds[0].(*And)
	kw := and.Left.(*PathPred).Path
	if kw.Absolute || kw.Steps[0].Axis != Descendant || kw.Steps[0].Test.Name != "keyword" {
		t.Errorf(".//keyword parsed as %v", kw)
	}
}

func TestNotPredicate(t *testing.T) {
	p := mustParse(t, "//a[ not(b or c) ]")
	n, ok := p.Steps[0].Preds[0].(*Not)
	if !ok {
		t.Fatalf("predicate is %T", p.Steps[0].Preds[0])
	}
	if _, ok := n.Inner.(*Or); !ok {
		t.Errorf("inner of not is %T", n.Inner)
	}
	// "not" as an element name when not followed by '('.
	p = mustParse(t, "//a[ not ]")
	pp, ok := p.Steps[0].Preds[0].(*PathPred)
	if !ok || pp.Path.Steps[0].Test.Name != "not" {
		t.Errorf("element named not: %v", p.Steps[0].Preds[0])
	}
}

func TestMultiplePredicates(t *testing.T) {
	p := mustParse(t, "//a[b][c]")
	if len(p.Steps[0].Preds) != 2 {
		t.Fatalf("preds = %d", len(p.Steps[0].Preds))
	}
}

func TestNestedPredicatePaths(t *testing.T) {
	p := mustParse(t, "/site/regions/*/item[ mailbox/mail/date ]/mailbox/mail")
	if len(p.Steps) != 6 {
		t.Fatalf("steps = %d", len(p.Steps))
	}
	inner := p.Steps[3].Preds[0].(*PathPred).Path
	if len(inner.Steps) != 3 || inner.Steps[2].Test.Name != "date" {
		t.Errorf("inner path: %v", inner)
	}
}

func TestStarStarPredicate(t *testing.T) {
	p := mustParse(t, "/site[ .//*//* ]//keyword")
	inner := p.Steps[0].Preds[0].(*PathPred).Path
	if len(inner.Steps) != 2 ||
		inner.Steps[0].Axis != Descendant || inner.Steps[0].Test.Kind != TestStar ||
		inner.Steps[1].Axis != Descendant || inner.Steps[1].Test.Kind != TestStar {
		t.Errorf(".//*//* parsed as %v", inner)
	}
}

func TestBareDot(t *testing.T) {
	p := mustParse(t, "//a[.]")
	pp := p.Steps[0].Preds[0].(*PathPred)
	if len(pp.Path.Steps) != 1 || pp.Path.Steps[0].Axis != Self {
		t.Errorf("bare dot: %v", pp.Path)
	}
}

func TestAllPaperQueries(t *testing.T) {
	queries := []string{
		"/site/regions",
		"/site/regions/europe/item/mailbox/mail/text/keyword",
		"/site/closed_auctions/closed_auction/annotation/description/parlist/listitem",
		"/site/regions/*/item",
		"//listitem//keyword",
		"/site/regions/*/item//keyword",
		"/site/people/person[ address and (phone or homepage) ]",
		"//listitem[ .//keyword and .//emph]//parlist",
		"/site/regions/*/item[ mailbox/mail/date ]/mailbox/mail",
		"/site[ .//keyword]",
		"/site//keyword",
		"/site[ .//keyword ]//keyword",
		"/site[ .//keyword or .//keyword/emph ]//keyword",
		"/site[ .//keyword//emph ]/descendant::keyword",
		"/site[ .//*//* ]//keyword",
	}
	for i, q := range queries {
		if _, err := Parse(q); err != nil {
			t.Errorf("Q%02d %q: %v", i+1, q, err)
		}
	}
}

func TestErrors(t *testing.T) {
	bad := []string{
		"",
		"/",
		"//",
		"/a[",
		"/a]",
		"/a[b",
		"/a[]",
		"/a[b or]",
		"/a/",
		"a b",
		"/a[not(]",
		"/a::b",
		"/:a",
		"/a[b)(c]",
		"/a[&]",
	}
	for _, q := range bad {
		if _, err := Parse(q); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", q)
		}
	}
	_, err := Parse("/a[")
	pe, ok := err.(*ParseError)
	if !ok {
		t.Fatalf("error type %T", err)
	}
	if !strings.Contains(pe.Error(), "offset") {
		t.Errorf("error lacks offset: %v", pe)
	}
}

// TestNestingBound: predicates, parentheses and not( nest up to
// maxNesting levels; one more is a ParseError, returned at once whatever
// follows — here a query that fits a request body with a million more
// parentheses — and quoting only a window of the query.
func TestNestingBound(t *testing.T) {
	deepest := "a[" + strings.Repeat("not(", maxNesting-2) + "(b" + strings.Repeat(")", maxNesting-1) + "]"
	mustParse(t, deepest)
	for _, q := range []string{
		"a[" + strings.Repeat("(", maxNesting) + "b" + strings.Repeat(")", maxNesting) + "]",
		"a" + strings.Repeat("[b", maxNesting+1),
		"a[" + strings.Repeat("(", 1_048_000),
	} {
		start := time.Now()
		_, err := Parse(q)
		took := time.Since(start)
		var pe *ParseError
		if !errors.As(err, &pe) || !strings.Contains(pe.Msg, "deeper than 256") {
			t.Fatalf("%d bytes nesting past the bound: err = %v, want the bound named", len(q), err)
		}
		if took > 10*time.Millisecond || len(err.Error()) >= 1024 {
			t.Errorf("%d bytes nesting past the bound: refused in %v with a %d-byte message", len(q), took, len(err.Error()))
		}
	}
}

// TestParseErrorQuotesAWindow: the message quotes a long query around
// the offset only, and marks the ends it leaves out.
func TestParseErrorQuotesAWindow(t *testing.T) {
	q := "/" + strings.Repeat("a/", 200) + "&" + strings.Repeat("/b", 200)
	_, err := Parse(q)
	msg := err.Error()
	if !strings.HasPrefix(msg, `xpath: ..."a/a/`) || !strings.Contains(msg, `/&/b`) || !strings.Contains(msg, `"... at offset 401`) || len(msg) > 300 {
		t.Errorf("message for a %d-byte query: %s", len(q), msg)
	}
	if _, err := Parse("/a["); !strings.Contains(err.Error(), `"/a["`) {
		t.Errorf("a short query is quoted whole: %v", err)
	}
}

// Round-trip: String() of a parsed query re-parses to the same String().
func TestStringRoundTrip(t *testing.T) {
	queries := []string{
		"/site/regions",
		"//listitem//keyword",
		"/site/people/person[ address and (phone or homepage) ]",
		"//listitem[ .//keyword and .//emph]//parlist",
		"/site[ .//keyword or .//keyword/emph ]//keyword",
		"//a[ not(b or c) ]",
		"/a/@href",
		"//node()/text()",
		"/a/following-sibling::b",
	}
	for _, q := range queries {
		p1 := mustParse(t, q)
		s1 := p1.String()
		p2, err := Parse(s1)
		if err != nil {
			t.Errorf("re-parse of %q (from %q): %v", s1, q, err)
			continue
		}
		if s2 := p2.String(); s2 != s1 {
			t.Errorf("round-trip: %q -> %q -> %q", q, s1, s2)
		}
	}
}

func TestSize(t *testing.T) {
	p := mustParse(t, "//a[.//b and c]//d")
	if got := p.Size(); got != 4 {
		t.Errorf("Size = %d, want 4", got)
	}
}

func TestMustParsePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustParse on bad input did not panic")
		}
	}()
	MustParse("/a[")
}
