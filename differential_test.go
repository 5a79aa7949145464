package repro_test

import (
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/service"
	"repro/internal/shard"
	"repro/internal/store"
	"repro/internal/tgen"
	"repro/internal/tree"
	"repro/internal/xmark"
)

// The differential strategy-agreement harness: four independent
// implementations of the same query semantics (step-wise joins, the
// hybrid start-anywhere run, the minimized deterministic TDSTA with
// topdown_jump, and the ASTA evaluator in its four configurations) plus
// Auto, run over the fifteen paper queries at three
// document sizes, must produce identical preorder node sets — both
// through the classic materializing path and through the new cursor
// path. Any divergence is a correctness bug in at least one engine.

var diffSizes = []struct {
	name  string
	scale float64
	seed  int64
}{
	{"small", 0.002, 42},
	{"medium", 0.008, 42},
	{"large", 0.02, 42},
}

// diffStrategies are the cross-checked engines. Hybrid and TopDownDet
// cover restricted fragments: a fragment error on a forced strategy is
// a skip, not a failure (Auto never fails on fragment grounds).
var diffStrategies = []core.Strategy{
	core.Naive, core.Jumping, core.Memoized, core.Optimized,
	core.Hybrid, core.TopDownDet, core.Auto,
}

func fragmentLimited(s core.Strategy) bool {
	return s == core.Hybrid || s == core.TopDownDet
}

func equalNodes(a, b []tree.NodeID) bool {
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

// collectCursor drains an engine cursor through a deliberately small
// batch buffer, checking strict preorder on the way.
func collectCursor(t *testing.T, cur *core.Cursor, label string) []tree.NodeID {
	t.Helper()
	var out []tree.NodeID
	buf := make([]tree.NodeID, 7)
	for {
		n := cur.NextBatch(buf)
		if n == 0 {
			return out
		}
		for _, v := range buf[:n] {
			if len(out) > 0 && v <= out[len(out)-1] {
				t.Fatalf("%s: cursor not strictly preorder: %d after %d", label, v, out[len(out)-1])
			}
			out = append(out, v)
		}
	}
}

func TestStrategyAgreementDifferential(t *testing.T) {
	sizes := diffSizes
	if testing.Short() {
		sizes = diffSizes[:1]
	}
	for _, sz := range sizes {
		sz := sz
		t.Run(sz.name, func(t *testing.T) {
			t.Parallel()
			doc := xmark.Generate(xmark.Config{Scale: sz.scale, Seed: sz.seed})
			eng := core.New(doc)
			for _, q := range xmark.Queries() {
				// The step-wise engine is the oracle: structurally the
				// simplest implementation, farthest from the automata.
				want, err := eng.QueryWith(q.XPath, core.Stepwise)
				if err != nil {
					t.Fatalf("%s: stepwise oracle: %v", q.ID, err)
				}
				for _, s := range diffStrategies {
					ans, err := eng.QueryWith(q.XPath, s)
					if err != nil {
						if fragmentLimited(s) {
							continue
						}
						t.Errorf("%s under %v: %v", q.ID, s, err)
						continue
					}
					if !equalNodes(ans.Nodes, want.Nodes) {
						t.Errorf("%s: %v answer (%d nodes) != stepwise (%d nodes)",
							q.ID, s, len(ans.Nodes), len(want.Nodes))
						continue
					}
					// Cursor path: same strategy, streamed through a
					// small buffer, must agree node for node and report
					// the same cardinality.
					cur, err := eng.EvalCursor(q.XPath, s)
					if err != nil {
						t.Errorf("%s: EvalCursor under %v: %v", q.ID, s, err)
						continue
					}
					if got := cur.Count(); got != len(want.Nodes) {
						t.Errorf("%s: %v cursor Count()=%d, want %d", q.ID, s, got, len(want.Nodes))
					}
					if got := collectCursor(t, cur, q.ID); !equalNodes(got, want.Nodes) {
						t.Errorf("%s: %v cursor stream (%d nodes) != stepwise (%d nodes)",
							q.ID, s, len(got), len(want.Nodes))
					}
				}
			}
		})
	}
}

// TestShardedServiceDifferential runs the fifteen paper queries at all
// three XMark sizes through the service, with the three documents
// registered together in its one store and one compiled-query LRU, and
// checks the answers — materialized and cursor-paged
// — against the step-wise engine node for node: caching across
// documents and paging change nothing about query semantics.
func TestShardedServiceDifferential(t *testing.T) {
	sizes := diffSizes
	if testing.Short() {
		sizes = diffSizes[:1]
	}
	ss := shard.NewStore(1)
	svc := service.New(ss, service.Options{})
	oracle := make(map[string]map[string][]tree.NodeID, len(sizes))
	for _, sz := range sizes {
		doc := xmark.Generate(xmark.Config{Scale: sz.scale, Seed: sz.seed})
		if _, err := ss.Add(sz.name, doc, store.SourceDirect); err != nil {
			t.Fatal(err)
		}
		eng := core.New(doc)
		byQuery := make(map[string][]tree.NodeID)
		for _, q := range xmark.Queries() {
			want, err := eng.QueryWith(q.XPath, core.Stepwise)
			if err != nil {
				t.Fatalf("%s %s: stepwise oracle: %v", sz.name, q.ID, err)
			}
			byQuery[q.XPath] = want.Nodes
		}
		oracle[sz.name] = byQuery
	}

	for _, sz := range sizes {
		for _, q := range xmark.Queries() {
			want := oracle[sz.name][q.XPath]

			// Materialized: the whole answer in one response.
			one := svc.Eval(service.Request{Doc: sz.name, Query: q.XPath})
			if one.Err != "" {
				t.Fatalf("%s %s: %s", sz.name, q.ID, one.Err)
			}
			if one.Count != len(want) || !equalNodes(one.Nodes, want) {
				t.Errorf("%s %s: service answer (%d nodes) != stepwise (%d nodes)",
					sz.name, q.ID, len(one.Nodes), len(want))
				continue
			}

			// Cursor-paged: ~8 pages via continuation tokens.
			limit := len(want)/8 + 1
			var paged []tree.NodeID
			cursor := ""
			for page := 0; ; page++ {
				resp := svc.Eval(service.Request{
					Doc: sz.name, Query: q.XPath, Limit: limit, Cursor: cursor,
				})
				if resp.Err != "" {
					t.Fatalf("%s %s page %d: %s", sz.name, q.ID, page, resp.Err)
				}
				if resp.Count != len(want) {
					t.Fatalf("%s %s page %d: Count=%d, want %d",
						sz.name, q.ID, page, resp.Count, len(want))
				}
				paged = append(paged, resp.Nodes...)
				if resp.Next == "" {
					break
				}
				cursor = resp.Next
				if len(paged) > len(want) {
					t.Fatalf("%s %s: paging ran past the oracle answer", sz.name, q.ID)
				}
			}
			if !equalNodes(paged, want) {
				t.Errorf("%s %s: paged answer (%d nodes) != stepwise (%d nodes)",
					sz.name, q.ID, len(paged), len(want))
			}
		}
	}
}

// TestCursorPagingMatchesOneShot pages every paper query through the
// service's limit/cursor protocol with a tiny page size and checks that
// the concatenated pages reproduce the one-shot answer exactly, for
// every strategy reachable over the wire.
func TestCursorPagingMatchesOneShot(t *testing.T) {
	svc := service.New(shard.NewStore(1), service.Options{})
	if _, err := svc.Store().GenerateXMark("xm", 0.004, 9); err != nil {
		t.Fatal(err)
	}
	strategies := []string{"stepwise", "naive", "optimized", "hybrid", "topdown-det", "auto"}
	for _, q := range xmark.Queries() {
		for _, strat := range strategies {
			one := svc.Eval(service.Request{Doc: "xm", Query: q.XPath, Strategy: strat})
			if one.Err != "" {
				if strat == "hybrid" || strat == "topdown-det" {
					continue
				}
				t.Fatalf("%s %s: %s", q.ID, strat, one.Err)
			}
			if one.Next != "" {
				t.Errorf("%s %s: unlimited answer handed out a cursor", q.ID, strat)
			}
			var paged []tree.NodeID
			cursor := ""
			for page := 0; ; page++ {
				resp := svc.Eval(service.Request{
					Doc: "xm", Query: q.XPath, Strategy: strat, Limit: 7, Cursor: cursor,
				})
				if resp.Err != "" {
					t.Fatalf("%s %s page %d: %s", q.ID, strat, page, resp.Err)
				}
				if resp.Count != one.Count {
					t.Fatalf("%s %s page %d: Count=%d, one-shot %d", q.ID, strat, page, resp.Count, one.Count)
				}
				paged = append(paged, resp.Nodes...)
				if resp.Next == "" {
					break
				}
				cursor = resp.Next
				if len(paged) > one.Count {
					t.Fatalf("%s %s: paging ran past the one-shot answer", q.ID, strat)
				}
			}
			if !equalNodes(paged, one.Nodes) {
				t.Errorf("%s %s: paged answer (%d nodes) != one-shot (%d nodes)",
					q.ID, strat, len(paged), len(one.Nodes))
			}
		}
	}
}

// TestAdaptiveAutoDifferential holds Auto to the step-wise oracle node
// for node on all fifteen paper queries at every size, through the
// materializing path and the cursor path, which must also take the same
// route.
func TestAdaptiveAutoDifferential(t *testing.T) {
	sizes := diffSizes
	if testing.Short() {
		sizes = diffSizes[:1]
	}
	for _, sz := range sizes {
		sz := sz
		t.Run(sz.name, func(t *testing.T) {
			t.Parallel()
			eng := core.New(xmark.Generate(xmark.Config{Scale: sz.scale, Seed: sz.seed}))
			for _, q := range xmark.Queries() {
				want, err := eng.QueryWith(q.XPath, core.Stepwise)
				if err != nil {
					t.Fatalf("%s: stepwise oracle: %v", q.ID, err)
				}
				ans, err := eng.QueryWith(q.XPath, core.Auto)
				if err != nil {
					t.Fatalf("%s: Auto: %v", q.ID, err)
				}
				if !equalNodes(ans.Nodes, want.Nodes) {
					t.Errorf("%s: Auto via %v gave %d nodes, oracle %d", q.ID, ans.Strategy, len(ans.Nodes), len(want.Nodes))
				}
				cur, err := eng.EvalCursor(q.XPath, core.Auto)
				if err != nil {
					t.Fatalf("%s: Auto cursor: %v", q.ID, err)
				}
				if cur.Strategy() != ans.Strategy {
					t.Errorf("%s: the cursor took %v, the materializing path %v", q.ID, cur.Strategy(), ans.Strategy)
				}
				if got := collectCursor(t, cur, q.ID); !equalNodes(got, want.Nodes) {
					t.Errorf("%s: Auto cursor via %v gave %d nodes, oracle %d", q.ID, cur.Strategy(), len(got), len(want.Nodes))
				}
			}
		})
	}
}

// textStepQueries reach the #text nodes, which the jumping cursors find
// by scanning label bytes rather than in an occurrence row: text() and
// node() steps on the child and the descendant axis, after a name and
// after *, and inside predicates. E stands for an element name the
// document has.
var textStepQueries = []string{
	"//text()",
	"/*/text()",
	"//E/text()",
	"//E//text()",
	"//*/text()",
	"//*//text()",
	"/*/node()",
	"//E/node()",
	"//*//node()",
	"//*[text()]",
	"//E[.//text()]",
	"//*[not(text())]//E",
	"//*[text() and *]/node()",
	"//E[node()]//text()",
}

// TestTextStepsDifferential holds every strategy's answer to
// textStepQueries — materialized, paged through continuation tokens and
// streamed — to the step-wise engine's over the same tree, on an XMark
// document and on a random one with texts and attributes among its
// elements, each held three ways: built on the heap, opened from a
// mapped XQO2 file, and patched (a grafted fragment with texts ahead of
// the document element's second child, a subtree deleted and one
// replaced, so the text nodes after each splice move across the lines
// of 1 024 ranks the text ranks are counted in).
func TestTextStepsDifferential(t *testing.T) {
	docs := []struct {
		name, el string
		doc      *tree.Document
	}{
		{"xmark", "keyword", xmark.Generate(xmark.Config{Scale: 0.002, Seed: 42})},
		{"tgen", "a", tgen.Random(5, tgen.Config{MaxNodes: 1000, MaxChildren: 12, MaxDepth: 12, Labels: []string{"a", "b", "c"}, TextProb: 0.4, AttrProb: 0.2})},
	}
	for _, dc := range docs {
		for _, origin := range []string{"heap", "mapped", "patched"} {
			t.Run(dc.name+"/"+origin, func(t *testing.T) {
				t.Parallel()
				svc := service.New(shard.NewStore(1), service.Options{CursorTTL: time.Hour})
				var err error
				if origin == "mapped" {
					path := filepath.Join(t.TempDir(), "doc.xqo2")
					if err = store.SaveXQO2File(path, dc.doc); err == nil {
						_, err = svc.Store().LoadMapped("xm", path)
					}
				} else {
					_, err = svc.Store().Add("xm", dc.doc, store.SourceDirect)
				}
				if err != nil {
					t.Fatal(err)
				}
				if origin == "patched" {
					patchAcrossTextBlocks(t, svc, dc.doc, dc.el)
				}
				h, _ := svc.Store().Get("xm")
				oracle := core.New(h.Doc)
				for _, q := range textStepQueries {
					q = strings.ReplaceAll(q, "E", dc.el)
					want, err := oracle.QueryWith(q, core.Stepwise)
					if err != nil {
						t.Fatalf("%s: stepwise oracle: %v", q, err)
					}
					for _, strategy := range mutationStrategies {
						resp := svc.Eval(service.Request{Doc: "xm", Query: q, Strategy: strategy, AsOf: h.Gen})
						if fragmentErr(strategy, resp.Err) {
							continue
						}
						if resp.Err != "" || resp.Count != len(want.Nodes) || !equalNodes(resp.Nodes, want.Nodes) {
							t.Fatalf("%s under %s: %d nodes (err %q), stepwise %d", q, strategy, len(resp.Nodes), resp.Err, len(want.Nodes))
						}
						paged, errText := pagedNodes(t, svc, q, strategy, h.Gen)
						if errText != "" || !equalNodes(paged, want.Nodes) {
							t.Fatalf("%s under %s: paged %d nodes (err %q), stepwise %d", q, strategy, len(paged), errText, len(want.Nodes))
						}
						streamed, errText := streamedNodes(t, svc, q, strategy, h.Gen)
						if errText != "" || !equalNodes(streamed, want.Nodes) {
							t.Fatalf("%s under %s: streamed %d nodes (err %q), stepwise %d", q, strategy, len(streamed), errText, len(want.Nodes))
						}
					}
				}
			})
		}
	}
}

// patchAcrossTextBlocks patches document xm, a copy of d: a fragment
// with three texts grafted ahead of the document element's second
// child, then the first el element from a third of the way on and past
// that child replaced by one with a text, and the first from half way on
// and past that one deleted.
func patchAcrossTextBlocks(t *testing.T, svc *service.Service, d *tree.Document, el string) {
	t.Helper()
	root := d.DocumentElement()
	second := d.NextSibling(d.FirstChild(root))
	if second == tree.Nil {
		t.Fatal("the document element has one child")
	}
	l, ok := d.Names().Lookup(el)
	if !ok {
		t.Fatalf("no %s in the document", el)
	}
	firstFrom := func(v tree.NodeID) tree.NodeID {
		for ; int(v) < d.NumNodes(); v++ {
			if d.Label(v) == l {
				return v
			}
		}
		t.Fatalf("no %s from node %d on", el, v)
		return tree.Nil
	}
	// Both targets are found in d and lie after the graft, which moves
	// them on by the fragment's six nodes; the replacement, two nodes in
	// place of the replaced subtree, moves the deletion's target again.
	n := tree.NodeID(d.NumNodes())
	replaced := firstFrom(max(n/3, second))
	deleted := firstFrom(max(n/2, d.LastDesc(replaced)+1))
	for _, req := range []service.PatchDocRequest{
		{Op: "insert", Node: root, Before: &second, XML: "<x>one<y>two</y>three<z/></x>"},
		{Op: "replace", Node: replaced + 6, XML: "<" + el + ">four</" + el + ">"},
		{Op: "delete", Node: deleted + 6 + 2 - tree.NodeID(d.SubtreeSize(replaced))},
	} {
		if _, err := svc.PatchDoc("xm", req); err != nil {
			t.Fatalf("%s of node %d: %v", req.Op, req.Node, err)
		}
	}
}
