package asta_test

import (
	"fmt"
	"testing"

	"repro/internal/asta"
	"repro/internal/compile"
	"repro/internal/index"
	"repro/internal/tgen"
	"repro/internal/tree"
)

// equalNodes compares two materialized answers.
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

// TestContextWarmReuseMatchesFresh is the core contract of the pooled
// memory model: re-evaluating through a warm Context — memo tables,
// interned sets, jump analyses, arenas all reused — must yield exactly
// the answer a fresh evaluation computes, for every strategy mode and
// a battery of queries, many times in a row.
func TestContextWarmReuseMatchesFresh(t *testing.T) {
	d := tgen.Random(7, tgen.Config{MaxNodes: 600, Labels: []string{"a", "b", "c", "d"}})
	ix := index.New(d)
	for _, mode := range allModes {
		t.Run(mode.name, func(t *testing.T) {
			for _, q := range queryBattery {
				aut, err := compile.Compile(q, d.Names())
				if err != nil {
					continue // outside the fragment
				}
				want := aut.Eval(d, ix, mode.opt)
				ctx := asta.NewContext()
				for round := 0; round < 4; round++ {
					res := aut.EvalCtx(ctx, d, ix, mode.opt)
					got := res.Selected
					if !equalNodes(got, want.Selected) {
						t.Fatalf("%s round %d: warm answer diverged: got %d nodes, want %d",
							q, round, len(got), len(want.Selected))
					}
					if res.Accepted != want.Accepted {
						t.Fatalf("%s round %d: Accepted=%v, want %v", q, round, res.Accepted, want.Accepted)
					}
					if res.Visited != want.Visited {
						// Memo warmth must not change the traversal, only
						// the per-visit cost.
						t.Fatalf("%s round %d: visited %d, want %d",
							q, round, res.Visited, want.Visited)
					}
				}
			}
		})
	}
}

// TestContextRebindAcrossBindings drives one Context through
// interleaved automata, documents and option sets: every switch of
// automaton or options must rebind (discarding the previous memo
// world) and still produce the fresh-evaluation answer.
func TestContextRebindAcrossBindings(t *testing.T) {
	docA := tgen.Random(11, tgen.Config{MaxNodes: 400, Labels: []string{"a", "b", "c"}})
	docB := tgen.Random(13, tgen.Config{MaxNodes: 500, Labels: []string{"a", "b", "c"}})
	ixA, ixB := index.New(docA), index.New(docB)
	queries := []string{"//a/b", "//a[.//b]//c", "//a[b and c]", "//*[b]//c"}
	ctx := asta.NewContext()
	for round := 0; round < 3; round++ {
		for qi, q := range queries {
			for di, dix := range []struct {
				d  *tree.Document
				ix *index.Index
			}{{docA, ixA}, {docB, ixB}} {
				aut, err := compile.Compile(q, dix.d.Names())
				if err != nil {
					t.Fatalf("compile %s: %v", q, err)
				}
				opt := asta.Opt()
				if (qi+di+round)%2 == 0 {
					opt = asta.Options{Memo: true} // alternate options too
				}
				want := aut.Eval(dix.d, dix.ix, opt)
				got := aut.EvalCtx(ctx, dix.d, dix.ix, opt).Selected
				if !equalNodes(got, want.Selected) {
					t.Fatalf("round %d q=%s doc=%d: rebind diverged (got %d, want %d nodes)",
						round, q, di, len(got), len(want.Selected))
				}
			}
		}
	}
}

// TestContextWarmAcrossGenerations: the memo world is bound to
// (automaton, options), not to the tree. A patched generation that
// shares its parent's label table — and so its compiled automaton —
// runs warm in the context the parent warmed, and answers what a fresh
// evaluation of that generation answers.
func TestContextWarmAcrossGenerations(t *testing.T) {
	d := tgen.Random(5, tgen.Config{MaxNodes: 300, Labels: []string{"a", "b"}})
	ix := index.New(d)
	aut, err := compile.Compile("//a[b]", d.Names())
	if err != nil {
		t.Fatal(err)
	}
	ctx := asta.NewContext()
	if first := aut.EvalCtx(ctx, d, ix, asta.Opt()); first.MemoEntries == 0 {
		t.Fatal("expected memo entries on a cold run")
	}
	// Graft a copy of the document under its own root: existing
	// vocabulary in shapes the parent already evaluated.
	next, dl, err := d.Apply(tree.Patch{Op: tree.OpInsert, Node: d.DocumentElement(), Before: tree.Nil, Frag: d})
	if err != nil {
		t.Fatal(err)
	}
	if next.Names() != d.Names() {
		t.Fatal("a vocabulary-only patch cloned the label table")
	}
	nix := index.Apply(ix, next, dl)
	want := aut.Eval(next, nix, asta.Opt())
	warm := aut.EvalCtx(ctx, next, nix, asta.Opt())
	if got := warm.Selected; !equalNodes(got, want.Selected) {
		t.Fatalf("warm run on the patched generation diverged: got %d nodes, want %d", len(got), len(want.Selected))
	}
	if warm.MemoEntries != 0 {
		t.Errorf("run on the patched generation derived %d memo entries, want 0 (memo world is per automaton)", warm.MemoEntries)
	}
	if ctx.MemoEntries() == 0 {
		t.Error("memo world was discarded")
	}
}

// TestWarmEvalAllocs pins the steady-state allocation count of a warm
// re-evaluation: after the first (binding) run, EvalCtx must not
// allocate on the heap beyond the pinned ceiling — the whole point of
// the pooled memory model. A future accidental map rebuild or slice
// escape fails here instead of silently regressing latency.
func TestWarmEvalAllocs(t *testing.T) {
	d := tgen.Random(17, tgen.Config{MaxNodes: 2000, Labels: []string{"a", "b", "c", "d"}})
	ix := index.New(d)
	for _, tc := range []struct {
		mode    string
		opt     asta.Options
		ceiling float64
	}{
		// Opt is the serving path: effectively allocation-free warm.
		// (Non-memo modes are excluded: their transition rows are
		// transient per node by design — they are ablation baselines,
		// never the steady-state path.)
		{"opt", asta.Opt(), 2},
		{"memo", asta.Options{Memo: true}, 2},
	} {
		t.Run(tc.mode, func(t *testing.T) {
			for _, q := range []string{"//a/b", "//a[.//b]//c", "//a[b and c]"} {
				aut, err := compile.Compile(q, d.Names())
				if err != nil {
					t.Fatal(err)
				}
				ctx := asta.NewContext()
				aut.EvalCtx(ctx, d, ix, tc.opt) // bind + warm the arenas
				aut.EvalCtx(ctx, d, ix, tc.opt)
				got := testing.AllocsPerRun(50, func() {
					aut.EvalCtx(ctx, d, ix, tc.opt)
				})
				if got > tc.ceiling {
					t.Errorf("%s %s: warm EvalCtx allocates %.1f/op, ceiling %.0f",
						tc.mode, q, got, tc.ceiling)
				}
			}
		})
	}
}

// TestWarmEvalFasterPath sanity-checks (without timing assertions, to
// stay hermetic) that warm evaluations actually reuse the memo world:
// all transition lookups on a warm run are hits.
func TestWarmEvalFasterPath(t *testing.T) {
	d := tgen.Random(23, tgen.Config{MaxNodes: 1500, Labels: []string{"a", "b", "c"}})
	ix := index.New(d)
	aut, err := compile.Compile("//a[.//b]//c", d.Names())
	if err != nil {
		t.Fatal(err)
	}
	ctx := asta.NewContext()
	cold := aut.EvalCtx(ctx, d, ix, asta.Opt())
	warm := aut.EvalCtx(ctx, d, ix, asta.Opt())
	if warm.MemoEntries != 0 {
		t.Errorf("warm run created %d memo entries", warm.MemoEntries)
	}
	if warm.MemoHits <= cold.MemoHits {
		t.Errorf("warm hits %d not above cold hits %d (memo world not reused?)",
			warm.MemoHits, cold.MemoHits)
	}
}

// The evaluator's open-addressed tables replace Go maps; exercise the
// interning table through evaluation at scale: many distinct state
// sets force growth, and growth must preserve every binding (answers
// stay correct). Wide alternations produce the set diversity.
func TestContextTableGrowthCorrect(t *testing.T) {
	d := tgen.Random(29, tgen.Config{MaxNodes: 1200, Labels: []string{"a", "b", "c", "d", "e", "f", "g", "h"}})
	ix := index.New(d)
	// A query with many predicate branches → many live state subsets.
	q := "//a[.//b or .//c][.//d or .//e]//f"
	aut, err := compile.Compile(q, d.Names())
	if err != nil {
		t.Fatal(err)
	}
	want := aut.Eval(d, ix, asta.Opt())
	ctx := asta.NewContext()
	for i := 0; i < 3; i++ {
		got := aut.EvalCtx(ctx, d, ix, asta.Opt()).Selected
		if !equalNodes(got, want.Selected) {
			t.Fatalf("round %d: answer diverged (%d vs %d nodes)", i, len(got), len(want.Selected))
		}
	}
}

func ExampleASTA_EvalCtx() {
	d := tgen.Star("root", "leaf", 3)
	aut, _ := compile.Compile("//leaf", d.Names())
	ctx := asta.NewContext()
	ix := index.New(d)
	for i := 0; i < 2; i++ {
		res := aut.EvalCtx(ctx, d, ix, asta.Opt())
		fmt.Println(len(res.Selected))
	}
	// Output:
	// 3
	// 3
}
