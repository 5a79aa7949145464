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
				ctx := aut.NewContext(mode.opt)
				for round := 0; round < 4; round++ {
					res := ctx.Eval(d, ix)
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
	ctx := aut.NewContext(asta.Opt())
	if first := ctx.Eval(d, ix); first.MemoEntries == 0 {
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
	warm := ctx.Eval(next, nix)
	if got := warm.Selected; !equalNodes(got, want.Selected) {
		t.Fatalf("warm run on the patched generation diverged: got %d nodes, want %d", len(got), len(want.Selected))
	}
	if warm.MemoEntries != 0 {
		t.Errorf("run on the patched generation derived %d memo entries, want 0 (memo world is per automaton)", warm.MemoEntries)
	}
	if warm.MemoHits == 0 {
		t.Error("memo world was discarded")
	}
}

// TestWarmEvalAllocs pins the steady-state allocation count of a warm
// re-evaluation: after the first run, Eval must not allocate on the
// heap beyond the pinned ceiling — the whole point of the pooled
// memory model. A future accidental map rebuild or slice
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
				ctx := aut.NewContext(tc.opt)
				ctx.Eval(d, ix) // build the memo world + warm the arenas
				ctx.Eval(d, ix)
				got := testing.AllocsPerRun(50, func() {
					ctx.Eval(d, ix)
				})
				if got > tc.ceiling {
					t.Errorf("%s %s: warm Eval allocates %.1f/op, ceiling %.0f",
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
	ctx := aut.NewContext(asta.Opt())
	cold := ctx.Eval(d, ix)
	warm := ctx.Eval(d, ix)
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
	ctx := aut.NewContext(asta.Opt())
	for i := 0; i < 3; i++ {
		got := ctx.Eval(d, ix).Selected
		if !equalNodes(got, want.Selected) {
			t.Fatalf("round %d: answer diverged (%d vs %d nodes)", i, len(got), len(want.Selected))
		}
	}
}

func ExampleContext_Eval() {
	d := tgen.Star("root", "leaf", 3)
	aut, _ := compile.Compile("//leaf", d.Names())
	ctx := aut.NewContext(asta.Opt())
	ix := index.New(d)
	for i := 0; i < 2; i++ {
		res := ctx.Eval(d, ix)
		fmt.Println(len(res.Selected))
	}
	// Output:
	// 3
	// 3
}

// TestNewContextAllocs: a jumping Context reads the pure label sets its
// automaton's Finalize built, so making another one for a warm
// automaton is one allocation, the Context, however many states the
// automaton has.
func TestNewContextAllocs(t *testing.T) {
	lt := tree.NewLabelTable()
	for _, n := range []string{"site", "regions", "item", "keyword", "listitem", "emph"} {
		lt.Intern(n)
	}
	for _, q := range []string{"/site/regions/*/item//keyword", "//listitem[ .//keyword and .//emph]//listitem"} {
		aut, err := compile.Compile(q, lt)
		if err != nil {
			t.Fatal(err)
		}
		for _, mode := range []struct {
			name string
			opt  asta.Options
		}{{"jumping", asta.Options{Jump: true}}, {"optimized", asta.Opt()}} {
			aut.NewContext(mode.opt)
			if got := testing.AllocsPerRun(20, func() { aut.NewContext(mode.opt) }); got > 1 {
				t.Errorf("%s %s: NewContext allocates %.0f times, want 1", mode.name, q, got)
			}
		}
	}
}
