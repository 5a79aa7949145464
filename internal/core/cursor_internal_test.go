package core

import (
	"errors"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/compile"
	"repro/internal/obsv"
	"repro/internal/tree"
	"repro/internal/xmark"
)

// newSliceCursor must enforce the preorder invariant itself: stepwise,
// hybrid and TDSTA hand over slices they promise are sorted and
// duplicate-free, but SeekPast binary-searches and a violated promise
// would make resumed pages silently skip or repeat nodes. The cursor
// verifies (O(n)) and repairs only on violation.
func TestSliceCursorEnforcesInvariant(t *testing.T) {
	cases := []struct {
		name string
		in   []tree.NodeID
		want []tree.NodeID
	}{
		{"sorted-unique", []tree.NodeID{1, 3, 5}, []tree.NodeID{1, 3, 5}},
		{"unsorted", []tree.NodeID{5, 1, 3}, []tree.NodeID{1, 3, 5}},
		{"dups", []tree.NodeID{1, 1, 3, 3, 5}, []tree.NodeID{1, 3, 5}},
		{"unsorted-dups", []tree.NodeID{5, 1, 5, 3, 1}, []tree.NodeID{1, 3, 5}},
		{"empty", nil, nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := newSliceCursor(append([]tree.NodeID(nil), tc.in...), Stepwise, obsv.Work{})
			if got := c.Count(); got != len(tc.want) {
				t.Errorf("Count() = %d, want %d", got, len(tc.want))
			}
			var got []tree.NodeID
			for {
				v, ok := c.Next()
				if !ok {
					break
				}
				got = append(got, v)
			}
			if len(got) != len(tc.want) {
				t.Fatalf("drained %v, want %v", got, tc.want)
			}
			for i := range tc.want {
				if got[i] != tc.want[i] {
					t.Fatalf("drained %v, want %v", got, tc.want)
				}
			}
			// Resume past the first surviving node: must deliver exactly
			// the rest, regardless of how broken the input order was.
			if len(tc.want) > 1 {
				r := newSliceCursor(append([]tree.NodeID(nil), tc.in...), Stepwise, obsv.Work{})
				r.SeekPast(tc.want[0])
				v, ok := r.Next()
				if !ok || v != tc.want[1] {
					t.Errorf("resume after %d: got (%d,%v), want %d", tc.want[0], v, ok, tc.want[1])
				}
			}
		})
	}
}

// TestSeekPastProperty: on random strictly increasing answers, heap-
// and arena-owned alike, SeekPast(v) leaves the cursor at the oracle's
// first element > v — for v below the first element, equal to one,
// between two, equal to the last, above it, 0 and the largest NodeID a
// token can carry (where searching for v+1 would wrap around and replay
// the whole answer) — and leaves Count alone. The answer then drains to
// the oracle's suffix, by Next and by NextBatch, and an arena-owned
// cursor hands its context back exactly once.
func TestSeekPastProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	for round := 0; round < 200; round++ {
		n := 1 + rng.Intn(300)
		if round%10 == 0 {
			n = 1
		}
		oracle := make([]tree.NodeID, n)
		v := tree.NodeID(rng.Intn(3)) // sometimes starts at 0
		for i := range oracle {
			oracle[i] = v
			v += tree.NodeID(1 + rng.Intn(5))
		}
		if round%7 == 0 {
			oracle[n-1] = math.MaxInt32 // the id no successor exists for
		}
		first, last := oracle[0], oracle[n-1]
		mid := oracle[n/2]
		probes := []tree.NodeID{tree.Nil, first - 1, first, mid, mid + 1, last - 1, last, 0, math.MaxInt32}
		if last < math.MaxInt32 {
			probes = append(probes, last+1)
		}
		for i := 0; i < 8; i++ {
			probes = append(probes, oracle[rng.Intn(n)]+tree.NodeID(rng.Intn(3)-1))
		}
		for pi, p := range probes {
			arena := (round+pi)%2 == 0
			releases := 0
			var release func()
			if arena {
				release = func() { releases++ }
			}
			c := newCursor(append([]tree.NodeID(nil), oracle...), release, Optimized, obsv.Work{})
			c.SeekPast(p)
			if c.Count() != n {
				t.Fatalf("SeekPast(%d) changed Count to %d, want %d", p, c.Count(), n)
			}
			want := oracle[sort.Search(n, func(i int) bool { return oracle[i] > p }):]
			var got []tree.NodeID
			if pi%2 == 0 {
				got = collect(t, c)
			} else {
				buf := make([]tree.NodeID, 1+rng.Intn(64))
				for {
					k := c.NextBatch(buf)
					if k == 0 {
						break
					}
					got = append(got, buf[:k]...)
				}
			}
			if !slices.Equal(got, want) {
				t.Fatalf("round %d: after SeekPast(%d) drained %d nodes %v, oracle %d %v (answer %d..%d)",
					round, p, len(got), got, len(want), want, first, last)
			}
			c.Close()
			if arena && releases != 1 {
				t.Fatalf("round %d: context released %d times, want 1", round, releases)
			}
			if c.Count() != n {
				t.Fatalf("Count = %d after exhaustion and Close, want %d", c.Count(), n)
			}
		}
	}
	// The empty answer: nothing to hold a context for.
	releases := 0
	c := newCursor(nil, func() { releases++ }, Optimized, obsv.Work{})
	c.SeekPast(5)
	if _, ok := c.Next(); ok || c.Count() != 0 || releases != 1 {
		t.Fatalf("empty arena-owned answer: ok=%v count=%d releases=%d, want exhausted, 0, 1", ok, c.Count(), releases)
	}
}

// collect drains a cursor.
func collect(t *testing.T, c *Cursor) []tree.NodeID {
	t.Helper()
	var out []tree.NodeID
	for {
		v, ok := c.Next()
		if !ok {
			return out
		}
		out = append(out, v)
	}
}

// TestAutoParityWithQueryWith pins that the cursor path and the
// materializing path make identical Auto decisions and surface
// identical errors, on the fifteen paper queries plus an
// out-of-fragment query (which must pick the step-wise engine on both,
// not error). A genuinely broken query must error identically on both.
func TestAutoParityWithQueryWith(t *testing.T) {
	doc := xmark.Generate(xmark.Config{Scale: 0.002, Seed: 7})
	eng := New(doc)
	// Static mode: the adaptive selector intentionally varies decisions
	// across successive calls on one shape (probing unmeasured
	// candidates), and this test pins that the two *code paths* decide
	// identically, not that the online model is stationary. Adaptive
	// answer-parity is covered by the decision-table and differential
	// tests.
	eng.ConfigureAuto(AutoConfig{Adaptive: false})

	queries := make([]string, 0, 16)
	for _, q := range xmark.Queries() {
		queries = append(queries, q.XPath)
	}
	// Backward axis: outside the automata fragment, Auto runs step-wise.
	queries = append(queries, "//keyword/parent::*")

	for _, q := range queries {
		ans, aerr := eng.QueryWith(q, Auto)
		cur, cerr := eng.EvalCursor(q, Auto)
		if (aerr == nil) != (cerr == nil) {
			t.Fatalf("%s: QueryWith err=%v, EvalCursor err=%v", q, aerr, cerr)
		}
		if aerr != nil {
			if aerr.Error() != cerr.Error() {
				t.Errorf("%s: error mismatch: %q vs %q", q, aerr, cerr)
			}
			continue
		}
		if ans.Strategy != cur.Strategy() {
			t.Errorf("%s: QueryWith picked %v, EvalCursor picked %v", q, ans.Strategy, cur.Strategy())
		}
		got := collect(t, cur)
		if len(got) != len(ans.Nodes) {
			t.Fatalf("%s: cursor %d nodes, answer %d nodes", q, len(got), len(ans.Nodes))
		}
		for i := range got {
			if got[i] != ans.Nodes[i] {
				t.Fatalf("%s: node %d: cursor %d != answer %d", q, i, got[i], ans.Nodes[i])
			}
		}
	}

	// The out-of-fragment query must have fallen back to stepwise.
	cur, err := eng.EvalCursor("//keyword/parent::*", Auto)
	if err != nil {
		t.Fatalf("out-of-fragment Auto: %v", err)
	}
	if cur.Strategy() != Stepwise {
		t.Errorf("out-of-fragment Auto picked %v, want %v", cur.Strategy(), Stepwise)
	}

	// A parse failure errors identically through both paths.
	if _, aerr := eng.QueryWith("///", Auto); aerr == nil {
		t.Error("QueryWith: bad query must error")
	} else if _, cerr := eng.EvalCursor("///", Auto); cerr == nil || cerr.Error() != aerr.Error() {
		t.Errorf("EvalCursor error %v != QueryWith error %v", cerr, aerr)
	}
}

// TestAutoSurfacesNonFragmentErrors pins the error classification the
// Auto fallback relies on: every ToASTA failure mode that step-wise can
// evaluate matches compile.ErrUnsupported, and Auto's astaOrStepwise
// hands a query to step-wise only on that match.
func TestAutoSurfacesNonFragmentErrors(t *testing.T) {
	doc := xmark.Generate(xmark.Config{Scale: 0.002, Seed: 7})
	eng := New(doc)
	for _, q := range []string{
		"//keyword/parent::*",
		"//item/ancestor::regions",
		"//item[contains(description, \"gold\")]",
	} {
		// Forced Optimized must report the fragment violation...
		_, err := eng.QueryWith(q, Optimized)
		if err == nil {
			t.Fatalf("%s: forced Optimized should fail", q)
		}
		if !errors.Is(err, compile.ErrUnsupported) {
			t.Errorf("%s: error %v must match compile.ErrUnsupported", q, err)
		}
		// ...and Auto must absorb exactly that class.
		cur, err := eng.EvalCursor(q, Auto)
		if err != nil {
			t.Fatalf("%s: Auto: %v", q, err)
		}
		if cur.Strategy() != Stepwise {
			t.Errorf("%s: Auto picked %v, want %v", q, cur.Strategy(), Stepwise)
		}
	}
}

// TestSliceStrategiesResumeMidAnswer is the regression test for the
// slice-cursor paging bug: every heap-slice strategy, resumed
// mid-answer via fresh cursors and SeekPast (the stateless continuation
// model), must deliver exactly the full answer across pages.
func TestSliceStrategiesResumeMidAnswer(t *testing.T) {
	doc := xmark.Generate(xmark.Config{Scale: 0.004, Seed: 11})
	eng := New(doc)
	cases := []struct {
		strategy Strategy
		query    string
	}{
		{Stepwise, "/site/regions//item"},
		{Hybrid, "/site/regions//item/location"},
		{TopDownDet, "/site/regions//item"},
		{Optimized, "/site//item//keyword"}, // arena-owned, for contrast
	}
	for _, tc := range cases {
		full, err := eng.QueryWith(tc.query, tc.strategy)
		if err != nil {
			t.Fatalf("%v %s: %v", tc.strategy, tc.query, err)
		}
		if len(full.Nodes) < 10 {
			t.Fatalf("%v %s: answer too small (%d) to page", tc.strategy, tc.query, len(full.Nodes))
		}
		var paged []tree.NodeID
		last := tree.Nil
		buf := make([]tree.NodeID, 7)
		for {
			cur, err := eng.EvalCursor(tc.query, tc.strategy)
			if err != nil {
				t.Fatalf("%v %s: %v", tc.strategy, tc.query, err)
			}
			if last != tree.Nil {
				cur.SeekPast(last)
			}
			n := cur.NextBatch(buf)
			if n == 0 {
				break
			}
			paged = append(paged, buf[:n]...)
			last = buf[n-1]
		}
		if len(paged) != len(full.Nodes) {
			t.Fatalf("%v %s: paged %d nodes, full %d", tc.strategy, tc.query, len(paged), len(full.Nodes))
		}
		for i := range paged {
			if paged[i] != full.Nodes[i] {
				t.Fatalf("%v %s: node %d: paged %d != full %d", tc.strategy, tc.query, i, paged[i], full.Nodes[i])
			}
		}
	}
}
