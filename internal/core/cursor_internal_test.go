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

// TestSeekPastProperty: on random strictly increasing answers,
// SeekPast(v) leaves the cursor at the oracle's first element > v — for
// v below the first element, equal to one, between two, equal to the
// last, above it, 0 and the largest NodeID a token can carry (where
// searching for v+1 would wrap around and replay the whole answer) —
// and leaves Count alone. The answer then drains to the oracle's
// suffix, by Next, by NextBatch and by Take, whose windows hold exactly
// what they deliver; Close ends the read and leaves Count alone.
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
			c := newCursor(append([]tree.NodeID(nil), oracle...), Optimized, obsv.Work{})
			c.SeekPast(p)
			if c.Count() != n {
				t.Fatalf("SeekPast(%d) changed Count to %d, want %d", p, c.Count(), n)
			}
			want := oracle[sort.Search(n, func(i int) bool { return oracle[i] > p }):]
			var got []tree.NodeID
			switch pi % 3 {
			case 0:
				got = collect(t, c)
			case 1:
				buf := make([]tree.NodeID, 1+rng.Intn(64))
				for {
					k := c.NextBatch(buf)
					if k == 0 {
						break
					}
					got = append(got, buf[:k]...)
				}
			case 2:
				size := 1 + rng.Intn(64)
				for {
					w := c.Take(size)
					if len(w) == 0 {
						break
					}
					if cap(w) != len(w) || len(w) > size {
						t.Fatalf("Take(%d) = %d nodes in %d slots", size, len(w), cap(w))
					}
					got = append(got, w...)
				}
			}
			if !slices.Equal(got, want) {
				t.Fatalf("round %d: after SeekPast(%d) drained %d nodes %v, oracle %d %v (answer %d..%d)",
					round, p, len(got), got, len(want), want, first, last)
			}
			c.SeekPast(tree.Nil)
			c.Close()
			if _, ok := c.Next(); ok || c.Remaining() != 0 || c.Count() != n {
				t.Fatalf("closed cursor: ok=%v remaining=%d count=%d, want exhausted and %d", ok, c.Remaining(), c.Count(), n)
			}
		}
	}
	// The empty answer.
	c := newCursor(nil, Optimized, obsv.Work{})
	c.SeekPast(5)
	if _, ok := c.Next(); ok || c.Count() != 0 || len(c.Take(3)) != 0 {
		t.Fatalf("empty answer: ok=%v count=%d, want exhausted and 0", ok, c.Count())
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

// TestAutoSurfacesNonFragmentErrors pins the ASTA's refusals: every
// query outside its fragment that step-wise can evaluate is refused by
// a forced Optimized with an error matching compile.ErrUnsupported, and
// Auto's route, asking compile.CheckASTA, sends it to step-wise.
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
// slice-cursor paging bug: every engine, resumed
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
		{Optimized, "/site//item//keyword"},
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
