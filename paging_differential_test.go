package repro_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/tree"
	"repro/internal/xmark"
)

// The paging-resume differential: every strategy's answer, delivered
// page by page under the stateless continuation model (each page
// re-evaluates and SeekPasts the last delivered node — exactly what a
// service resume does), must concatenate to the materialized answer,
// for page sizes 1, 7 and 64 at all three XMark sizes. This is the
// harness that catches both cursor-resume bug classes this repo has
// seen designs for: a cursor binary-searching an unsorted slice, and a
// seek skipping or repeating nodes at the page boundary.
//
// Queries are chosen for answer-shape coverage (tiny, chain,
// predicate-filtered, and the //*-style full-scan whose answers reach
// tens of thousands of nodes) rather than re-running all fifteen paper
// queries — strategy agreement across the full battery is
// TestStrategyAgreementDifferential's job.
var pagingQueries = []string{
	"/site/regions",            // tiny answer: fewer nodes than a page
	"/site/regions//item",      // chain fragment: hybrid + TDSTA eligible
	"//item[location]/payment", // predicate-filtered
	"//*//*",                   // full-scan scale answer
}

var pagingPageSizes = []int{1, 7, 64}

// statelessPages drives a full pagination of query under s, resuming
// the first boundaries with a fresh cursor + SeekPast (the stateless
// model); once resumeCap boundaries have been exercised the remainder
// drains from the last cursor, so huge answers at page size 1 don't
// re-evaluate tens of thousands of times. The cap trades boundary
// coverage for runtime, not correctness coverage: the concatenation
// check below still spans the entire answer.
func statelessPages(t *testing.T, eng *core.Engine, query string, s core.Strategy, pageSize int) []tree.NodeID {
	t.Helper()
	const resumeCap = 24
	var out []tree.NodeID
	buf := make([]tree.NodeID, pageSize)
	last, started := tree.Nil, false
	for resumes := 0; ; resumes++ {
		cur, err := eng.EvalCursor(query, s)
		if err != nil {
			t.Fatalf("%v %s: %v", s, query, err)
		}
		if started {
			cur.SeekPast(last)
		}
		n := cur.NextBatch(buf)
		if n == 0 {
			return out
		}
		out = append(out, buf[:n]...)
		last, started = buf[n-1], true
		if resumes >= resumeCap {
			// Drain the tail from this cursor, still page by page.
			for {
				n := cur.NextBatch(buf)
				if n == 0 {
					return out
				}
				out = append(out, buf[:n]...)
			}
		}
	}
}

func TestPagingResumeDifferential(t *testing.T) {
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
			for _, query := range pagingQueries {
				for _, s := range diffStrategies {
					full, err := eng.QueryWith(query, s)
					if err != nil {
						if fragmentLimited(s) {
							continue
						}
						t.Fatalf("%s under %v: %v", query, s, err)
					}
					for _, pageSize := range pagingPageSizes {
						got := statelessPages(t, eng, query, s, pageSize)
						if !equalNodes(got, full.Nodes) {
							t.Fatalf("%s under %v, page size %d: paged %d nodes != materialized %d",
								query, s, pageSize, len(got), len(full.Nodes))
						}
					}
				}
			}
		})
	}
}

// TestPagingResumeSeekCost is the deterministic benchmark guard for the
// resume fix: resuming deep into a large sorted answer must not walk
// the skipped prefix. Timing is too noisy for CI, so the guard counts
// work instead — the visited-node counter of a resumed evaluation must
// match an unresumed one (the seek itself adds no document work; it is
// a binary search, pinned against an oracle by core's
// TestSeekPastProperty). What this adds end-to-end: page cost measured
// in cursor reads is exactly the page size, at every resume depth.
func TestPagingResumeSeekCost(t *testing.T) {
	doc := xmark.Generate(xmark.Config{Scale: 0.02, Seed: 42})
	eng := core.New(doc)
	const query = "//*//*"
	full, err := eng.QueryWith(query, core.Optimized)
	if err != nil {
		t.Fatal(err)
	}
	n := len(full.Nodes)
	if n < 10000 {
		t.Fatalf("answer too small: %d", n)
	}
	for _, frac := range []int{1, 2, 4, 8} {
		at := full.Nodes[n-n/frac]
		cur, err := eng.EvalCursor(query, core.Optimized)
		if err != nil {
			t.Fatal(err)
		}
		cur.SeekPast(at)
		if got := cur.Visited(); got != full.Visited {
			t.Errorf("resume at n-n/%d: visited %d != unresumed %d (seek must add no document work)",
				frac, got, full.Visited)
		}
		// The page after the seek is exactly the next nodes of the
		// materialized answer — no skipped leaf re-delivered, none lost.
		buf := make([]tree.NodeID, 64)
		got := cur.NextBatch(buf)
		wantStart := n - n/frac + 1
		for i := 0; i < got; i++ {
			if wantStart+i >= n {
				t.Fatalf("page overran the answer")
			}
			if buf[i] != full.Nodes[wantStart+i] {
				t.Fatalf("resume at n-n/%d: page[%d] = %d, want %d", frac, i, buf[i], full.Nodes[wantStart+i])
			}
		}
	}
}
