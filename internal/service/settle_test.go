package service

import (
	"fmt"
	"io"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/store"
	"repro/internal/tree"
)

// poolUnsettled lists the books that do not balance once nothing is
// evaluating — each one a release that some path lost:
//
//   - Every context is made by a miss and ends dropped, parked or
//     checked out, so Misses - Drops - Resident is the number checked
//     out. The context itself is merely garbage-collected, so nothing
//     else would show a lost one.
//   - The guard counts cached automata found to be compiled for another
//     label table than their key says.
func poolUnsettled(s *Service) []string {
	var out []string
	ps := s.Stats().Pool
	if open := int64(ps.Misses) - int64(ps.Drops) - int64(ps.Resident); open != 0 {
		out = append(out, fmt.Sprintf("%d evaluation contexts checked out and never released: %+v", open, ps))
	}
	if ps.GuardTrips != 0 {
		out = append(out, fmt.Sprintf("%d cached automata did not belong to the label table in their key: %+v", ps.GuardTrips, ps))
	}
	return out
}

// assertPoolSettled fails t for every book poolUnsettled finds open.
func assertPoolSettled(t *testing.T, s *Service) {
	t.Helper()
	for _, p := range poolUnsettled(s) {
		t.Error(p)
	}
}

// TestPoolSettledBites proves the check on a deliberate leak before its
// silence is trusted: a pooled cursor left open shows, and closing it
// settles the books.
func TestPoolSettledBites(t *testing.T) {
	s := newTestService(t, Options{})
	h, err := s.store.Acquire("d1", store.NoGen)
	if err != nil {
		t.Fatal(err)
	}
	defer s.store.Release("d1", h.Gen, time.Time{}, false)
	eng := s.engine(h)
	pooled, err := eng.EvalCursor("//a/b", core.Optimized)
	if err != nil {
		t.Fatal(err)
	}
	if open := strings.Join(poolUnsettled(s), "\n"); !strings.Contains(open, "checked out and never released") {
		t.Errorf("an open cursor not reported: %q", open)
	}
	pooled.Close()
	assertPoolSettled(t, s)
}

// TestGuardTripsZeroOnErrorPaths drives every forced error path between
// the start of a request and its cursor's Close — parse errors, unknown
// documents and strategies, malformed, foreign, mismatched and
// earlier-process cursors, rejected patches, failing /batch members,
// header- and chunk-abort streams — for the pooled engine and for Auto,
// plain and explained, and asserts every book balances afterwards
// (assertPoolSettled). An explained refusal must carry its profile: the
// request's trace was settled, not dropped.
func TestGuardTripsZeroOnErrorPaths(t *testing.T) {
	s := newTestService(t, Options{})
	// Only the ASTA engines evaluate in pooled contexts; Auto routes
	// this chain to the hybrid run, which checks none out. Both are
	// driven.
	const pooled = "optimized"
	strategies := []string{pooled, "auto"}

	// Warm the pool so later checkouts actually reuse contexts.
	for i := 0; i < 3; i++ {
		for _, strat := range strategies {
			if resp := s.Eval(Request{Doc: "d1", Query: "//a/b", Strategy: strat}); resp.Err != "" {
				t.Fatal(resp.Err)
			}
		}
	}

	refuse := func(what string, req Request) {
		t.Helper()
		for _, explain := range []bool{false, true} {
			req.Explain = explain
			resp := s.Eval(req)
			if resp.Err == "" {
				t.Fatalf("%s accepted", what)
			}
			if explain && resp.Explain == nil {
				t.Errorf("%s: the explained refusal carries no profile", what)
			}
		}
	}

	// Error before checkout: parse failure, unknown strategy, unknown
	// document.
	refuse("parse error", Request{Doc: "d1", Query: "///"})
	refuse("unknown strategy", Request{Doc: "d1", Query: "//a", Strategy: "bogus"})
	refuse("missing document", Request{Doc: "ghost", Query: "//a"})

	// Cursor-token error paths: malformed token, wrong document,
	// generation/asof mismatch, a token of the previous format.
	page := s.Eval(Request{Doc: "d1", Query: "//a/b", Strategy: pooled, Limit: 1})
	if page.Err != "" || page.Next == "" {
		t.Fatalf("paged eval: %+v", page)
	}
	for _, strat := range strategies {
		refuse("malformed cursor", Request{Doc: "d1", Query: "//a/b", Strategy: strat, Cursor: "not-a-token"})
		refuse("earlier-process cursor", Request{Doc: "d1", Query: "//a/b", Strategy: strat,
			Cursor: rawToken("c2", "0", "d1", page.Gen.String(), "0")})
		refuse("asof/cursor generation mismatch", Request{Doc: "d1", Query: "//a/b", Strategy: strat, Cursor: page.Next, AsOf: genAfter(t, page.Gen, 1)})
	}
	if _, err := s.Store().LoadXML("d2", []byte("<r><a><b/></a></r>")); err != nil {
		t.Fatal(err)
	}
	refuse("cross-document cursor", Request{Doc: "d2", Query: "//a/b", Strategy: pooled, Cursor: page.Next})

	// Patch twice so the paged cursor's pinned generation retires once
	// its lease lapses; a rejected patch exercises that error path too.
	if _, err := s.PatchDoc("d1", PatchDocRequest{Op: "replace", Node: tree.NodeID(1), XML: "<a><b>y</b></a>", BaseGen: genAfter(t, page.Gen, 1)}); err == nil {
		t.Fatal("patch against a wrong base generation accepted")
	}
	if _, err := s.PatchDoc("d1", PatchDocRequest{Op: "replace", Node: tree.NodeID(1), XML: "<a><b>y</b></a>"}); err != nil {
		t.Fatal(err)
	}

	// A /batch whose failing members sit between answered ones.
	batch := []Request{
		{Doc: "d1", Query: "//a/b", Strategy: pooled},
		{Doc: "d1", Query: "///", Explain: true},
		{Doc: "ghost", Query: "//a"},
		{Doc: "d1", Query: "//a/b", Cursor: "not-a-token", Explain: true},
		{Doc: "d1", Query: "//a/b", Limit: 1},
		{Doc: "d1", Query: "//a/b", Strategy: "bogus"},
		{Doc: "d1", Query: "//a/b", Strategy: pooled, Limit: 1, Explain: true},
	}
	for i, resp := range s.EvalBatch(batch) {
		if fails := i%2 == 1 || i == 2; (resp.Err != "") != fails {
			t.Errorf("batch member %d (%+v): error %q", i, batch[i], resp.Err)
		}
		if batch[i].Explain && resp.Explain == nil {
			t.Errorf("batch member %d: explained, but no profile", i)
		}
	}

	// Stream abort paths: header write fails, then a chunk write fails.
	for _, strat := range strategies {
		for _, explain := range []bool{false, true} {
			req := Request{Doc: "d1", Query: "//a/b", Strategy: strat, Explain: explain}
			s.Stream(&failAfter{n: 0}, req, 1)
			s.Stream(&failAfter{n: 1}, req, 1)
			if pre := s.Stream(io.Discard, req, 2); pre != nil {
				t.Fatalf("clean stream refused: %+v", pre)
			}
		}
	}

	// More warm traffic, on the patched generation too.
	for i := 0; i < 3; i++ {
		for _, strat := range strategies {
			if resp := s.Eval(Request{Doc: "d1", Query: "//a/b", Strategy: strat}); resp.Err != "" {
				t.Fatal(resp.Err)
			}
		}
	}

	assertPoolSettled(t, s)
	st := s.Stats()
	if st.Pool.Hits == 0 {
		t.Fatal("no checkout was warm: the books balance trivially")
	}
	if st.Queries.Errors == 0 {
		t.Fatal("test exercised no error paths")
	}
}
