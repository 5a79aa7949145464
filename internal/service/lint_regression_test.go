package service

import (
	"io"
	"testing"

	"repro/internal/tree"
)

// assertPoolSettled checks the two pool invariants that can break, once
// nothing is evaluating. Every context is made by a miss and ends
// dropped, parked or checked out, so Misses - Drops - Resident is the
// number checked out: non-zero at quiescence means a release was lost
// (the context itself is merely garbage-collected, so nothing else
// would show it). And the guard counts cached automata found to be
// compiled for another label table than their key says.
func assertPoolSettled(t *testing.T, s *Service) {
	t.Helper()
	ps := s.Stats().Pool
	if out := int64(ps.Misses) - int64(ps.Drops) - int64(ps.Resident); out != 0 {
		t.Errorf("%d evaluation contexts checked out and never released: %+v", out, ps)
	}
	if ps.GuardTrips != 0 {
		t.Errorf("%d cached automata did not belong to the label table in their key: %+v", ps.GuardTrips, ps)
	}
}

// TestGuardTripsZeroOnErrorPaths is the runtime twin of the xpqlint
// ctxrelease analyzer: it drives every forced error path between
// cursor checkout and Close — parse errors, unknown documents and
// strategies, malformed/stale/relocated cursors, asof mismatches,
// rejected patches, header- and chunk-abort streams — and asserts the
// context pool's books balance afterwards (assertPoolSettled). An
// imbalance would mean some error return leaked a checked-out
// evaluation context: exactly the leak class the analyzer proves absent
// at compile time.
func TestGuardTripsZeroOnErrorPaths(t *testing.T) {
	s := newTestService(t, Options{})
	// Only the ASTA engines evaluate in pooled contexts; Auto would route
	// this tiny document to the hybrid run and never check one out.
	const pooled = "optimized"

	// Warm the pool so later checkouts actually reuse contexts.
	for i := 0; i < 3; i++ {
		if resp := s.Eval(Request{Doc: "d1", Query: "//a/b", Strategy: pooled}); resp.Err != "" {
			t.Fatal(resp.Err)
		}
	}

	// Error before checkout: parse failure, unknown strategy, unknown
	// document.
	if resp := s.Eval(Request{Doc: "d1", Query: "///"}); resp.Err == "" {
		t.Fatal("parse error expected")
	}
	if resp := s.Eval(Request{Doc: "d1", Query: "//a", Strategy: "bogus"}); resp.Err == "" {
		t.Fatal("strategy error expected")
	}
	if resp := s.Eval(Request{Doc: "ghost", Query: "//a"}); resp.Err == "" {
		t.Fatal("missing-document error expected")
	}

	// Cursor-token error paths: malformed token, wrong document,
	// generation/asof mismatch, stale generation.
	page := s.Eval(Request{Doc: "d1", Query: "//a/b", Strategy: pooled, Limit: 1})
	if page.Err != "" || page.Next == "" {
		t.Fatalf("paged eval: %+v", page)
	}
	if resp := s.Eval(Request{Doc: "d1", Query: "//a/b", Strategy: pooled, Cursor: "not-a-token"}); resp.Err == "" {
		t.Fatal("malformed cursor accepted")
	}
	if _, err := s.Store().LoadXML("d2", []byte("<r><a><b/></a></r>")); err != nil {
		t.Fatal(err)
	}
	if resp := s.Eval(Request{Doc: "d2", Query: "//a/b", Strategy: pooled, Cursor: page.Next}); resp.Err == "" {
		t.Fatal("cross-document cursor accepted")
	}
	if resp := s.Eval(Request{Doc: "d1", Query: "//a/b", Strategy: pooled, Cursor: page.Next, AsOf: page.Gen + 1}); resp.Err == "" {
		t.Fatal("asof/cursor generation mismatch accepted")
	}
	// Patch twice so the paged cursor's pinned generation retires once
	// its lease lapses; a rejected patch exercises that error path too.
	if _, err := s.PatchDoc("d1", PatchDocRequest{Op: "replace", Node: tree.NodeID(1), XML: "<a><b>y</b></a>", BaseGen: page.Gen + 1}); err == nil {
		t.Fatal("patch against a wrong base generation accepted")
	}
	if _, err := s.PatchDoc("d1", PatchDocRequest{Op: "replace", Node: tree.NodeID(1), XML: "<a><b>y</b></a>"}); err != nil {
		t.Fatal(err)
	}

	// Stream abort paths: header write fails, then a chunk write fails.
	s.Stream(&failAfter{n: 0}, Request{Doc: "d1", Query: "//a/b", Strategy: pooled}, 1)
	s.Stream(&failAfter{n: 1}, Request{Doc: "d1", Query: "//a/b", Strategy: pooled}, 1)
	if pre := s.Stream(io.Discard, Request{Doc: "d1", Query: "//a/b", Strategy: pooled}, 2); pre != nil {
		t.Fatalf("clean stream refused: %+v", pre)
	}

	// More warm traffic, on the patched generation too.
	for i := 0; i < 3; i++ {
		if resp := s.Eval(Request{Doc: "d1", Query: "//a/b", Strategy: pooled}); resp.Err != "" {
			t.Fatal(resp.Err)
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
