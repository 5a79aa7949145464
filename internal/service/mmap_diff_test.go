package service

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"path/filepath"
	"testing"

	"repro/internal/shard"
	"repro/internal/store"
	"repro/internal/tree"
	"repro/internal/xmark"
)

// The mmap differential harness: the same XMark document served from
// the heap (parsed/generated) and from a zero-copy mapped XQO2 file
// must produce byte-identical answers for every paper query, under
// every strategy, through every delivery mode (materialized Eval,
// paged Eval, NDJSON stream). This is the end-to-end proof that the
// aliased arrays and the reconstructed index are observationally
// equivalent to their heap-built twins.

// answerKey renders a node sequence (plus the full-answer count) into
// the canonical byte string the differential comparison uses.
func answerKey(count int, nodes []tree.NodeID) string {
	return fmt.Sprintf("count=%d nodes=%v", count, nodes)
}

// pagedAnswer drains a query through the paged API, 7 nodes at a time.
func pagedAnswer(t *testing.T, svc *Service, req Request) (string, string) {
	t.Helper()
	var nodes []tree.NodeID
	count := -1
	req.Limit = 7
	for {
		resp := svc.Eval(req)
		if resp.Err != "" {
			return "", resp.Err
		}
		count = resp.Count
		nodes = append(nodes, resp.Nodes...)
		if resp.Next == "" {
			break
		}
		req.Cursor = resp.Next
	}
	return answerKey(count, nodes), ""
}

// streamedAnswer drains a query through the NDJSON stream, re-parsing
// the chunk lines back into a node sequence.
func streamedAnswer(t *testing.T, svc *Service, req Request) (string, string) {
	t.Helper()
	var buf bytes.Buffer
	if pre := svc.Stream(&buf, req, 5); pre != nil {
		return "", pre.Err
	}
	sc := bufio.NewScanner(&buf)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	if !sc.Scan() {
		t.Fatal("stream produced no header")
	}
	var hdr StreamHeader
	if err := json.Unmarshal(sc.Bytes(), &hdr); err != nil {
		t.Fatalf("bad stream header: %v", err)
	}
	var nodes []tree.NodeID
	var lines [][]byte
	for sc.Scan() {
		lines = append(lines, append([]byte(nil), sc.Bytes()...))
	}
	if len(lines) == 0 {
		t.Fatal("stream had no trailer")
	}
	var tr StreamTrailer
	if err := json.Unmarshal(lines[len(lines)-1], &tr); err != nil {
		t.Fatalf("bad stream trailer: %v", err)
	}
	if !tr.Done {
		t.Fatalf("stream not done: %+v", tr)
	}
	for _, line := range lines[:len(lines)-1] {
		var ch StreamChunk
		if err := json.Unmarshal(line, &ch); err != nil {
			t.Fatalf("bad stream chunk: %v", err)
		}
		nodes = append(nodes, ch.Nodes...)
	}
	return answerKey(hdr.Count, nodes), ""
}

func TestMmapDifferentialMatrix(t *testing.T) {
	scales := []float64{0.001, 0.002, 0.004}
	strategies := []string{"auto", "naive", "jumping", "memoized", "optimized",
		"hybrid", "topdown-det", "stepwise"}
	for _, scale := range scales {
		d := xmark.Generate(xmark.Config{Scale: scale, Seed: 42})
		path := filepath.Join(t.TempDir(), "xm.xqo2")
		if err := store.SaveXQO2File(path, d); err != nil {
			t.Fatal(err)
		}
		heap := New(shard.NewStore(1), Options{})
		if _, err := heap.Store().Add("xm", d, store.SourceXMark); err != nil {
			t.Fatal(err)
		}
		mapped := New(shard.NewStore(1), Options{})
		if _, err := mapped.Store().LoadMapped("xm", path); err != nil {
			t.Fatal(err)
		}
		for _, q := range xmark.Queries() {
			for _, strat := range strategies {
				tag := fmt.Sprintf("scale=%g %s strategy=%s", scale, q.ID, strat)
				req := Request{Doc: "xm", Query: q.XPath, Strategy: strat}

				// Materialized: whole answer in one Response.
				hr, mr := heap.Eval(req), mapped.Eval(req)
				if hr.Err != mr.Err {
					t.Fatalf("%s: error mismatch: heap=%q mapped=%q", tag, hr.Err, mr.Err)
				}
				if hr.Err != "" {
					continue // both reject (e.g. unsupported strategy): agreed
				}
				hk := answerKey(hr.Count, hr.Nodes)
				if mk := answerKey(mr.Count, mr.Nodes); hk != mk {
					t.Fatalf("%s materialized: heap %s != mapped %s", tag, hk, mk)
				}

				// Paged: 7-node pages via continuation tokens.
				hp, herr := pagedAnswer(t, heap, req)
				mp, merr := pagedAnswer(t, mapped, req)
				if herr != merr {
					t.Fatalf("%s paged: error mismatch: heap=%q mapped=%q", tag, herr, merr)
				}
				if hp != mp {
					t.Fatalf("%s paged: heap %s != mapped %s", tag, hp, mp)
				}
				if hp != hk {
					t.Fatalf("%s paged answer diverges from materialized: %s != %s", tag, hp, hk)
				}

				// Streamed: NDJSON chunks of 5.
				hs, herr := streamedAnswer(t, heap, req)
				ms, merr := streamedAnswer(t, mapped, req)
				if herr != merr {
					t.Fatalf("%s streamed: error mismatch: heap=%q mapped=%q", tag, herr, merr)
				}
				if hs != ms {
					t.Fatalf("%s streamed: heap %s != mapped %s", tag, hs, ms)
				}
				if hs != hk {
					t.Fatalf("%s streamed answer diverges from materialized: %s != %s", tag, hs, hk)
				}
			}
		}
	}
}
