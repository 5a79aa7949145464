package service

import (
	"encoding/base64"
	"strconv"
	"strings"
	"testing"

	"repro/internal/shard"
	"repro/internal/tree"
)

// rawToken assembles a continuation token from raw fields, bypassing
// encodeCursor's types so the test can produce values a well-behaved
// client never would (negative nodes, alien versions, old layouts).
func rawToken(fields ...string) string {
	raw := strings.Join(fields, "\x00")
	return base64.RawURLEncoding.EncodeToString([]byte(raw))
}

// TestCursorTokenMatrix pins the full malformed-and-stale token
// contract of the paged API: every way a token can be syntactically
// broken — not base64, truncated, wrong version, wrong field count,
// negative or overflowing node id — is a client error (400, "bad
// cursor"), while the legitimate expiry conditions — a generation this
// process does not have, or a token of the previous format, which only
// an earlier process can have issued — are 410 Gone. The split matters to clients: a 400 token was never valid
// (do not retry), a 410 token was valid once (restart the page loop).
func TestCursorTokenMatrix(t *testing.T) {
	svc := New(shard.NewStore(1), Options{})
	if _, err := svc.Store().GenerateXMark("xm", 0.002, 1); err != nil {
		t.Fatal(err)
	}

	// Obtain one genuine continuation token and its raw fields.
	first := svc.Eval(Request{Doc: "xm", Query: "/site//item", Limit: 3})
	if first.Err != "" || first.Next == "" {
		t.Fatalf("seed page: err=%q next=%q", first.Err, first.Next)
	}
	cdoc, cgen, clast, err := decodeCursor(first.Next)
	if err != nil {
		t.Fatalf("decoding our own token: %v", err)
	}
	genS := cgen.String()
	lastS := strconv.FormatInt(int64(clast), 10)

	// The genuine token must resume cleanly.
	if resume := svc.Eval(Request{Doc: "xm", Query: "/site//item", Limit: 3, Cursor: first.Next}); resume.Err != "" {
		t.Fatalf("genuine resume: %s", resume.Err)
	}

	cases := []struct {
		name   string
		cursor string
		code   int // expected HTTP status via statusFor
	}{
		{"not-base64", "%%%", 400},
		{"truncated", first.Next[:len(first.Next)-4], 400},
		{"missing-fields", base64.RawURLEncoding.EncodeToString([]byte("c3\x00xm")), 400},
		{"wrong-version", rawToken("c1", cdoc, genS, lastS), 400},
		{"negative-node", rawToken("c3", cdoc, genS, "-5"), 400},
		{"node-overflow", rawToken("c3", cdoc, genS, "2147483648"), 400},
		{"node-not-numeric", rawToken("c3", cdoc, genS, "abc"), 400},
		// The previous format carried a shard index; even naming the live
		// generation, it is stale.
		{"earlier-process", rawToken("c2", "0", cdoc, genS, lastS), 410},
		{"stale-generation", rawToken("c3", cdoc, genAfter(t, cgen, 1).String(), lastS), 410},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp := svc.Eval(Request{Doc: "xm", Query: "/site//item", Limit: 3, Cursor: tc.cursor})
			if resp.Err == "" {
				t.Fatalf("token %q must be rejected", tc.cursor)
			}
			if got := statusFor(resp); got != tc.code {
				t.Errorf("status = %d (%s), want %d", got, resp.Err, tc.code)
			}
			// 400-class rejections must present as malformed tokens, not
			// as strategy or evaluation failures.
			if tc.code == 400 && !strings.Contains(resp.Err, "bad cursor") {
				t.Errorf("error %q should identify a bad cursor", resp.Err)
			}
			if tc.code == 410 && !strings.Contains(resp.Err, "stale cursor") {
				t.Errorf("error %q should identify a stale cursor", resp.Err)
			}
		})
	}

	// Evict + reload rotates the generation for real: the old token must
	// go stale (410), and a fresh page loop must work.
	if !svc.EvictDoc("xm") {
		t.Fatal("evict failed")
	}
	if _, err := svc.Store().GenerateXMark("xm", 0.002, 1); err != nil {
		t.Fatal(err)
	}
	resp := svc.Eval(Request{Doc: "xm", Query: "/site//item", Limit: 3, Cursor: first.Next})
	if resp.Err == "" || statusFor(resp) != 410 {
		t.Fatalf("post-reload resume: err=%q status=%d, want 410", resp.Err, statusFor(resp))
	}
	if fresh := svc.Eval(Request{Doc: "xm", Query: "/site//item", Limit: 3}); fresh.Err != "" {
		t.Fatalf("fresh page after reload: %s", fresh.Err)
	}

	// A token whose node id is in range but beyond the document simply
	// yields an empty page (the answer has nothing past it) — that is a
	// data condition, not a protocol error.
	p2 := svc.Eval(Request{Doc: "xm", Query: "/site//item", Limit: 3})
	dc, gn, _, err := decodeCursor(p2.Next)
	if err != nil {
		t.Fatal(err)
	}
	beyond := rawToken("c3", dc, gn.String(), "2147483647")
	maxed := svc.Eval(Request{Doc: "xm", Query: "/site//item", Limit: 3, Cursor: beyond})
	if maxed.Err != "" || len(maxed.Nodes) != 0 {
		t.Fatalf("in-range beyond-answer token: err=%q nodes=%d, want empty page", maxed.Err, len(maxed.Nodes))
	}
}

// TestNodeIDRoundTrip pins that every legal node id survives the token
// round trip unchanged, including the extremes of the NodeID domain.
func TestNodeIDRoundTrip(t *testing.T) {
	for _, last := range []tree.NodeID{0, 1, 1 << 20, 2147483647} {
		tok := encodeCursor("doc-α", genOf(t, 42), last)
		doc, gen, got, err := decodeCursor(tok)
		if err != nil {
			t.Fatalf("last=%d: %v", last, err)
		}
		if doc != "doc-α" || gen != genOf(t, 42) || got != last {
			t.Fatalf("round trip (doc-α,42,%d) -> (%s,%s,%d)", last, doc, gen, got)
		}
	}
}

// FuzzDecodeCursor: a continuation token is client-controlled text.
// Whatever it holds, decoding returns an error or a value — never a
// panic — and a value that decodes is one encodeCursor can carry: its
// re-encoding decodes to the same (doc, gen, last), with last inside a
// NodeID's domain.
func FuzzDecodeCursor(f *testing.F) {
	f.Add(rawToken(cursorVersion, "xm", "7", "41"))
	f.Add(rawToken(cursorVersion, "xm", "1", "2147483647"))
	f.Add(rawToken(cursorVersion, "xm", "1", "-1"))
	f.Add(rawToken(cursorVersion, "xm", "1", "2147483648"))
	f.Add(rawToken(cursorVersion, "x\x00m", "1", "5"))
	f.Add("%%%")
	f.Add("")
	f.Add(rawToken("c2", "0", "xm", "1", "5"))
	f.Fuzz(func(t *testing.T, tok string) {
		doc, gen, last, err := decodeCursor(tok)
		if err != nil {
			return
		}
		if last < 0 || strings.ContainsRune(doc, 0) {
			t.Fatalf("decoded (%q, %s, %d) from %q: outside what a token can name", doc, gen, last, tok)
		}
		doc2, gen2, last2, err := decodeCursor(encodeCursor(doc, gen, last))
		if err != nil || doc2 != doc || gen2 != gen || last2 != last {
			t.Fatalf("(%q, %s, %d) re-encoded decodes to (%q, %s, %d), err %v",
				doc, gen, last, doc2, gen2, last2, err)
		}
	})
}
