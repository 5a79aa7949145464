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
// client never would (negative nodes, alien versions).
func rawToken(version, shard, doc, gen, last string) string {
	raw := strings.Join([]string{version, shard, doc, gen, last}, "\x00")
	return base64.RawURLEncoding.EncodeToString([]byte(raw))
}

// TestCursorTokenMatrix pins the full malformed-and-stale token
// contract of the paged API: every way a token can be syntactically
// broken — not base64, truncated, wrong version, wrong field count,
// negative or overflowing node id — is a client error (400, "bad
// cursor"), while the two legitimate expiry conditions — the document
// relocated to another shard, or reloaded under a new generation — are
// 410 Gone. The split matters to clients: a 400 token was never valid
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
	cshard, cdoc, cgen, clast, err := decodeCursor(first.Next)
	if err != nil {
		t.Fatalf("decoding our own token: %v", err)
	}
	shardS := strconv.Itoa(cshard)
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
		{"missing-fields", base64.RawURLEncoding.EncodeToString([]byte("c2\x000\x00xm")), 400},
		{"wrong-version", rawToken("c1", shardS, cdoc, genS, lastS), 400},
		{"negative-node", rawToken("c2", shardS, cdoc, genS, "-5"), 400},
		{"node-overflow", rawToken("c2", shardS, cdoc, genS, "2147483648"), 400},
		{"node-not-numeric", rawToken("c2", shardS, cdoc, genS, "abc"), 400},
		{"negative-shard", rawToken("c2", "-1", cdoc, genS, lastS), 400},
		{"relocated-shard", rawToken("c2", strconv.Itoa(cshard+1), cdoc, genS, lastS), 410},
		{"stale-generation", rawToken("c2", shardS, cdoc, (cgen + 1).String(), lastS), 410},
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
	sh, dc, gn, _, err := decodeCursor(p2.Next)
	if err != nil {
		t.Fatal(err)
	}
	beyond := rawToken("c2", strconv.Itoa(sh), dc, gn.String(), "2147483647")
	maxed := svc.Eval(Request{Doc: "xm", Query: "/site//item", Limit: 3, Cursor: beyond})
	if maxed.Err != "" || len(maxed.Nodes) != 0 {
		t.Fatalf("in-range beyond-answer token: err=%q nodes=%d, want empty page", maxed.Err, len(maxed.Nodes))
	}
}

// TestNodeIDRoundTrip pins that every legal node id survives the token
// round trip unchanged, including the extremes of the NodeID domain.
func TestNodeIDRoundTrip(t *testing.T) {
	for _, last := range []tree.NodeID{0, 1, 1 << 20, 2147483647} {
		tok := encodeCursor(3, "doc-α", 42, last)
		sh, doc, gen, got, err := decodeCursor(tok)
		if err != nil {
			t.Fatalf("last=%d: %v", last, err)
		}
		if sh != 3 || doc != "doc-α" || gen != 42 || got != last {
			t.Fatalf("round trip (3,doc-α,42,%d) -> (%d,%s,%d,%d)", last, sh, doc, gen, got)
		}
	}
}

// FuzzDecodeCursor: a continuation token is client-controlled text.
// Whatever it holds, decoding returns an error or a value — never a
// panic — and a value that decodes is one encodeCursor can carry: its
// re-encoding decodes to the same (shard, doc, gen, last), with last
// inside a NodeID's domain.
func FuzzDecodeCursor(f *testing.F) {
	f.Add(encodeCursor(3, "xm", 7, 41))
	f.Add(rawToken(cursorVersion, "0", "xm", "1", "2147483647"))
	f.Add(rawToken(cursorVersion, "0", "xm", "1", "-1"))
	f.Add(rawToken(cursorVersion, "0", "xm", "1", "2147483648"))
	f.Add(rawToken(cursorVersion, "0", "x\x00m", "1", "5"))
	f.Add("%%%")
	f.Add("")
	f.Fuzz(func(t *testing.T, tok string) {
		sh, doc, gen, last, err := decodeCursor(tok)
		if err != nil {
			return
		}
		if sh < 0 || last < 0 || strings.ContainsRune(doc, 0) {
			t.Fatalf("decoded (%d, %q, %d, %d) from %q: outside what a token can name", sh, doc, gen, last, tok)
		}
		sh2, doc2, gen2, last2, err := decodeCursor(encodeCursor(sh, doc, gen, last))
		if err != nil || sh2 != sh || doc2 != doc || gen2 != gen || last2 != last {
			t.Fatalf("(%d, %q, %d, %d) re-encoded decodes to (%d, %q, %d, %d), err %v",
				sh, doc, gen, last, sh2, doc2, gen2, last2, err)
		}
	})
}
