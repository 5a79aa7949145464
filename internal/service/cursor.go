package service

import (
	"encoding/base64"
	"fmt"
	"math"
	"strconv"
	"strings"

	"repro/internal/store"
	"repro/internal/tree"
)

// Continuation tokens are opaque to clients but deliberately cheap for
// the server: base64url("c2\0shard\0doc\0generation\0lastNode"). The
// shard index pins the token to the partition that served the page, so
// a resume after the corpus was resharded (daemon restarted with a
// different -shards) and the id relocated fails the shard check; the
// document id and generation pin it to one loaded instance of one
// document — a resume after evict/reload decodes fine but fails the
// generation check. Both failures map to HTTP 410, which is what keeps
// paged answers from silently mixing two trees (or two partitions). No
// server-side state is kept per cursor: resuming re-evaluates (hitting
// the shard's compiled-automaton LRU) and seeks past the last delivered
// node — a binary search of the answer, which is one sorted slice — so
// a resumed page costs O(page + log n) on top of the cached evaluation
// rather than a re-walk of every page already served.

const cursorVersion = "c2"

// encodeCursor builds the continuation token for a page of doc (owned
// by shard) ending at last.
func encodeCursor(shard int, doc string, gen store.Gen, last tree.NodeID) string {
	raw := cursorVersion + "\x00" + strconv.Itoa(shard) + "\x00" + doc + "\x00" +
		gen.String() + "\x00" +
		strconv.FormatInt(int64(last), 10)
	return base64.RawURLEncoding.EncodeToString([]byte(raw))
}

// decodeCursor parses a continuation token.
func decodeCursor(tok string) (shard int, doc string, gen store.Gen, last tree.NodeID, err error) {
	raw, derr := base64.RawURLEncoding.DecodeString(tok)
	if derr != nil {
		return 0, "", 0, 0, fmt.Errorf("bad cursor: %v", derr)
	}
	parts := strings.Split(string(raw), "\x00")
	if len(parts) != 5 || parts[0] != cursorVersion {
		return 0, "", 0, 0, fmt.Errorf("bad cursor: malformed token")
	}
	shard, serr := strconv.Atoi(parts[1])
	if serr != nil || shard < 0 {
		return 0, "", 0, 0, fmt.Errorf("bad cursor: malformed shard")
	}
	gen, gerr := store.ParseGen(parts[3])
	if gerr != nil {
		return 0, "", 0, 0, fmt.Errorf("bad cursor: malformed generation")
	}
	// The last-node field is validated explicitly rather than trusting
	// the ParseInt bit size: a negative id is not out-of-range for a
	// 32-bit parse (it used to be accepted and silently seek nowhere),
	// and an overflowing one used to surface a strconv range error.
	// Every value outside a NodeID's domain [0, MaxInt32] is rejected
	// uniformly as a malformed token (HTTP 400) — only shard relocation
	// and generation staleness are cursor-expiry conditions (410).
	n, nerr := strconv.ParseInt(parts[4], 10, 64)
	if nerr != nil || n < 0 || n > math.MaxInt32 {
		return 0, "", 0, 0, fmt.Errorf("bad cursor: node out of range")
	}
	return shard, parts[2], gen, tree.NodeID(n), nil
}
