package service

import (
	"encoding/base64"
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"

	"repro/internal/store"
	"repro/internal/tree"
)

// Continuation tokens are opaque to clients but deliberately cheap for
// the server: base64url("c3\0doc\0generation\0lastNode"). The document
// id and generation pin a token to one loaded instance of one document:
// a resume after a patch retired the generation, an evict/reload, or a
// daemon restart decodes fine but fails the generation lookup, because
// generations are clock-seeded per load. That failure maps to HTTP 410,
// which is what keeps paged answers from silently mixing two trees. No
// server-side state is kept per cursor beyond the lease: resuming
// re-evaluates (hitting the compiled-automaton LRU) and seeks past the
// last delivered node — a binary search of the answer, which is one
// sorted slice — so a resumed page costs O(page + log n) on top of the
// cached evaluation rather than a re-walk of every page already served.

const cursorVersion = "c3"

// errEarlierCursor refuses a token of the previous format. It carried a
// shard index, and it can only come from an earlier process, whose
// generations this one does not have: 410 like any stale token.
var errEarlierCursor = errors.New("stale cursor: token issued by an earlier process")

// encodeCursor builds the continuation token for a page of doc ending at
// last.
func encodeCursor(doc string, gen store.Gen, last tree.NodeID) string {
	raw := cursorVersion + "\x00" + doc + "\x00" + gen.String() + "\x00" +
		strconv.FormatInt(int64(last), 10)
	return base64.RawURLEncoding.EncodeToString([]byte(raw))
}

// decodeCursor parses a continuation token.
func decodeCursor(tok string) (doc string, gen store.Gen, last tree.NodeID, err error) {
	raw, derr := base64.RawURLEncoding.DecodeString(tok)
	if derr != nil {
		return "", store.NoGen, 0, fmt.Errorf("bad cursor: %v", derr)
	}
	parts := strings.Split(string(raw), "\x00")
	if len(parts) == 5 && parts[0] == "c2" {
		return "", store.NoGen, 0, errEarlierCursor
	}
	if len(parts) != 4 || parts[0] != cursorVersion {
		return "", store.NoGen, 0, fmt.Errorf("bad cursor: malformed token")
	}
	gen, gerr := store.ParseGen(parts[2])
	if gerr != nil {
		return "", store.NoGen, 0, fmt.Errorf("bad cursor: malformed generation")
	}
	// The last-node field is validated explicitly rather than trusting
	// the ParseInt bit size: a negative id is not out-of-range for a
	// 32-bit parse (it used to be accepted and silently seek nowhere),
	// and an overflowing one used to surface a strconv range error.
	// Every value outside a NodeID's domain [0, MaxInt32] is rejected
	// uniformly as a malformed token (HTTP 400) — only a generation that
	// is gone is a cursor-expiry condition (410).
	n, nerr := strconv.ParseInt(parts[3], 10, 64)
	if nerr != nil || n < 0 || n > math.MaxInt32 {
		return "", store.NoGen, 0, fmt.Errorf("bad cursor: node out of range")
	}
	return parts[1], gen, tree.NodeID(n), nil
}
