package store

import (
	"fmt"
	"strconv"
)

// Gen is one MVCC generation id within a document's chain. Outside this
// package a Gen is an opaque token: it is obtained from a Handle (or a
// decoded continuation token), compared only for identity, and handed
// back to the chain operations that understand it — Patch,
// Acquire/Release. Ordering and arithmetic are meaningless across loads (counters are entropy-seeded per incarnation), so the
// xpqlint nakedgen analyzer rejects both, along with conversions to and
// from raw integers, anywhere but here. NoGen (the zero value) means
// "latest, whatever it is".
type Gen uint64

// NoGen is the absent generation: "latest" in lookups, "unconditional"
// as a patch base.
const NoGen Gen = 0

// String renders the generation for wire formats (cursor tokens, logs).
// It is the only sanctioned path from a Gen to text.
func (g Gen) String() string { return strconv.FormatUint(uint64(g), 10) }

// ParseGen is the inverse of String — the only sanctioned path from
// wire text back to a Gen.
func ParseGen(s string) (Gen, error) {
	v, err := strconv.ParseUint(s, 10, 64)
	if err != nil {
		return NoGen, fmt.Errorf("store: bad generation %q: %w", s, err)
	}
	return Gen(v), nil
}
