package store

import (
	"encoding/json"
	"fmt"
	"reflect"
	"strconv"
)

// Gen is one MVCC generation id within a document's chain. Outside this
// package a Gen is an opaque token: it is obtained from a Handle (or a
// decoded continuation token), compared only for identity, and handed
// back to the chain operations that understand it — Patch,
// Acquire/Release. Ordering and arithmetic are meaningless across loads
// (counters are entropy-seeded per incarnation), and the type holds
// that rule: the counter is an unexported field, so `<`, `+` and
// conversions to and from integers do not compile anywhere but here.
// NoGen (the zero value) means "latest, whatever it is".
//
// On the wire a Gen is a plain JSON number. Both JSON methods keep it
// one: MarshalJSON has a value receiver, because responses are encoded
// by value and a pointer method would then be skipped.
type Gen struct{ n uint64 }

// NoGen is the absent generation: "latest" in lookups, "unconditional"
// as a patch base.
var NoGen = Gen{}

// next is the generation published after g.
func (g Gen) next() Gen { return Gen{g.n + 1} }

// String renders the generation for wire formats (cursor tokens, logs).
// It is the only sanctioned path from a Gen to text.
func (g Gen) String() string { return strconv.FormatUint(g.n, 10) }

// ParseGen is the inverse of String — the only sanctioned path from
// wire text back to a Gen.
func ParseGen(s string) (Gen, error) {
	v, err := strconv.ParseUint(s, 10, 64)
	if err != nil {
		return NoGen, fmt.Errorf("store: bad generation %q: %w", s, err)
	}
	return Gen{v}, nil
}

// MarshalJSON writes the generation as a JSON number.
func (g Gen) MarshalJSON() ([]byte, error) { return strconv.AppendUint(nil, g.n, 10), nil }

// UnmarshalJSON reads a JSON number into the generation. It decodes
// into the counter, so it accepts exactly what a uint64 field accepts
// (null leaves g as it is), and a type error names Gen, as it did when
// Gen was a uint64.
func (g *Gen) UnmarshalJSON(b []byte) error {
	err := json.Unmarshal(b, &g.n)
	if te, ok := err.(*json.UnmarshalTypeError); ok {
		te.Type = reflect.TypeFor[Gen]()
	}
	return err
}
