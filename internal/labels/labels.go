// Package labels implements finite and co-finite label sets over the
// document alphabet Σ. Automaton transitions guard on sets like {a} or
// Σ\{a} (see Example 2.1 of the paper); representing the complement
// symbolically keeps transitions independent of the concrete alphabet and
// makes "essential label" computations (§3.1.1) exact: a set is jumpable
// only when its positive enumeration is finite.
package labels

import (
	"slices"
	"strconv"
	"strings"

	"repro/internal/tree"
)

// Set is an immutable set of labels: either a finite set {ids...} or a
// co-finite set Σ\{ids...}. The zero value is the empty set.
type Set struct {
	neg bool
	ids []tree.LabelID // sorted, unique
}

// None is the empty set.
var None = Set{}

// Any is the full alphabet Σ.
var Any = Set{neg: true}

// Of builds the finite set of the given labels.
func Of(ids ...tree.LabelID) Set {
	return Set{ids: normalize(ids)}
}

// Not builds the co-finite set Σ minus the given labels.
func Not(ids ...tree.LabelID) Set {
	return Set{neg: true, ids: normalize(ids)}
}

// normalize returns ids sorted and unique, in a slice of its own (nil
// for none).
func normalize(ids []tree.LabelID) []tree.LabelID {
	return slices.Compact(slices.Sorted(slices.Values(ids)))
}

// Contains reports whether l is in the set.
func (s Set) Contains(l tree.LabelID) bool {
	_, found := slices.BinarySearch(s.ids, l)
	return found != s.neg
}

// IsEmpty reports whether the set is the empty set. A co-finite set is
// never considered empty (the alphabet is unbounded from the set's point
// of view; concrete emptiness against a document alphabet is the caller's
// concern).
func (s Set) IsEmpty() bool { return !s.neg && len(s.ids) == 0 }

// IsAny reports whether the set is all of Σ.
func (s Set) IsAny() bool { return s.neg && len(s.ids) == 0 }

// SizeBytes estimates the heap footprint of the set (value header plus
// backing label slice); byte-weighted caches of automata that embed
// sets sum it into their entry weights.
func (s Set) SizeBytes() int64 { return 32 + 4*int64(len(s.ids)) }

// Finite reports whether the set is finite, and if so returns its
// elements in sorted order. Jumping functions require finite sets.
func (s Set) Finite() ([]tree.LabelID, bool) {
	if s.neg {
		return nil, false
	}
	return s.ids, true
}

// Negated reports whether the set is represented as a complement, and
// returns the excluded labels.
func (s Set) Negated() ([]tree.LabelID, bool) {
	if !s.neg {
		return nil, false
	}
	return s.ids, true
}

// Complement returns Σ \ s.
func (s Set) Complement() Set {
	return Set{neg: !s.neg, ids: s.ids}
}

// Union returns s ∪ t. With ∅ or Σ on either side the answer is one of
// the operands, shared rather than copied.
func (s Set) Union(t Set) Set {
	switch {
	case s.IsEmpty() || t.IsAny():
		return t
	case t.IsEmpty() || s.IsAny():
		return s
	case !s.neg && !t.neg:
		return Set{ids: mergeUnion(s.ids, t.ids)}
	case s.neg && t.neg:
		return Set{neg: true, ids: mergeIntersect(s.ids, t.ids)}
	case s.neg: // (Σ\A) ∪ B = Σ \ (A\B)
		return Set{neg: true, ids: mergeMinus(s.ids, t.ids)}
	default:
		return Set{neg: true, ids: mergeMinus(t.ids, s.ids)}
	}
}

// Intersect returns s ∩ t, sharing an operand as Union does.
func (s Set) Intersect(t Set) Set {
	switch {
	case s.IsAny() || t.IsEmpty():
		return t
	case t.IsAny() || s.IsEmpty():
		return s
	case !s.neg && !t.neg:
		return Set{ids: mergeIntersect(s.ids, t.ids)}
	case s.neg && t.neg:
		return Set{neg: true, ids: mergeUnion(s.ids, t.ids)}
	case s.neg: // (Σ\A) ∩ B = B \ A
		return Set{ids: mergeMinus(t.ids, s.ids)}
	default:
		return Set{ids: mergeMinus(s.ids, t.ids)}
	}
}

// Minus returns s \ t.
func (s Set) Minus(t Set) Set { return s.Intersect(t.Complement()) }

// Equal reports set equality (as symbolic sets; a finite set never equals
// a co-finite one).
func (s Set) Equal(t Set) bool {
	return s.neg == t.neg && slices.Equal(s.ids, t.ids)
}

// Overlaps reports whether s ∩ t is non-empty as a symbolic set (two
// co-finite sets always overlap).
func (s Set) Overlaps(t Set) bool {
	x := s.Intersect(t)
	return x.neg || len(x.ids) > 0
}

// String renders the set against a label table; nil table prints ids.
func (s Set) String(lt *tree.LabelTable) string {
	var sb strings.Builder
	if s.neg {
		if len(s.ids) == 0 {
			return "Σ"
		}
		sb.WriteString("Σ\\")
	}
	sb.WriteByte('{')
	for i, id := range s.ids {
		if i > 0 {
			sb.WriteByte(',')
		}
		if lt != nil {
			sb.WriteString(lt.Name(id))
		} else {
			sb.WriteString(strconv.Itoa(int(id)))
		}
	}
	sb.WriteByte('}')
	return sb.String()
}

func mergeUnion(a, b []tree.LabelID) []tree.LabelID {
	out := make([]tree.LabelID, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			out = append(out, a[i])
			i++
		case a[i] > b[j]:
			out = append(out, b[j])
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	return out
}

func mergeIntersect(a, b []tree.LabelID) []tree.LabelID {
	var out []tree.LabelID
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	return out
}

func mergeMinus(a, b []tree.LabelID) []tree.LabelID {
	var out []tree.LabelID
	i, j := 0, 0
	for i < len(a) {
		switch {
		case j >= len(b) || a[i] < b[j]:
			out = append(out, a[i])
			i++
		case a[i] > b[j]:
			j++
		default:
			i++
			j++
		}
	}
	return out
}
