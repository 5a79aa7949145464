package labels

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/tree"
)

// evalAgainstUniverse materializes a symbolic set against a concrete
// alphabet [0, sigma) for oracle comparisons.
func materialize(s Set, sigma int) map[tree.LabelID]bool {
	m := make(map[tree.LabelID]bool)
	for l := tree.LabelID(0); int(l) < sigma; l++ {
		if s.Contains(l) {
			m[l] = true
		}
	}
	return m
}

func randomSet(rng *rand.Rand, sigma int) Set {
	n := rng.Intn(4)
	ids := make([]tree.LabelID, n)
	for i := range ids {
		ids[i] = tree.LabelID(rng.Intn(sigma))
	}
	if rng.Intn(2) == 0 {
		return Of(ids...)
	}
	return Not(ids...)
}

func TestBasics(t *testing.T) {
	s := Of(3, 1, 3, 2)
	if !s.Contains(1) || !s.Contains(2) || !s.Contains(3) || s.Contains(0) {
		t.Errorf("membership wrong: %v", s)
	}
	ids, ok := s.Finite()
	if !ok || len(ids) != 3 || ids[0] != 1 || ids[2] != 3 {
		t.Errorf("Finite() = %v, %v (dedup/sort failed)", ids, ok)
	}
	if None.Contains(0) || !None.IsEmpty() {
		t.Errorf("None misbehaves")
	}
	if !Any.Contains(42) || !Any.IsAny() {
		t.Errorf("Any misbehaves")
	}
	n := Not(5)
	if n.Contains(5) || !n.Contains(4) {
		t.Errorf("Not misbehaves")
	}
	if _, ok := n.Finite(); ok {
		t.Errorf("co-finite set claims to be finite")
	}
	if ex, ok := n.Negated(); !ok || len(ex) != 1 || ex[0] != 5 {
		t.Errorf("Negated() wrong")
	}
}

func TestComplementInvolution(t *testing.T) {
	s := Of(1, 2)
	if !s.Complement().Complement().Equal(s) {
		t.Errorf("double complement is not identity")
	}
	if !Any.Complement().Equal(None) {
		t.Errorf("¬Σ != ∅")
	}
}

// Property: all boolean operations agree with a concrete-universe oracle.
func TestAlgebraAgainstOracle(t *testing.T) {
	const sigma = 8
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := randomSet(rng, sigma)
		b := randomSet(rng, sigma)
		ma, mb := materialize(a, sigma), materialize(b, sigma)
		union := materialize(a.Union(b), sigma)
		inter := materialize(a.Intersect(b), sigma)
		minus := materialize(a.Minus(b), sigma)
		comp := materialize(a.Complement(), sigma)
		for l := tree.LabelID(0); int(l) < sigma; l++ {
			if union[l] != (ma[l] || mb[l]) {
				return false
			}
			if inter[l] != (ma[l] && mb[l]) {
				return false
			}
			if minus[l] != (ma[l] && !mb[l]) {
				return false
			}
			if comp[l] != !ma[l] {
				return false
			}
		}
		// Overlaps consistency (within this universe overlapping implies
		// symbolic Overlaps; the converse can differ for co-finite sets
		// excluded entirely by a tiny universe, so only check one way).
		concrete := false
		for l := range inter {
			_ = l
			concrete = true
			break
		}
		if concrete && !a.Overlaps(b) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestEqual(t *testing.T) {
	if !Of(1, 2).Equal(Of(2, 1)) {
		t.Errorf("order-insensitive equality failed")
	}
	if Of(1).Equal(Not(1)) {
		t.Errorf("finite equals co-finite")
	}
	if Of(1).Equal(Of(1, 2)) {
		t.Errorf("different sizes equal")
	}
}

func TestString(t *testing.T) {
	lt := tree.NewLabelTable()
	a := lt.Intern("a")
	b := lt.Intern("b")
	if got := Of(a, b).String(lt); got != "{a,b}" {
		t.Errorf("String = %q", got)
	}
	if got := Not(a).String(lt); got != "Σ\\{a}" {
		t.Errorf("String = %q", got)
	}
	if got := Any.String(nil); got != "Σ" {
		t.Errorf("String = %q", got)
	}
	if got := Of(a).String(nil); got != "{2}" {
		t.Errorf("String(nil) = %q", got)
	}
}

func TestDeMorgan(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := randomSet(rng, 6)
		b := randomSet(rng, 6)
		lhs := a.Union(b).Complement()
		rhs := a.Complement().Intersect(b.Complement())
		return lhs.Equal(rhs)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestUnitOperandsShare: ∪ and ∩ with ∅ or Σ on either side answer
// with an operand, allocating nothing, so a fold that starts from ∅ or
// Σ pays only for the sets it really merges.
func TestUnitOperandsShare(t *testing.T) {
	a, b := Of(1, 2), Not(3)
	var sink Set
	got := testing.AllocsPerRun(10, func() {
		sink = None.Union(a).Union(None).Intersect(Any)
		sink = Any.Intersect(b).Union(None).Intersect(sink.Union(Any))
		sink = sink.Union(a.Intersect(None)).Intersect(Any.Union(b))
	})
	if got != 0 {
		t.Errorf("%.0f allocations, want 0", got)
	}
	if !sink.Equal(b) {
		t.Errorf("got %s, want %s", sink.String(nil), b.String(nil))
	}
}
