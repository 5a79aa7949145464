package qcache

import "testing"

// weighted is a test value with an explicit byte size.
type weighted struct{ n int64 }

func (w weighted) SizeBytes() int64 { return w.n }

// TestBudgetSharedAcrossCaches: two caches drawing on one budget — the
// inserting cache evicts its own tail once the summed resident bytes
// exceed the global bound, and the idle cache keeps its entries.
func TestBudgetSharedAcrossCaches(t *testing.T) {
	b := NewBudget(1000)
	idle := NewShared(100, 0, b)
	hot := NewShared(100, 0, b)

	idle.Put("idle-1", weighted{400})
	if got := b.Used(); got != 400 {
		t.Fatalf("budget used = %d, want 400", got)
	}
	hot.Put("hot-1", weighted{300})
	hot.Put("hot-2", weighted{300}) // total 1000: at the bound, nothing evicts
	if idle.Len() != 1 || hot.Len() != 2 || b.Used() != 1000 {
		t.Fatalf("at-bound state: idle=%d hot=%d used=%d", idle.Len(), hot.Len(), b.Used())
	}
	hot.Put("hot-3", weighted{300}) // over: hot evicts its own LRU tail (hot-1)
	if _, ok := hot.Get("hot-1"); ok {
		t.Error("hot-1 should have been evicted by the inserting cache")
	}
	if _, ok := hot.Get("hot-3"); !ok {
		t.Error("the just-inserted entry must never be the eviction victim")
	}
	if idle.Len() != 1 {
		t.Error("the idle cache must keep its working set; only the inserter pays")
	}
	if b.Over() {
		t.Errorf("budget still over after eviction: used=%d", b.Used())
	}
}

// TestBudgetReleasedOnRemove: Remove returns the entry's bytes to the
// shared budget.
func TestBudgetReleasedOnRemove(t *testing.T) {
	b := NewBudget(10_000)
	c := NewShared(100, 0, b)
	c.Put("doc\x00q1", weighted{100})
	c.Put("doc\x00q2", weighted{200})
	c.Put("other\x00q1", weighted{50})
	if got := b.Used(); got != 350 {
		t.Fatalf("used = %d, want 350", got)
	}
	if !c.Remove("doc\x00q1") {
		t.Fatal("remove failed")
	}
	if got := b.Used(); got != 250 {
		t.Errorf("used after Remove = %d, want 250", got)
	}
	if !c.Remove("doc\x00q2") {
		t.Fatal("remove failed")
	}
	if got := b.Used(); got != 50 {
		t.Errorf("used after the second Remove = %d, want 50", got)
	}
}

// TestBudgetReplaceChargesDelta: replacing a key adjusts the budget by
// the size delta, not the sum.
func TestBudgetReplaceChargesDelta(t *testing.T) {
	b := NewBudget(10_000)
	c := NewShared(100, 0, b)
	c.Put("k", weighted{100})
	c.Put("k", weighted{700})
	if got := b.Used(); got != 700 {
		t.Errorf("used after replace = %d, want 700", got)
	}
}

// TestNilBudgetIsUnbounded: a nil budget (NewBudget(0)) must be inert —
// the NewSized path and every method tolerate it.
func TestNilBudgetIsUnbounded(t *testing.T) {
	if b := NewBudget(0); b != nil {
		t.Fatal("NewBudget(0) must be nil (no bound)")
	}
	var b *Budget
	if b.Over() || b.Used() != 0 || b.Max() != 0 {
		t.Error("nil budget must read as empty and never over")
	}
	c := NewShared(4, 0, nil)
	for i := 0; i < 10; i++ {
		c.Put(string(rune('a'+i)), weighted{1 << 20})
	}
	if c.Len() != 4 {
		t.Errorf("entry bound must still hold without a budget: len=%d", c.Len())
	}
}

// TestBudgetOversizeEntryNotCached: one entry larger than the whole
// shared budget is not admitted at all — caching it would leave the
// budget permanently over, and every other participating cache would
// wipe its working set on each insertion trying to fit a total that
// can never fit. Existing residents stay; replacing a resident key
// with an oversize value drops the key.
func TestBudgetOversizeEntryNotCached(t *testing.T) {
	b := NewBudget(500)
	c := NewShared(100, 0, b)
	other := NewShared(100, 0, b)
	other.Put("warm", weighted{200})
	c.Put("small", weighted{100})
	c.Put("huge", weighted{5000})
	if _, ok := c.Get("huge"); ok {
		t.Error("entry above the whole shared budget must not be cached")
	}
	if _, ok := c.Get("small"); !ok {
		t.Error("rejecting the oversize entry must not evict residents")
	}
	if got := b.Used(); got != 300 {
		t.Errorf("used = %d, want 300", got)
	}
	// Replacing a resident key with an oversize value drops the key and
	// returns its bytes.
	c.Put("small", weighted{9000})
	if _, ok := c.Get("small"); ok {
		t.Error("oversize replacement must drop the key")
	}
	if got := b.Used(); got != 200 {
		t.Errorf("used after oversize replace = %d, want 200", got)
	}
	// The sibling cache's working set survived throughout.
	if _, ok := other.Get("warm"); !ok {
		t.Error("sibling cache lost its resident to an uncacheable entry")
	}
	// Without a shared budget, a per-cache byte bound still admits an
	// oversize entry alone rather than thrash (unchanged behavior).
	solo := NewSized(100, 500)
	solo.Put("huge", weighted{5000})
	if _, ok := solo.Get("huge"); !ok {
		t.Error("per-cache byte bound must still admit an oversize entry alone")
	}
}
