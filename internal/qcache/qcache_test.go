package qcache

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

func TestLRUEviction(t *testing.T) {
	c := New(2)
	c.Put("a", 1)
	c.Put("b", 2)
	if _, ok := c.Get("a"); !ok { // touch a: b becomes LRU
		t.Fatal("a missing")
	}
	c.Put("c", 3)
	if _, ok := c.Get("b"); ok {
		t.Error("b should have been evicted")
	}
	if _, ok := c.Get("a"); !ok {
		t.Error("a should have survived")
	}
	if _, ok := c.Get("c"); !ok {
		t.Error("c should be present")
	}
	st := c.Stats()
	if st.Evictions != 1 {
		t.Errorf("evictions = %d, want 1", st.Evictions)
	}
	if st.Size != 2 || st.Capacity != 2 {
		t.Errorf("size/capacity = %d/%d, want 2/2", st.Size, st.Capacity)
	}
}

func TestGetOrCompileCachesAndCounts(t *testing.T) {
	c := New(8)
	compiles := 0
	f := func() (any, error) { compiles++; return "v", nil }
	v, hit, err := c.GetOrCompile("k", f)
	if err != nil || v != "v" || hit {
		t.Fatalf("first call: v=%v hit=%v err=%v", v, hit, err)
	}
	v, hit, err = c.GetOrCompile("k", f)
	if err != nil || v != "v" || !hit {
		t.Fatalf("second call: v=%v hit=%v err=%v", v, hit, err)
	}
	if compiles != 1 {
		t.Errorf("compiles = %d, want 1", compiles)
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 {
		t.Errorf("hits/misses = %d/%d, want 1/1", st.Hits, st.Misses)
	}
}

func TestGetOrCompileErrorNotCached(t *testing.T) {
	c := New(8)
	boom := errors.New("boom")
	if _, _, err := c.GetOrCompile("k", func() (any, error) { return nil, boom }); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if c.Len() != 0 {
		t.Error("failed compile must not be cached")
	}
	if v, _, err := c.GetOrCompile("k", func() (any, error) { return 7, nil }); err != nil || v != 7 {
		t.Fatalf("retry after error: v=%v err=%v", v, err)
	}
}

// TestConcurrentCompilesShareOneValue: concurrent misses of one key
// compile without waiting on each other, and every caller gets the one
// value published first; each duplicate is dropped through Evicted and
// never enters the cache.
func TestConcurrentCompilesShareOneValue(t *testing.T) {
	c := New(8)
	const workers = 32
	vals := make([]*parked, workers)
	got := make([]any, workers)
	gate := make(chan struct{})
	var wg sync.WaitGroup
	for i := range vals {
		vals[i] = &parked{size: 10}
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-gate
			v, _, err := c.GetOrCompile("k", func() (any, error) { return vals[i], nil })
			if err != nil {
				t.Error(err)
			}
			got[i] = v
		}()
	}
	close(gate)
	wg.Wait()
	published, ok := c.Get("k")
	if !ok {
		t.Fatal("nothing published")
	}
	dropped := 0
	for i, v := range got {
		if v != published {
			t.Errorf("caller %d got %p, want the published value %p", i, v, published)
		}
		if vals[i] != published {
			dropped += vals[i].evicted
		} else if vals[i].evicted != 0 {
			t.Error("the published value was told it is gone")
		}
	}
	if st := c.Stats(); dropped != int(st.Misses)-1 || st.Size != 1 || st.SizeBytes != 10 {
		t.Errorf("%d duplicates dropped, stats %+v: want misses-1 dropped and one resident entry", dropped, st)
	}
}

// TestGetOrCompilePanicReleasesKey: a panicking compile reaches its
// caller and holds nothing, so the next call of the key compiles.
func TestGetOrCompilePanicReleasesKey(t *testing.T) {
	c := New(8)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("panic must propagate to the compiling caller")
			}
		}()
		c.GetOrCompile("k", func() (any, error) { panic("compile exploded") })
	}()
	v, _, err := c.GetOrCompile("k", func() (any, error) { return "ok", nil })
	if err != nil || v != "ok" {
		t.Errorf("after panic: v=%v err=%v", v, err)
	}
}

// TestCompilePanicLeavesOthersCompiling: a caller that misses while
// another caller's compile of the key is running (and about to panic)
// does not wait for it: it compiles and publishes its own value.
func TestCompilePanicLeavesOthersCompiling(t *testing.T) {
	c := New(8)
	started := make(chan struct{})
	release := make(chan struct{})
	panicked := make(chan any, 1)
	go func() {
		defer func() { panicked <- recover() }()
		c.GetOrCompile("k", func() (any, error) {
			close(started)
			<-release
			panic("boom")
		})
	}()
	<-started
	v, hit, err := c.GetOrCompile("k", func() (any, error) { return "mine", nil })
	if err != nil || hit || v != "mine" {
		t.Fatalf("concurrent caller: v=%v hit=%v err=%v, want its own value", v, hit, err)
	}
	close(release)
	if <-panicked == nil {
		t.Error("the panicking compile's caller did not see its panic")
	}
	if v, ok := c.Get("k"); !ok || v != "mine" {
		t.Errorf("cached %v, want the concurrent caller's value", v)
	}
}

// parked is a test value that counts its Evicted calls.
type parked struct {
	size    int64
	evicted int
}

func (p *parked) SizeBytes() int64 { return p.size }
func (p *parked) Evicted()         { p.evicted++ }

// TestEvicteeToldOnEveryDeparture: a value that implements Evictee
// hears exactly once that it left the cache, whichever way it left —
// pushed off the LRU tail, removed, or replaced under its key — and
// never while it is still resident.
func TestEvicteeToldOnEveryDeparture(t *testing.T) {
	c := New(2)
	tail, removed, replaced, kept := &parked{size: 10}, &parked{size: 10}, &parked{size: 10}, &parked{size: 10}
	c.Put("tail", tail)
	c.Put("removed", removed)
	c.Put("replaced", replaced) // capacity 2: "tail" falls off
	c.Remove("removed")
	c.Put("replaced", kept)
	for name, p := range map[string]*parked{"tail": tail, "removed": removed, "replaced": replaced} {
		if p.evicted != 1 {
			t.Errorf("%s: Evicted called %d times, want 1", name, p.evicted)
		}
	}
	if kept.evicted != 0 {
		t.Errorf("resident value was told it is gone (%d calls)", kept.evicted)
	}
	if got := c.Stats().SizeBytes; got != 10 {
		t.Errorf("SizeBytes = %d, want 10 (the one resident value)", got)
	}
}

// caller is an Evictee that calls back into its cache as it leaves.
type caller struct {
	c    *Cache
	lens []int // what Len said, one entry a call of Evicted
}

func (v *caller) Evicted() { v.lens = append(v.lens, v.c.Len()) }

// TestEvicteeMayCallBack: Evicted runs after the cache's lock is
// released, so a value may call back into the cache as it leaves —
// pushed off the LRU tail by Put or by GetOrCompile, replaced, removed,
// or beaten to publication by a concurrent compile — and sees the cache
// as it is once the value is gone. Holding the lock across Evicted
// deadlocks here, which the timeout turns into a failure.
func TestEvicteeMayCallBack(t *testing.T) {
	c := New(1)
	v := func() *caller { return &caller{c: c} }
	tail, replaced, removed, compiled, lost := v(), v(), v(), v(), v()
	done := make(chan struct{})
	go func() {
		defer close(done)
		c.Put("a", tail)
		c.Put("b", replaced) // capacity 1: "a" falls off
		c.Put("b", removed)
		c.Remove("b")
		c.GetOrCompile("c", func() (any, error) { return compiled, nil })
		c.GetOrCompile("d", func() (any, error) {
			c.Put("d", v()) // a concurrent compile publishes first; "c" falls off
			return lost, nil
		})
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("an Evictee calling back into the cache deadlocked: Evicted runs under the cache's lock")
	}
	for name, x := range map[string]*caller{"tail": tail, "replaced": replaced, "removed": removed, "compiled": compiled, "lost": lost} {
		if len(x.lens) != 1 {
			t.Errorf("%s: Evicted called %d times, want 1", name, len(x.lens))
		}
	}
	if got := removed.lens; len(got) == 1 && got[0] != 0 {
		t.Errorf("removed value saw Len = %d, want 0 (nothing left)", got[0])
	}
	if c.Len() != 1 {
		t.Errorf("Len = %d, want 1", c.Len())
	}
}

// sized is a test value with an explicit Sizer weight.
type sized int64

func (s sized) SizeBytes() int64 { return int64(s) }

// TestNilBudgetIsUnbounded: the cache has no byte budget, so weight
// never evicts: heavy entries are all admitted up to the capacity, and
// past it the entry bound alone pushes out the LRU tail.
func TestNilBudgetIsUnbounded(t *testing.T) {
	c := New(4)
	for i := 0; i < 10; i++ {
		c.Put(fmt.Sprintf("k%d", i), sized(1<<20))
		if want := min(i+1, 4); c.Len() != want {
			t.Fatalf("after %d puts: Len = %d, want %d", i+1, c.Len(), want)
		}
	}
	if st := c.Stats(); st.Evictions != 6 || st.SizeBytes != 4<<20 {
		t.Errorf("stats = %+v, want 6 evictions and 4 MiB resident", st)
	}
}

// TestOversizeEntryAdmitted: an entry of any weight is admitted, and
// the entry bound evicts the LRU tail whatever it weighs.
func TestOversizeEntryAdmitted(t *testing.T) {
	c := New(2)
	c.Put("a", sized(30))
	c.Put("b", sized(30))
	c.Put("huge", sized(1<<30))
	if _, ok := c.Get("huge"); !ok {
		t.Error("oversize entry must be admitted")
	}
	if _, ok := c.Get("a"); ok {
		t.Error("a was LRU and should have been evicted by the entry bound")
	}
	if st := c.Stats(); st.Size != 2 || st.SizeBytes != 30+1<<30 {
		t.Errorf("stats = %+v, want 2 entries and %d bytes", st, 30+1<<30)
	}
}

// TestByteAccountingOnReplaceAndRemove: replacement adjusts the resident
// weight by the delta; Remove gives the entry's bytes back.
func TestByteAccountingOnReplaceAndRemove(t *testing.T) {
	c := New(100)
	c.Put("k", sized(100))
	c.Put("k", sized(40)) // replace shrinks
	c.Put("other", sized(50))
	if got := c.Stats().SizeBytes; got != 90 {
		t.Fatalf("after replace SizeBytes = %d, want 90", got)
	}
	c.Remove("k")
	if got := c.Stats().SizeBytes; got != 50 {
		t.Fatalf("after Remove SizeBytes = %d, want 50", got)
	}
}

// TestDefaultWeightForOpaqueValues: values without Sizer cost
// DefaultEntryBytes in the resident-byte count.
func TestDefaultWeightForOpaqueValues(t *testing.T) {
	c := New(100)
	for i := 0; i < 12; i++ {
		c.Put(fmt.Sprintf("k%d", i), i)
	}
	if st := c.Stats(); st.Size != 12 || st.SizeBytes != 12*DefaultEntryBytes {
		t.Errorf("size = %d, bytes = %d, want 12 and %d", st.Size, st.SizeBytes, 12*DefaultEntryBytes)
	}
}
