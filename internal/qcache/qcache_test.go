package qcache

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

// put publishes v under key the one way a value enters the cache: a
// compile that returns it.
func put(c *Cache, key string, v any) {
	c.GetOrCompile(key, func() (any, error) { return v, nil })
}

func TestLRUEviction(t *testing.T) {
	c := New(2)
	put(c, "a", 1)
	put(c, "b", 2)
	if _, ok := c.Get("a"); !ok { // touch a: b becomes LRU
		t.Fatal("a missing")
	}
	put(c, "c", 3)
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
	if c.Stats().Size != 0 {
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
// pushed off the LRU tail, or beaten to publication by a concurrent
// compile — and never while it is still resident.
func TestEvicteeToldOnEveryDeparture(t *testing.T) {
	c := New(2)
	tail, lost, a, b := &parked{size: 10}, &parked{size: 10}, &parked{size: 10}, &parked{size: 10}
	put(c, "tail", tail)
	put(c, "a", a)
	c.GetOrCompile("b", func() (any, error) {
		put(c, "b", b) // a concurrent compile publishes first; "tail" falls off
		return lost, nil
	})
	for name, p := range map[string]*parked{"tail": tail, "lost": lost} {
		if p.evicted != 1 {
			t.Errorf("%s: Evicted called %d times, want 1", name, p.evicted)
		}
	}
	for name, p := range map[string]*parked{"a": a, "b": b} {
		if p.evicted != 0 {
			t.Errorf("resident value %s was told it is gone (%d calls)", name, p.evicted)
		}
	}
	if got := c.Stats().SizeBytes; got != 20 {
		t.Errorf("SizeBytes = %d, want 20 (the two resident values)", got)
	}
}

// caller is an Evictee that calls back into its cache as it leaves.
type caller struct {
	c     *Cache
	sizes []int // what Stats said, one entry a call of Evicted
}

func (v *caller) Evicted() { v.sizes = append(v.sizes, v.c.Stats().Size) }

// TestEvicteeMayCallBack: Evicted runs after the cache's lock is
// released, so a value may call back into the cache as it leaves —
// pushed off the LRU tail, or beaten to publication by a concurrent
// compile — and sees the cache as it is once the value is gone.
// Holding the lock across Evicted deadlocks here, which the timeout
// turns into a failure.
func TestEvicteeMayCallBack(t *testing.T) {
	c := New(1)
	v := func() *caller { return &caller{c: c} }
	tail, compiled, lost := v(), v(), v()
	done := make(chan struct{})
	go func() {
		defer close(done)
		put(c, "a", tail)
		put(c, "c", compiled) // capacity 1: "a" falls off
		c.GetOrCompile("d", func() (any, error) {
			put(c, "d", v()) // a concurrent compile publishes first; "c" falls off
			return lost, nil
		})
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("an Evictee calling back into the cache deadlocked: Evicted runs under the cache's lock")
	}
	for name, x := range map[string]*caller{"tail": tail, "compiled": compiled, "lost": lost} {
		if len(x.sizes) != 1 {
			t.Errorf("%s: Evicted called %d times, want 1", name, len(x.sizes))
		} else if x.sizes[0] != 1 {
			t.Errorf("%s saw Size = %d, want 1 (the value that displaced it)", name, x.sizes[0])
		}
	}
	if got := c.Stats().Size; got != 1 {
		t.Errorf("Size = %d, want 1", got)
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
		put(c, fmt.Sprintf("k%d", i), sized(1<<20))
		if want := min(i+1, 4); c.Stats().Size != want {
			t.Fatalf("after %d puts: Size = %d, want %d", i+1, c.Stats().Size, want)
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
	put(c, "a", sized(30))
	put(c, "b", sized(30))
	put(c, "huge", sized(1<<30))
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

// TestByteAccountingOnEvictionAndLostRace: eviction gives the entry's
// bytes back, and a duplicate that lost the race to publish is never
// counted.
func TestByteAccountingOnEvictionAndLostRace(t *testing.T) {
	c := New(2)
	put(c, "k", sized(100))
	put(c, "other", sized(50))
	if got := c.Stats().SizeBytes; got != 150 {
		t.Fatalf("SizeBytes = %d, want 150", got)
	}
	c.GetOrCompile("late", func() (any, error) {
		put(c, "late", sized(40)) // publishes first; "k" falls off
		return sized(1000), nil
	})
	if got := c.Stats().SizeBytes; got != 90 {
		t.Fatalf("after eviction and a lost race SizeBytes = %d, want 90", got)
	}
}

// TestDefaultWeightForOpaqueValues: values without Sizer cost
// DefaultEntryBytes in the resident-byte count.
func TestDefaultWeightForOpaqueValues(t *testing.T) {
	c := New(100)
	for i := 0; i < 12; i++ {
		put(c, fmt.Sprintf("k%d", i), i)
	}
	if st := c.Stats(); st.Size != 12 || st.SizeBytes != 12*DefaultEntryBytes {
		t.Errorf("size = %d, bytes = %d, want 12 and %d", st.Size, st.SizeBytes, 12*DefaultEntryBytes)
	}
}
