package store

import (
	"cmp"
	"errors"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/tree"
	"repro/internal/xmlparse"
)

// TestOneLockChainLosesNoUpdate hammers the one-lock chain: writers
// splice with no lock held and publish only onto the generation they
// spliced, so concurrent patches must neither lose an update nor
// publish two children of one generation. On one heap-backed and one
// mapped document, NoGen writers insert unconditionally, explicit-base
// writers insert on the latest they saw, and readers Acquire, Release,
// List and MVCC throughout. Afterwards every applied patch is in the
// latest document, the published generations are distinct and
// consecutive, each generation is the base of exactly one success (a
// lost explicit-base race is ErrConflict, and nothing else), and every
// goroutine has ended.
func TestOneLockChainLosesNoUpdate(t *testing.T) {
	const (
		writers  = 3
		attempts = 25
		readers  = 2
	)
	before := runtime.NumGoroutine()
	frag, err := xmlparse.Parse([]byte("<i><j>t</j></i>"))
	if err != nil {
		t.Fatal(err)
	}
	fragSize := frag.NumNodes() - 1 // the fragment's #doc root is not grafted
	base, err := xmlparse.Parse([]byte("<r><a>x</a><b/></r>"))
	if err != nil {
		t.Fatal(err)
	}
	s := New()
	if _, err := s.Add("heap", base, SourceDirect); err != nil {
		t.Fatal(err)
	}
	if _, err := s.LoadMapped("mapped", saveXQO2(t, base)); err != nil {
		t.Fatal(err)
	}
	insert := tree.Patch{Op: tree.OpInsert, Node: base.DocumentElement(), Before: tree.Nil, Frag: frag}

	for _, id := range []string{"heap", "mapped"} {
		first, _ := s.Get(id)
		var (
			mu        sync.Mutex
			published []*Handle
			bases     = map[Gen]int{} // explicit-base successes per base
			failures  []error
		)
		var wg, rwg sync.WaitGroup
		stop := make(chan struct{})
		for r := 0; r < readers; r++ {
			rwg.Add(1)
			go func() {
				defer rwg.Done()
				for i := 0; ; i++ {
					select {
					case <-stop:
						return
					default:
					}
					h, err := s.Acquire(id, NoGen)
					if err != nil {
						t.Error(err)
						return
					}
					if want := first.Doc.NumNodes() + int(h.Gen.n-first.Gen.n)*fragSize; h.Doc.NumNodes() != want {
						t.Errorf("%s generation %s: %d nodes, want %d", id, h.Gen, h.Doc.NumNodes(), want)
					}
					var lease time.Time
					if i%3 == 0 {
						lease = time.Now().Add(time.Millisecond)
					}
					s.Release(id, h.Gen, lease, i%5 == 0)
					s.List()
					s.MVCC()
				}
			}()
		}
		for w := 0; w < 2*writers; w++ {
			explicit := w%2 == 1
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < attempts; i++ {
					b := NoGen
					if explicit {
						cur, _ := s.Get(id)
						b = cur.Gen
					}
					h, err := s.Patch(id, b, insert)
					mu.Lock()
					switch {
					case err == nil:
						published = append(published, h)
						if explicit {
							bases[b]++
							if h.Gen != b.next() {
								failures = append(failures, errors.New("an explicit-base patch published off its base"))
							}
						}
					case !explicit || !errors.Is(err, ErrConflict):
						failures = append(failures, err)
					}
					mu.Unlock()
				}
			}()
		}
		wg.Wait()
		close(stop)
		rwg.Wait()

		for _, err := range failures {
			t.Errorf("%s: %v", id, err)
		}
		for b, n := range bases {
			if n != 1 {
				t.Errorf("%s: %d explicit-base patches succeeded on generation %s", id, n, b)
			}
		}
		slices.SortFunc(published, func(a, b *Handle) int { return cmp.Compare(a.Gen.n, b.Gen.n) })
		for i, h := range published {
			if want := first.Gen.n + uint64(i) + 1; h.Gen.n != want {
				t.Fatalf("%s: published generation %d is %s, want %d (distinct and consecutive)", id, i, h.Gen, want)
			}
		}
		last, _ := s.Get(id)
		if n := len(published); n < writers*attempts || last != published[n-1] {
			t.Fatalf("%s: %d patches applied (at least the %d NoGen ones), latest is %s", id, n, writers*attempts, last.Gen)
		}
		if want := first.Doc.NumNodes() + len(published)*fragSize; last.Doc.NumNodes() != want {
			t.Errorf("%s: latest has %d nodes, want %d = %d + %d patches × %d", id,
				last.Doc.NumNodes(), want, first.Doc.NumNodes(), len(published), fragSize)
		}
	}

	for deadline := time.Now().Add(10 * time.Second); runtime.NumGoroutine() > before; {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the hammer, %d before", runtime.NumGoroutine(), before)
		}
		time.Sleep(time.Millisecond)
	}
}
