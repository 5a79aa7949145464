package store

import (
	"errors"
	"fmt"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/tree"
	"repro/internal/xmlparse"
)

func parsed(t *testing.T, xml string) *tree.Document {
	t.Helper()
	d, err := xmlparse.Parse([]byte(xml))
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestConcurrentLoadSingleFlight is the duplicate-index-build
// regression test: two concurrent loads of the same id must run exactly
// one build (parse + index). The id is reserved before the first build
// runs, so the second load answers ErrExists at once — while the first
// is still building — without ever invoking its own build.
func TestConcurrentLoadSingleFlight(t *testing.T) {
	s := New()
	doc := parsed(t, "<r><a/><b/></r>")
	var builds atomic.Int32
	building := make(chan struct{})
	release := make(chan struct{})
	type result struct {
		h   *Handle
		err error
	}
	first := make(chan result, 1)
	go func() {
		h, err := s.load("d", SourceXML, func() (*tree.Document, error) {
			builds.Add(1)
			close(building)
			<-release
			return doc, nil
		})
		first <- result{h, err}
	}()

	<-building // the id is reserved from here on
	_, err := s.load("d", SourceXML, func() (*tree.Document, error) {
		builds.Add(1)
		return doc, nil
	})
	if !errors.Is(err, ErrExists) {
		t.Fatalf("second load during the build: err = %v, want ErrExists", err)
	}
	if _, ok := s.Get("d"); ok {
		t.Fatal("the id is resident before its build published")
	}
	close(release)
	r := <-first
	if r.err != nil || r.h == nil {
		t.Fatalf("first load: %v", r.err)
	}
	if n := builds.Load(); n != 1 {
		t.Errorf("builds = %d, want 1 (the second load must not parse or index)", n)
	}
	if h, ok := s.Get("d"); !ok || h != r.h {
		t.Error("the first load's handle is not resident")
	}
}

// TestFailedBuildLeavesIDLoadable: a load that fails (e.g. a parse
// error) drops its reservation. A load racing it was told ErrExists,
// and the next load of the id builds and publishes.
func TestFailedBuildLeavesIDLoadable(t *testing.T) {
	s := New()
	doc := parsed(t, "<r/>")
	building := make(chan struct{})
	release := make(chan struct{})
	failed := make(chan error, 1)
	go func() {
		_, err := s.load("d", SourceXML, func() (*tree.Document, error) {
			close(building)
			<-release
			return nil, fmt.Errorf("synthetic parse failure")
		})
		failed <- err
	}()

	<-building
	if _, err := s.load("d", SourceXML, func() (*tree.Document, error) { return doc, nil }); !errors.Is(err, ErrExists) {
		t.Fatalf("load during the failing build: err = %v, want ErrExists", err)
	}
	close(release)
	if err := <-failed; err == nil {
		t.Fatal("the failing load must surface its build error")
	}
	if h, err := s.load("d", SourceXML, func() (*tree.Document, error) { return doc, nil }); err != nil || h == nil {
		t.Fatalf("load after the failed build: %v", err)
	}
	if _, ok := s.Get("d"); !ok {
		t.Error("the document is not resident")
	}
}

// TestSingleFlightBuildPanicReleasesSlot: a panicking build reaches
// its caller and drops the id's reservation, so the next load of the id
// builds and publishes.
func TestSingleFlightBuildPanicReleasesSlot(t *testing.T) {
	s := New()
	doc := parsed(t, "<r/>")
	func() {
		defer func() {
			if recover() == nil {
				t.Error("the build's panic must reach the loader")
			}
		}()
		_, _ = s.load("d", SourceXML, func() (*tree.Document, error) { panic("boom") })
	}()
	h, err := s.load("d", SourceXML, func() (*tree.Document, error) { return doc, nil })
	if err != nil || h == nil {
		t.Fatalf("load after panicked build: %v", err)
	}
}

// TestConcurrentGenerateXMarkSingleFlight hammers the public surface:
// many goroutines generating the same id concurrently must yield
// exactly one resident document and ErrExists everywhere else, with no
// torn state.
func TestConcurrentGenerateXMarkSingleFlight(t *testing.T) {
	s := New()
	const loaders = 8
	var wins, exists atomic.Int32
	var wg sync.WaitGroup
	for i := 0; i < loaders; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := s.GenerateXMark("xm", 0.001, 7)
			switch {
			case err == nil:
				wins.Add(1)
			case errors.Is(err, ErrExists):
				exists.Add(1)
			default:
				t.Errorf("unexpected error: %v", err)
			}
		}()
	}
	wg.Wait()
	if wins.Load() != 1 || exists.Load() != loaders-1 {
		t.Errorf("wins=%d exists=%d, want 1/%d", wins.Load(), exists.Load(), loaders-1)
	}
	if s.Len() != 1 {
		t.Errorf("Len = %d, want 1", s.Len())
	}
}

// TestEvictDuringLoadPublishesOnce: an Evict of an id whose build is
// running finds nothing resident and leaves the load alone, which
// publishes its one build when it ends.
func TestEvictDuringLoadPublishesOnce(t *testing.T) {
	s := New()
	doc := parsed(t, "<r><a/></r>")
	var builds atomic.Int32
	building := make(chan struct{})
	release := make(chan struct{})
	loaded := make(chan error, 1)
	go func() {
		_, err := s.load("d", SourceDirect, func() (*tree.Document, error) {
			builds.Add(1)
			close(building)
			<-release
			return doc, nil
		})
		loaded <- err
	}()

	<-building
	if s.Evict("d") {
		t.Error("Evict reported a document that was still being built")
	}
	close(release)
	if err := <-loaded; err != nil {
		t.Fatalf("load across the evict: %v", err)
	}
	if n := builds.Load(); n != 1 {
		t.Errorf("builds = %d, want 1", n)
	}
	h, ok := s.Get("d")
	if !ok || h.Doc != doc {
		t.Fatal("the load did not publish its build")
	}
}

// TestEvictOfAbsentIDsKeepsNothing: evicting ids that were never loaded
// leaves no trace in the store. 100 000 of them must not grow the live
// heap by a MiB.
func TestEvictOfAbsentIDsKeepsNothing(t *testing.T) {
	s := New()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < 100_000; i++ {
		if s.Evict("absent-" + strconv.Itoa(i)) {
			t.Fatal("evicted a document that was never loaded")
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(s)
	if grew := int64(after.HeapAlloc) - int64(before.HeapAlloc); grew >= 1<<20 {
		t.Errorf("live heap grew %d bytes over 100 000 evictions of absent ids, want < 1 MiB", grew)
	}
}
