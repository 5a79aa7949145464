package store

import (
	"errors"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/tree"
)

func TestLoadXMLAndStats(t *testing.T) {
	s := New()
	h, err := s.LoadXML("d1", []byte("<r><a>hi</a><a/></r>"))
	if err != nil {
		t.Fatal(err)
	}
	if h.Stats.Nodes != h.Doc.NumNodes() || h.Stats.Nodes == 0 {
		t.Errorf("stats nodes = %d, doc nodes = %d", h.Stats.Nodes, h.Doc.NumNodes())
	}
	if h.Stats.Labels != h.Doc.Names().Size() {
		t.Errorf("stats labels = %d, want %d", h.Stats.Labels, h.Doc.Names().Size())
	}
	if h.Stats.MemBytes <= 0 {
		t.Errorf("mem estimate = %d, want > 0", h.Stats.MemBytes)
	}
	if h.Stats.Source != SourceXML {
		t.Errorf("source = %q, want xml", h.Stats.Source)
	}
	if h.Index == nil {
		t.Fatal("index not built")
	}
}

func TestDuplicateIDRejected(t *testing.T) {
	s := New()
	if _, err := s.LoadXML("d", []byte("<r/>")); err != nil {
		t.Fatal(err)
	}
	if _, err := s.LoadXML("d", []byte("<r/>")); err == nil ||
		!strings.Contains(err.Error(), "already loaded") {
		t.Errorf("duplicate id: err = %v, want already-loaded error", err)
	}
	if _, err := s.LoadXML("", []byte("<r/>")); err == nil {
		t.Error("empty id must be rejected")
	}
}

// TestLoadXMLFileTakenIDIsErrExists: the id is checked before the file
// is opened, so loading a resident id answers ErrExists (409 over HTTP)
// even from a path that does not exist.
func TestLoadXMLFileTakenIDIsErrExists(t *testing.T) {
	s := New()
	if _, err := s.LoadXML("d", []byte("<r/>")); err != nil {
		t.Fatal(err)
	}
	missing := filepath.Join(t.TempDir(), "missing.xml")
	if _, err := s.LoadXMLFile("d", missing); !errors.Is(err, ErrExists) {
		t.Fatalf("LoadXMLFile of a resident id from a missing path: err = %v, want ErrExists", err)
	}
	if _, err := s.LoadXMLFile("fresh", missing); err == nil || errors.Is(err, ErrExists) {
		t.Fatalf("LoadXMLFile of a free id from a missing path: err = %v, want the file error", err)
	}
}

func TestEvictAndList(t *testing.T) {
	s := New()
	mustLoad(t, s, "b")
	mustLoad(t, s, "a")
	mustLoad(t, s, "c")
	list := s.List()
	if len(list) != 3 || list[0].ID != "a" || list[1].ID != "b" || list[2].ID != "c" {
		t.Errorf("list not sorted by id: %+v", list)
	}
	if !s.Evict("b") {
		t.Error("evict existing = false")
	}
	if s.Evict("b") {
		t.Error("evict missing = true")
	}
	if s.Len() != 2 {
		t.Errorf("len = %d, want 2", s.Len())
	}
	if _, ok := s.Get("b"); ok {
		t.Error("evicted doc still resident")
	}
	// Evicting frees the slot for reload.
	mustLoad(t, s, "b")
}

func TestGenerateXMark(t *testing.T) {
	s := New()
	h, err := s.GenerateXMark("xm", 0.001, 1)
	if err != nil {
		t.Fatal(err)
	}
	if h.Stats.Source != SourceXMark || h.Stats.Nodes < 100 {
		t.Errorf("xmark doc: source=%q nodes=%d", h.Stats.Source, h.Stats.Nodes)
	}
	if _, err := s.GenerateXMark("bad", 0, 1); err == nil {
		t.Error("scale 0 must be rejected")
	}
}

func mustLoad(t *testing.T, s *Store, id string) *Handle {
	t.Helper()
	h, err := s.LoadXML(id, []byte("<root><x>text</x><y><z/></y></root>"))
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// TestReadersDoNotWaitForWriters pins what keeps readers from waiting
// for a patch: the splice holds no lock that a reader takes. With the
// chain's one lock held, as an Acquire, Release, List or stats walk
// holds it, a patch still gets through its whole splice and waits only
// in publish; released, it publishes the generation after the one it
// spliced.
func TestReadersDoNotWaitForWriters(t *testing.T) {
	s := New()
	h1, err := s.LoadXML("d", []byte("<r><a/><b/></r>"))
	if err != nil {
		t.Fatal(err)
	}
	// A lease keeps the superseded generation readable below.
	if _, err := s.Acquire("d", NoGen); err != nil {
		t.Fatal(err)
	}
	s.Release("d", h1.Gen, time.Now().Add(time.Minute), false)
	ch := s.chainFor("d")
	ch.mu.Lock()
	type result struct {
		h   *Handle
		err error
	}
	patched := make(chan result, 1)
	go func() {
		h, err := s.Patch("d", h1.Gen, tree.Patch{Op: tree.OpDelete, Node: h1.Doc.FirstChild(h1.Doc.DocumentElement()), Before: tree.Nil})
		patched <- result{h, err}
	}()
	for deadline := time.Now().Add(10 * time.Second); !inPublish(); {
		if time.Now().After(deadline) {
			ch.mu.Unlock()
			t.Fatal("with the chain lock held, the patch never reached its publish: the splice waits for a reader's lock")
		}
		time.Sleep(time.Millisecond)
	}
	ch.mu.Unlock()
	r := <-patched
	if r.err != nil {
		t.Fatal(r.err)
	}
	if r.h.Gen != h1.Gen.next() {
		t.Fatalf("patch of generation %s published %s", h1.Gen, r.h.Gen)
	}
	if h, err := s.Acquire("d", h1.Gen); err != nil || h != h1 {
		t.Fatalf("leased generation after patch: %v", err)
	}
}

// inPublish reports whether some goroutine is inside chain.publish.
func inPublish() bool {
	buf := make([]byte, 1<<20)
	return strings.Contains(string(buf[:runtime.Stack(buf, true)]), "store.(*chain).publish(")
}
