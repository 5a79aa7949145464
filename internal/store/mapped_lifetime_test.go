package store_test

import (
	"path/filepath"
	"runtime"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/qcache"
	"repro/internal/store"
	"repro/internal/tree"
	"repro/internal/xmark"
	"repro/internal/xmlparse"
)

// loadMappedHandle opens path in a store of its own and returns only the
// handle: once it returns, nothing but the handle reaches the mapping.
func loadMappedHandle(t *testing.T, path string) *store.Handle {
	t.Helper()
	h, err := store.New().LoadMapped("xm", path)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// TestMappedHandleKeepsItsMapping is the run-time proof of the one
// lifetime rule of a mapped document: its arrays alias the file's pages,
// and the mapping is unmapped by a finalizer once unreachable, so what
// the Handle reaches must keep it reachable for as long as the arrays
// are read (the document holds its mapping, and so does the handle). With
// the store gone and two collections run, the fifteen paper queries
// answer on the mapped document exactly as on the document parsed from
// the same XML; a page unmapped under them would fault.
func TestMappedHandleKeepsItsMapping(t *testing.T) {
	parsed, err := xmlparse.ParseString(xmark.Generate(xmark.Config{Scale: 0.005, Seed: 3}).XMLString())
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "xm.xqo2")
	if err := store.SaveXQO2File(path, parsed); err != nil {
		t.Fatal(err)
	}
	h := loadMappedHandle(t, path)
	runtime.GC()
	runtime.GC()

	mapped := core.NewWithIndex(h.Doc, h.Index, qcache.New(qcache.DefaultCapacity), "")
	ref := core.New(parsed)
	for _, q := range xmark.Queries() {
		want, err := evalAll(ref, q.XPath, core.Optimized)
		if err != nil || len(want) == 0 {
			t.Fatalf("%s on the parsed document: %d nodes, %v", q.ID, len(want), err)
		}
		got, err := evalAll(mapped, q.XPath, core.Optimized)
		if err != nil || !slices.Equal(got, want) {
			t.Errorf("%s on the mapped document: %d nodes (%v), parsed %d", q.ID, len(got), err, len(want))
		}
	}
	runtime.KeepAlive(h)
}

// TestLabelTableOutlivesItsMapping: a mapped document whose names no
// other document has registers its label table, and the table outlives
// the mapping — unmapped here by Close at once, as it would be by the
// finalizer once an evicted document's last reader drops it: its names
// are a copy on the heap, so the table still answers Name, and a
// document parsed later with the same names is given it.
func TestLabelTableOutlivesItsMapping(t *testing.T) {
	const src = "<mapped-lifetime><only-in-this-test a='1'>t</only-in-this-test></mapped-lifetime>"
	path := filepath.Join(t.TempDir(), "names.xqo2")
	want := func() []string {
		built, err := xmlparse.ParseString(src)
		if err != nil {
			t.Fatal(err)
		}
		if err := store.SaveXQO2File(path, built); err != nil {
			t.Fatal(err)
		}
		return built.Names().Names()
	}()
	runtime.GC() // the built document, and with it its table, is gone
	names := func() *tree.LabelTable {
		d, _, _, m, err := store.OpenXQO2(path)
		if err != nil {
			t.Fatal(err)
		}
		defer m.Close()
		return d.Names()
	}()
	runtime.GC()
	for i, name := range want {
		if got := names.Name(tree.LabelID(i)); got != name {
			t.Fatalf("name %d of the table is %q after the unmap, want %q", i, got, name)
		}
	}
	again, err := xmlparse.ParseString(src)
	if err != nil {
		t.Fatal(err)
	}
	if again.Names() != names {
		t.Error("a document parsed with the same names has another label table")
	}
}
