package store_test

import (
	"path/filepath"
	"runtime"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/qcache"
	"repro/internal/store"
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
