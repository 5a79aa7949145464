package repro_test

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"testing/iotest"

	"repro"
)

// TestBinaryRoundTripPaperQueries round-trips an XMark-generated
// document through the XQO2 format — once through the file helpers
// (mmap) and once through the io.Reader facade (tree.OpenLayout over a
// heap buffer assembled from odd-sized reads, so the aliased sections
// depend on the allocator's alignment, not on page-aligned mmap) — and
// asserts that all fifteen Figure 2 queries answer identically on each
// reloaded copy: the persistence guarantee behind xpq -save/-load and
// xpqd -mmap.
func TestBinaryRoundTripPaperQueries(t *testing.T) {
	orig := repro.GenerateXMark(0.003, 42)

	var buf bytes.Buffer
	if _, err := repro.SaveDocument(&buf, orig); err != nil {
		t.Fatal(err)
	}
	fromReader, err := repro.LoadDocument(iotest.OneByteReader(&buf))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "doc.xqo2")
	if err := repro.SaveDocumentFile(path, orig); err != nil {
		t.Fatal(err)
	}
	fromFile, err := repro.LoadDocumentFile(path)
	if err != nil {
		t.Fatal(err)
	}

	engOrig := repro.NewEngine(orig)
	for name, copyDoc := range map[string]*repro.Document{"reader": fromReader, "file": fromFile} {
		if copyDoc.XMLString() != orig.XMLString() {
			t.Fatalf("%s: round trip changed the document", name)
		}
		engCopy := repro.NewEngine(copyDoc)
		for _, q := range repro.PaperQueries() {
			ansOrig, err := engOrig.Query(q.XPath)
			if err != nil {
				t.Fatalf("%s on original: %v", q.ID, err)
			}
			ansCopy, err := engCopy.Query(q.XPath)
			if err != nil {
				t.Fatalf("%s on %s copy: %v", q.ID, name, err)
			}
			if !reflect.DeepEqual(ansOrig.Nodes, ansCopy.Nodes) {
				t.Errorf("%s: %s copy answers differently (%d vs %d nodes)",
					q.ID, name, len(ansCopy.Nodes), len(ansOrig.Nodes))
			}
		}
	}
}

// TestXQO1Rejected: a file in the removed XQO1 event-stream format must
// fail to load with an error that names the format and the way out —
// not a panic, and not a bare checksum or bad-magic failure. (The
// daemon's -mmap path is pinned in cmd/xpqd.)
func TestXQO1Rejected(t *testing.T) {
	// An XQO1 stream: the magic, then label-table varints. Both a
	// shorter-than-header and a longer-than-header file must be caught.
	for _, body := range []string{"XQO1\x02", "XQO1" + strings.Repeat("\x01", 64)} {
		path := filepath.Join(t.TempDir(), "old.xqo")
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		_, ferr := repro.LoadDocumentFile(path)
		_, rerr := repro.LoadDocument(strings.NewReader(body))
		for via, err := range map[string]error{"LoadDocumentFile": ferr, "LoadDocument": rerr} {
			if err == nil || !strings.Contains(err.Error(), "XQO1") || !strings.Contains(err.Error(), "-save") {
				t.Errorf("%s(%d-byte XQO1 file): err = %v, want one naming XQO1 and the re-save command", via, len(body), err)
			}
		}
	}
}
