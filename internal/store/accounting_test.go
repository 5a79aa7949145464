package store

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"unsafe"

	"repro/internal/tree"
	"repro/internal/xmark"
)

// heldBytes sums what v holds in slices and strings, following pointers
// and struct fields: len × element size per slice, plus whatever the
// elements hold themselves (the label names behind their headers). A
// backing array reached twice — the halves and the directory of a
// sequence, kept by the document and borrowed by the index — is held
// once. Maps and interfaces are passed over — the label table's
// lookup map is a few dozen entries, and a mapped document's owner is
// the file the slices already alias — and so is a label table, which
// the documents with its names share: storeHeldBytes counts each once.
func heldBytes(v reflect.Value) int64 {
	return heldOnce(v, map[unsafe.Pointer]bool{}, false)
}

// storeHeldBytes is heldBytes over the latest generation of every
// document resident in s, walked with one seen set, label tables
// included: a table that documents share — its names' backing array —
// is held once.
func storeHeldBytes(s *Store) int64 {
	seen := map[unsafe.Pointer]bool{}
	var b int64
	for _, ch := range s.chains() {
		if h := ch.latest.Load(); h != nil {
			b += heldOnce(reflect.ValueOf(h.Index), seen, true)
		}
	}
	return b
}

var labelTableType = reflect.TypeFor[*tree.LabelTable]()

func heldOnce(v reflect.Value, seen map[unsafe.Pointer]bool, tables bool) int64 {
	switch v.Kind() {
	case reflect.Pointer:
		if v.IsNil() || !tables && v.Type() == labelTableType {
			return 0
		}
		return heldOnce(v.Elem(), seen, tables)
	case reflect.Struct:
		var b int64
		for i := 0; i < v.NumField(); i++ {
			b += heldOnce(v.Field(i), seen, tables)
		}
		return b
	case reflect.Slice:
		if v.Len() == 0 || seen[v.UnsafePointer()] {
			return 0
		}
		seen[v.UnsafePointer()] = true
		b := int64(v.Len()) * int64(v.Type().Elem().Size())
		switch v.Type().Elem().Kind() {
		case reflect.Slice, reflect.String, reflect.Struct, reflect.Pointer:
			for i := 0; i < v.Len(); i++ {
				b += heldOnce(v.Index(i), seen, tables)
			}
		}
		return b
	case reflect.String:
		return int64(v.Len())
	}
	return 0
}

// TestMemBytesIsTheSumOfTheSlices: MemBytes of a document and of an
// index are exactly what their slice fields hold, found by reflection —
// so an array added to either type moves the store's mem_bytes, and
// with it the benchmark's resident_bytes_per_node, without anyone
// remembering to. The index reaches its document through a pointer,
// hence the sum on its side; and it keeps no #text row, but counts the
// document's text nodes, in all three. The document is large enough (109 000 nodes) to
// have wide nodes, so that table — three words an entry — is counted too,
// and the patch brings enough names that the generation lists rare labels.
// Store-wide, DocBytes — the service's doc_bytes — is what every resident
// document holds, each label table once: the built and the mapped
// document share one, the patched generation has its own.
func TestMemBytesIsTheSumOfTheSlices(t *testing.T) {
	s := New()
	built, err := s.Add("built", xmark.Generate(xmark.Config{Scale: 0.05, Seed: 2}), SourceDirect)
	if err != nil {
		t.Fatal(err)
	}
	mapped, err := s.LoadMapped("mapped", saveXQO2(t, built.Doc))
	if err != nil {
		t.Fatal(err)
	}
	frag := tree.NewBuilder()
	frag.Open("graft")
	frag.Text("new text under a new label")
	for i := 0; i < 200; i++ {
		frag.Open(fmt.Sprint("graft", i))
		frag.Close()
	}
	frag.Close()
	patched, err := s.Patch("built", NoGen, tree.Patch{Op: tree.OpInsert, Node: built.Doc.DocumentElement(), Before: tree.Nil, Frag: frag.MustFinish()})
	if err != nil {
		t.Fatal(err)
	}
	if rare, ids := patched.Doc.Rare(); rare.Len() == 0 || len(ids) != rare.Len() {
		t.Fatalf("the patched generation lists %d rare labels with %d ids", rare.Len(), len(ids))
	}
	for name, h := range map[string]*Handle{"built": built, "mapped": mapped, "patched": patched} {
		if got, want := h.Doc.MemBytes(), heldBytes(reflect.ValueOf(h.Doc)); got != want {
			t.Errorf("%s: Document.MemBytes() = %d, its slices hold %d", name, got, want)
		}
		if got, want := h.Doc.MemBytes()+h.Index.MemBytes(), heldBytes(reflect.ValueOf(h.Index)); got != want {
			t.Errorf("%s: Document.MemBytes() + Index.MemBytes() = %d, the index and its document hold %d", name, got, want)
		}
		if got, want := h.Stats.MemBytes, h.Doc.MemBytes()+h.Index.MemBytes(); got != want {
			t.Errorf("%s: Stats.MemBytes = %d, want %d", name, got, want)
		}
		texts := h.Doc.TextRank(tree.NodeID(h.Doc.NumNodes()))
		if texts == 0 || h.Index.Count(tree.LabelText) != texts || h.Index.Occurrences(tree.LabelText).Len() != 0 {
			t.Errorf("%s: the index counts %d of the %d text nodes and keeps %d in a row", name, h.Index.Count(tree.LabelText), texts, h.Index.Occurrences(tree.LabelText).Len())
		}
		if got, want := h.Doc.Names().MemBytes(), heldOnce(reflect.ValueOf(h.Doc.Names()), map[unsafe.Pointer]bool{}, true); got != want {
			t.Errorf("%s: LabelTable.MemBytes() = %d, its names hold %d", name, got, want)
		}
	}
	if mapped.Doc.Names() != built.Doc.Names() || patched.Doc.Names() == built.Doc.Names() {
		t.Fatalf("built and mapped share a table: %v; built and patched: %v", mapped.Doc.Names() == built.Doc.Names(), patched.Doc.Names() == built.Doc.Names())
	}
	if got, want := DocBytes(s.List()), storeHeldBytes(s); got != want {
		t.Errorf("DocBytes = %d, the resident documents hold %d", got, want)
	}
}

// TestFileHoldsOnlyWhatIsResident: a mapped XQO2 file is the resident
// document and index (MemBytes) and label table (whose string headers
// take more than the file's offsets of the names) plus the header, the
// section table and the padding of each section to 64 bytes — at
// most 64 bytes a section and 64 more, whatever the document's size. A
// section no query reads, written beside the rest, would be over that at
// every scale.
func TestFileHoldsOnlyWhatIsResident(t *testing.T) {
	for _, scale := range []float64{0.002, 0.05} {
		path := saveXQO2(t, xmark.Generate(xmark.Config{Scale: scale, Seed: 1}))
		h, err := New().LoadMapped("d", path)
		if err != nil {
			t.Fatal(err)
		}
		file, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		sections := int64(binary.LittleEndian.Uint32(file[16:]))
		resident := h.Stats.MemBytes + h.Doc.Names().MemBytes() // Doc.MemBytes() + Index.MemBytes(), and the table
		over := h.Stats.MappedBytes - resident
		if over > 64*(sections+1) {
			t.Errorf("scale %g: the %d-byte file holds %d bytes more than the %d resident, where %d sections allow %d", scale, h.Stats.MappedBytes, over, resident, sections, 64*(sections+1))
		} else {
			t.Logf("scale %g: %d file bytes, %d resident, %d over across %d sections", scale, h.Stats.MappedBytes, resident, over, sections)
		}
	}
}

// TestResidentBytesPerNode pins the figure the benchmark reports as
// resident_bytes_per_node on a document of its shape: 3 structural
// bytes per node (a label, up and size in a byte each), 2 more per node
// that is not text (the 16-bit half of its occurrence entry; a text
// node's label byte is all that lists it) and 2 more per text node (the
// half of its offset; 3 nodes in 8 are text), XMark's ~3 bytes of text,
// and a few hundredths for the directories, the text ranks' counts (a
// word per 1 024 nodes), the wide table and the empty list of rare
// labels: 8.13 in all. The ceiling, 8.25, is an eighth of a byte over
// that, so a regression of a byte per eight nodes shows.
func TestResidentBytesPerNode(t *testing.T) {
	s := New()
	if _, err := s.Add("d", xmark.Generate(xmark.Config{Scale: 0.05, Seed: 1}), SourceDirect); err != nil {
		t.Fatal(err)
	}
	requireResidentBytesPerNode(t, s, 8.25)
}

// requireResidentBytesPerNode holds s to a ceiling of resident bytes per
// node, counted store-wide as the service's doc_bytes is (DocBytes), and
// logs the figure.
func requireResidentBytesPerNode(t *testing.T, s *Store, ceiling float64) {
	t.Helper()
	docs, nodes := s.List(), 0
	for _, st := range docs {
		nodes += st.Nodes
	}
	b := DocBytes(docs)
	if perNode := float64(b) / float64(nodes); perNode > ceiling {
		t.Errorf("%.3f resident bytes per node (%d bytes, %d nodes, %d documents), want <= %.3f", perNode, b, nodes, len(docs), ceiling)
	} else {
		t.Logf("%.3f resident bytes per node (%d documents)", perNode, len(docs))
	}
}

// TestResidentBytesPerNodeSmallDocs is the figure for a corpus of the
// benchmark's point-lookup shape: 64 XMark 0.002 documents of 4 000-odd
// nodes, from distinct seeds, mapped from XQO2 files. They have the same
// names, so they share one label table, counted once: 8.19 in all,
// where a table per document would add 0.38. The ceiling, 8.32, is an
// eighth of a byte over that.
func TestResidentBytesPerNodeSmallDocs(t *testing.T) {
	s, dir := New(), t.TempDir()
	for seed := range int64(64) {
		path := filepath.Join(dir, fmt.Sprint(seed, ".xqo2"))
		if err := SaveXQO2File(path, xmark.Generate(xmark.Config{Scale: 0.002, Seed: seed + 1})); err != nil {
			t.Fatal(err)
		}
		if _, err := s.LoadMapped(fmt.Sprint("d", seed), path); err != nil {
			t.Fatal(err)
		}
	}
	requireResidentBytesPerNode(t, s, 8.32)
}
