package store

import (
	"encoding/binary"
	"fmt"
	"os"
	"reflect"
	"testing"
	"unsafe"

	"repro/internal/tree"
	"repro/internal/xmark"
)

// heldBytes sums what v holds in slices and strings, following pointers
// and struct fields: len × element size per slice, plus whatever the
// elements hold themselves (the label names behind their headers). A
// backing array reached twice — the halves and the directory of the text
// nodes' ranks, kept by the document and borrowed by the index — is held
// once. Maps and interfaces are passed over — the label table's
// lookup map is a few dozen entries, and a mapped document's owner is
// the file the slices already alias.
func heldBytes(v reflect.Value) int64 {
	return heldOnce(v, map[unsafe.Pointer]bool{})
}

func heldOnce(v reflect.Value, seen map[unsafe.Pointer]bool) int64 {
	switch v.Kind() {
	case reflect.Pointer:
		if v.IsNil() {
			return 0
		}
		return heldOnce(v.Elem(), seen)
	case reflect.Struct:
		var b int64
		for i := 0; i < v.NumField(); i++ {
			b += heldOnce(v.Field(i), seen)
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
				b += heldOnce(v.Index(i), seen)
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
	}
}

// TestFileHoldsOnlyWhatIsResident: a mapped XQO2 file is the resident
// document and index (MemBytes) plus the header, the section table, the
// label table's offsets and the padding of each section to 64 bytes — at
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
		over := h.Stats.MappedBytes - h.Stats.MemBytes // Doc.MemBytes() + Index.MemBytes()
		if over > 64*(sections+1) {
			t.Errorf("scale %g: the %d-byte file holds %d bytes more than the %d resident, where %d sections allow %d", scale, h.Stats.MappedBytes, over, h.Stats.MemBytes, sections, 64*(sections+1))
		} else {
			t.Logf("scale %g: %d file bytes, %d resident, %d over across %d sections", scale, h.Stats.MappedBytes, h.Stats.MemBytes, over, sections)
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
	h, err := New().Add("d", xmark.Generate(xmark.Config{Scale: 0.05, Seed: 1}), SourceDirect)
	if err != nil {
		t.Fatal(err)
	}
	if perNode := float64(h.Stats.MemBytes) / float64(h.Stats.Nodes); perNode > 8.25 {
		t.Errorf("%.2f resident bytes per node (%d bytes, %d nodes), want <= 8.25", perNode, h.Stats.MemBytes, h.Stats.Nodes)
	} else {
		t.Logf("%.2f resident bytes per node", perNode)
	}
}
