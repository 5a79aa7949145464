package store

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"unsafe"

	"repro/internal/index"
	"repro/internal/tree"
	"repro/internal/xmark"
)

func saveXQO2(t *testing.T, d *tree.Document) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "doc.xqo2")
	if err := SaveXQO2File(path, d); err != nil {
		t.Fatalf("SaveXQO2File: %v", err)
	}
	return path
}

// TestXQO2RoundTrip checks that a mapped open reproduces the document
// and index exactly — every node's parent, last descendant, first child,
// next sibling and text — and that the file holds no balanced-parentheses
// view (kinds 12–15, retired in version 8).
func TestXQO2RoundTrip(t *testing.T) {
	d := xmark.Generate(xmark.Config{Scale: 0.002, Seed: 7})
	path := saveXQO2(t, d)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for i, count := 0, int(binary.LittleEndian.Uint32(data[16:])); i < count; i++ {
		if kind := binary.LittleEndian.Uint32(data[24+24*i:]); kind >= 12 && kind <= 15 {
			t.Errorf("section %d is kind %d, retired", i, kind)
		}
	}
	d2, _, ix, _, err := OpenXQO2(path)
	if err != nil {
		t.Fatalf("OpenXQO2: %v", err)
	}
	if d2.NumNodes() != d.NumNodes() {
		t.Fatalf("nodes %d != %d", d2.NumNodes(), d.NumNodes())
	}
	if d2.XMLString() != d.XMLString() {
		t.Fatal("XML round-trip mismatch")
	}
	for v := tree.NodeID(0); int(v) < d2.NumNodes(); v++ {
		if d2.Parent(v) != d.Parent(v) || d2.LastDesc(v) != d.LastDesc(v) ||
			d2.FirstChild(v) != d.FirstChild(v) || d2.NextSibling(v) != d.NextSibling(v) {
			t.Fatalf("node %d: mapped (p=%d ld=%d fc=%d ns=%d), source (p=%d ld=%d fc=%d ns=%d)", v,
				d2.Parent(v), d2.LastDesc(v), d2.FirstChild(v), d2.NextSibling(v),
				d.Parent(v), d.LastDesc(v), d.FirstChild(v), d.NextSibling(v))
		}
		if got, want := d2.Text(v), d.Text(v); got != want {
			t.Fatalf("text(%d) mismatch", v)
		}
	}
	for l := 0; l < d.Names().Size(); l++ {
		want := d.CountLabel(tree.LabelID(l))
		if got := ix.Count(tree.LabelID(l)); got != want {
			t.Fatalf("count(label %d) = %d, want %d", l, got, want)
		}
	}
}

// TestXQO2Corruption flips bytes across the file and requires every
// mutation to either fail cleanly at open or produce a fully valid
// document — never a panic or an out-of-range structure.
func TestXQO2Corruption(t *testing.T) {
	d := xmark.Generate(xmark.Config{Scale: 0.001, Seed: 3})
	path := saveXQO2(t, d)
	orig, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("panic on corrupted file: %v", r)
		}
	}()
	stride := len(orig)/97 + 1
	for pos := 0; pos < len(orig); pos += stride {
		data := bytes.Clone(orig)
		data[pos] ^= 0x5a
		mut := filepath.Join(t.TempDir(), "mut.xqo2")
		if err := os.WriteFile(mut, data, 0o644); err != nil {
			t.Fatal(err)
		}
		d2, _, ix, _, err := OpenXQO2(mut)
		if err != nil {
			continue // rejected cleanly
		}
		// Accepted: must be internally consistent enough to query.
		if d2.NumNodes() < 1 || ix.VerifyStructure() != nil {
			t.Fatalf("byte %d: accepted an inconsistent document", pos)
		}
	}
}

// resave is what every version refusal tells the user to run.
const resave = "xpq -file doc.xml -save doc.xqo2"

// malformed is TestXQO2Malformed's rejection matrix, each edit of a valid
// container with what its refusal must say: bad magic, a version other
// than the current one — the previous one included: there is one at-rest
// format and no compatibility branch, and the refusal says how to
// regenerate the file — a corrupt section payload (checksum mismatch),
// and a section table pointing past the end of the file. FuzzOpenXQO2
// starts from them.
var malformed = map[string]struct {
	mutate func([]byte)
	says   string
}{
	"bad magic":        {func(b []byte) { copy(b[0:4], "YYYY") }, "bad magic"},
	"bad version":      {func(b []byte) { b[4] = 99 }, resave},
	"previous version": {func(b []byte) { b[4] = 8 }, resave},
	"corrupt payload": {func(b []byte) {
		// First payload starts at the 64-byte-aligned end of the
		// section table (header 24 bytes + count entries of 24).
		count := int(binary.LittleEndian.Uint32(b[16:]))
		off := (24 + count*24 + 63) &^ 63
		b[off] ^= 0x5a
	}, "checksum mismatch"},
	"corrupt section table": {func(b []byte) {
		b[40] ^= 0xff // length field of the first table entry
	}, ""},
}

// TestXQO2Malformed: each edit in malformed is refused, with what it
// says.
func TestXQO2Malformed(t *testing.T) {
	d := xmark.Generate(xmark.Config{Scale: 0.001, Seed: 5})
	path := saveXQO2(t, d)
	orig, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for name, tc := range malformed {
		data := bytes.Clone(orig)
		tc.mutate(data)
		mut := filepath.Join(t.TempDir(), "mut.xqo2")
		if err := os.WriteFile(mut, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, _, _, _, err := OpenXQO2(mut); err == nil {
			t.Errorf("%s: expected error", name)
		} else if !strings.Contains(err.Error(), tc.says) {
			t.Errorf("%s: error %q does not say %q", name, err, tc.says)
		}
	}
}

// TestXQO2FirstCorruptSectionNamed: with two corrupt sections, whichever
// two, the open's error names the one that comes first in the section
// table — the same file always gets the same message.
func TestXQO2FirstCorruptSectionNamed(t *testing.T) {
	orig := openContainer()
	count := int(binary.LittleEndian.Uint32(orig[16:]))
	entry := func(i int) (kind uint32, off, length uint64) {
		e := orig[24+24*i:]
		return binary.LittleEndian.Uint32(e), binary.LittleEndian.Uint64(e[8:]), binary.LittleEndian.Uint64(e[16:])
	}
	pairs := 0
	for i := 0; i < count; i++ {
		kind, offI, lenI := entry(i)
		for j := i + 1; j < count; j++ {
			_, offJ, lenJ := entry(j)
			if lenI == 0 || lenJ == 0 {
				continue // an empty section has no byte to flip
			}
			data := bytes.Clone(orig)
			data[offI+lenI-1] ^= 0x5a
			data[offJ] ^= 0x5a
			_, err := tree.OpenLayout(data, nil)
			if want := "section " + strconv.Itoa(int(kind)) + " checksum mismatch"; err == nil || !strings.Contains(err.Error(), want) {
				t.Errorf("table entries %d and %d corrupt: err = %v, want %q", i, j, err, want)
			}
			pairs++
		}
	}
	if pairs < 50 {
		t.Fatalf("only %d pairs of non-empty sections tried", pairs)
	}
}

// TestMappedLabelNamesOutliveTheMapping: a mapped document's label names
// are heap strings, not views of the file, so they read the same after
// the mapping is unmapped.
func TestMappedLabelNamesOutliveTheMapping(t *testing.T) {
	d := xmark.Generate(xmark.Config{Scale: 0.001, Seed: 4})
	od, _, _, m, err := OpenXQO2(saveXQO2(t, d))
	if err != nil {
		t.Fatal(err)
	}
	file := m.Data()
	lo, hi := uintptr(unsafe.Pointer(&file[0])), uintptr(unsafe.Pointer(&file[len(file)-1]))
	names := od.Names().Names()
	for i, name := range names {
		if p := uintptr(unsafe.Pointer(unsafe.StringData(name))); name != "" && p >= lo && p <= hi {
			t.Fatalf("label %d (%q) points into the mapping", i, name)
		}
	}
	m.Close()
	if !slices.Equal(names, d.Names().Names()) {
		t.Fatalf("label names after unmapping:\n got %q\nwant %q", names, d.Names().Names())
	}
	for i, name := range names {
		if id, ok := od.Names().Lookup(name); !ok || int(id) != i {
			t.Fatalf("Lookup(%q) after unmapping = %d, %v; want %d", name, id, ok, i)
		}
	}
}

// openContainer is the small valid XQO2 container FuzzOpenXQO2 edits: a
// few elements with texts, 15 sections in under 2 KB.
var openContainer = sync.OnceValue(func() []byte {
	b := tree.NewBuilder()
	b.Open("site")
	for i := 0; i < 5; i++ {
		b.Open("item")
		b.Text(strconv.Itoa(i))
		b.Open("name")
		b.Close()
		b.Close()
	}
	b.Close()
	var buf bytes.Buffer
	if _, err := WriteXQO2(&buf, b.MustFinish()); err != nil {
		panic(err)
	}
	return buf.Bytes()
})

// applyOpenEdits applies FuzzOpenXQO2's edits to data, a container whose
// table holds the given number of sections. An edit is 10 bytes: what,
// which, and a 64-bit value.
//
//	what%7 = 0  header word which%6 (magic, version, the two halves of
//	            the endianness mark, section count, reserved) = value
//	         1  table entry which%sections: its kind = value
//	         2  its checksum = value
//	         3  its offset = value
//	         4  its length = value
//	         5  the whole entry = entry value%sections
//	         6  the byte at value, modulo the file's length, ^= which
func applyOpenEdits(data []byte, sections int, edits []byte) {
	for ; len(edits) >= 10; edits = edits[10:] {
		which, v := int(edits[1]), binary.LittleEndian.Uint64(edits[2:])
		e := data[24+24*(which%sections):]
		switch edits[0] % 7 {
		case 0:
			binary.LittleEndian.PutUint32(data[4*(which%6):], uint32(v))
		case 1:
			binary.LittleEndian.PutUint32(e, uint32(v))
		case 2:
			binary.LittleEndian.PutUint32(e[4:], uint32(v))
		case 3:
			binary.LittleEndian.PutUint64(e[8:], v)
		case 4:
			binary.LittleEndian.PutUint64(e[16:], v)
		case 5:
			copy(e[:24], data[24+24*int(v%uint64(sections)):])
		case 6:
			data[v%uint64(len(data))] ^= byte(which)
		}
	}
}

// reseal recomputes the checksum of every section whose table entry lies
// within data and points within it, so that an edited payload reaches
// the decoders behind the checksums.
func reseal(data []byte) {
	count := int(binary.LittleEndian.Uint32(data[16:]))
	for i := 0; i < count && 24+24*(i+1) <= len(data); i++ {
		e := data[24+24*i:]
		off, length := binary.LittleEndian.Uint64(e[8:]), binary.LittleEndian.Uint64(e[16:])
		if off <= uint64(len(data)) && length <= uint64(len(data))-off {
			binary.LittleEndian.PutUint32(e[4:], crc32.Checksum(data[off:off+length], crc32.MakeTable(crc32.Castagnoli)))
		}
	}
}

// FuzzOpenXQO2: whatever an XQO2 file's header and section table say,
// and whatever its payloads hold, the open refuses it, or what it lets
// through is safe to ask and, once verified, fully navigable
// (requireRefusedOrNavigable) — never a panic. The input is a list of
// edits of a small valid container (applyOpenEdits), seeded with
// TestXQO2Malformed's mutants and with edits of the section count, a
// kind, an offset, a length, an offset off the 64-byte grid, an entry
// listed twice, and an offset and length whose sum overflows. With
// resealed set, every section's checksum is recomputed after the edits,
// so an edited payload gets past the checksums to DocumentFromLayout and
// index.FromLayout.
func FuzzOpenXQO2(f *testing.F) {
	orig := openContainer()
	sections := int(binary.LittleEndian.Uint32(orig[16:]))
	edit := func(what, which byte, v uint64) []byte {
		return binary.LittleEndian.AppendUint64([]byte{what, which}, v)
	}
	field := func(entry, at int) uint64 { return binary.LittleEndian.Uint64(orig[24+24*entry+at:]) }
	seeds := [][]byte{
		nil,                              // the container as written
		edit(0, 4, uint64(sections+1)),   // one entry more than the table holds
		edit(0, 4, 0),                    // no sections
		edit(0, 4, 1<<32-1),              // more entries than the file holds
		edit(1, 0, 99),                   // the meta section under a kind nothing reads
		edit(1, 1, 12),                   // the labels under a retired kind
		edit(5, 1, 0),                    // an entry listed twice
		edit(3, 1, uint64(len(orig)+64)), // an offset past the end
		edit(3, 1, field(1, 8)+8),        // an offset off the 64-byte grid
		edit(3, 1, field(2, 8)),          // the offset of another section
		edit(4, 1, field(1, 16)+1),       // a length one more
		edit(4, 1, 0),                    // no length
		append(edit(3, 1, 64), edit(4, 1, 1<<64-32)...), // an offset and length whose sum overflows
		edit(6, 1, field(1, 8)),                         // the root relabelled: a payload edit, refused or not
	}
	for _, name := range slices.Sorted(maps.Keys(malformed)) {
		data := bytes.Clone(orig)
		malformed[name].mutate(data)
		var e []byte
		for i := range data {
			if data[i] != orig[i] {
				e = append(e, edit(6, data[i]^orig[i], uint64(i))...)
			}
		}
		seeds = append(seeds, e)
	}
	for _, e := range seeds {
		f.Add(e, false)
		f.Add(e, true)
	}
	f.Fuzz(func(t *testing.T, edits []byte, resealed bool) {
		data := bytes.Clone(orig)
		applyOpenEdits(data, sections, edits)
		if resealed {
			reseal(data)
		}
		l, err := tree.OpenLayout(data, nil)
		if err != nil {
			return
		}
		requireRefusedOrNavigable(t, l)
	})
}

// rewriteSection mutates the payload of the section with the given kind
// and re-seals it with a freshly computed checksum, producing the file a
// buggy or hostile writer would: structurally wrong but CRC-valid.
func findSection(t *testing.T, data []byte, kind uint32) (entry, payload []byte) {
	t.Helper()
	count := int(binary.LittleEndian.Uint32(data[16:]))
	for i := 0; i < count; i++ {
		e := data[24+i*24:]
		if binary.LittleEndian.Uint32(e) != kind {
			continue
		}
		off := binary.LittleEndian.Uint64(e[8:])
		length := binary.LittleEndian.Uint64(e[16:])
		return e, data[off : off+length]
	}
	t.Fatalf("section %d not found", kind)
	return nil, nil
}

func rewriteSection(t *testing.T, data []byte, kind uint32, mutate func(payload []byte)) {
	t.Helper()
	e, payload := findSection(t, data, kind)
	mutate(payload)
	crc := crc32.Checksum(payload, crc32.MakeTable(crc32.Castagnoli))
	binary.LittleEndian.PutUint32(e[4:], crc)
}

// TestXQO2VerifyStructure pins the trust split between the default open
// and the verified open: a CRC-valid file whose content is out of range,
// or in range but not a tree, is accepted by OpenXQO2 (checksums only
// catch corruption; resident files are a cache artifact this process
// wrote) but rejected by OpenXQO2Verified and by a store in
// -verify-resident mode.
func TestXQO2VerifyStructure(t *testing.T) {
	d := xmark.Generate(xmark.Config{Scale: 0.001, Seed: 11})
	path := saveXQO2(t, d)
	orig, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// The pristine file passes full verification.
	if _, _, _, err := OpenXQO2Verified(path); err != nil {
		t.Fatalf("verified open of pristine file: %v", err)
	}

	mutants := map[string]func([]byte){
		"parent before the root": func(b []byte) {
			rewriteSection(t, b, tree.SecUp, func(p []byte) {
				p[1] = 9
			})
		},
		"subtree past the document's end": func(b []byte) {
			rewriteSection(t, b, tree.SecSize, func(p []byte) {
				p[len(p)-1] = 5
			})
		},
		// In range, so no bounds check trips — but every parent walk
		// through node 5 (hybrid's upward match, Path) would never end.
		"node its own parent": func(b []byte) {
			rewriteSection(t, b, tree.SecUp, func(p []byte) {
				p[5] = 0
			})
		},
		// The first child of the first node with a short subtree claims as
		// many nodes as its parent: overlapping subtree intervals.
		"child interval past its parent's end": func(b []byte) {
			rewriteSection(t, b, tree.SecSize, func(p []byte) {
				v := bytes.IndexFunc(p, func(r rune) bool { return r > 0 && r < 0xFF })
				p[v+1] = p[v]
			})
		},
		// The root's entry in the wide table is orphaned with it.
		"root interval short": func(b []byte) {
			rewriteSection(t, b, tree.SecSize, func(p []byte) {
				p[0] = 200
			})
		},
		// A leaf said to be wide, which the table does not list: LastDesc
		// misses and calls the node a leaf.
		"escape without an entry": func(b []byte) {
			rewriteSection(t, b, tree.SecSize, func(p []byte) {
				p[bytes.IndexByte(p, 0)] = 0xFF
			})
		},
		"label past the name table": func(b []byte) {
			rewriteSection(t, b, tree.SecLabels, func(p []byte) {
				p[repeatedElement(p)] = 200
			})
		},
		// An element given the label escape, in a document that lists no
		// rare label: Label misses and calls the node a #doc.
		"label escape not listed": func(b []byte) {
			rewriteSection(t, b, tree.SecLabels, func(p []byte) {
				p[repeatedElement(p)] = 0xFF
			})
		},
		// The first element with children and the first text node trade
		// labels: as many #text labels as offsets, every text read in
		// order, but a #text node with nodes under it.
		"text node with children": func(b []byte) {
			rewriteSection(t, b, tree.SecLabels, func(p []byte) {
				v, text := withChildren(t, b), bytes.IndexByte(p, byte(tree.LabelText))
				p[v], p[text] = p[text], p[v]
			})
		},
		// The second text would end before it starts.
		"text offsets stepping back": func(b []byte) {
			rewriteSection(t, b, tree.SecTextOff, func(p []byte) {
				binary.LittleEndian.PutUint16(p[2*2:], 0)
			})
		},
		"occurrences unsorted": func(b []byte) {
			// Swap the first two halves of some chunk of some label that
			// holds two or more: both nodes carry that label, and the
			// directory, all the default open looks at, is untouched, but
			// the row stops being sorted.
			_, dir := findSection(t, b, index.SecOccOff)
			at := -1
			for i := 0; i+8 <= len(dir); i += 4 {
				if a := binary.LittleEndian.Uint32(dir[i:]); binary.LittleEndian.Uint32(dir[i+4:]) >= a+2 {
					at = 2 * int(a)
					break
				}
			}
			if at < 0 {
				t.Fatal("no label with two occurrences in one chunk")
			}
			rewriteSection(t, b, index.SecOccAll, func(p []byte) {
				x, y := binary.LittleEndian.Uint16(p[at:]), binary.LittleEndian.Uint16(p[at+2:])
				binary.LittleEndian.PutUint16(p[at:], y)
				binary.LittleEndian.PutUint16(p[at+2:], x)
			})
		},
		// The first element filed under the root's label: every rank still
		// occurs once and every row ascends, but one row holds a node that
		// does not carry its label, and that node's own row lacks it.
		"occurrence under the wrong label": func(b []byte) {
			rewriteSection(t, b, index.SecOccOff, func(p []byte) {
				for i := 4; i+4 <= len(p) && binary.LittleEndian.Uint32(p[i:]) == 1; i += 4 {
					binary.LittleEndian.PutUint32(p[i:], 2)
				}
			})
		},
	}
	for name, mutate := range mutants {
		data := bytes.Clone(orig)
		mutate(data)
		mut := filepath.Join(t.TempDir(), "mut.xqo2")
		if err := os.WriteFile(mut, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, _, _, _, err := OpenXQO2(mut); err != nil {
			t.Errorf("%s: default open rejected a CRC-valid file: %v", name, err)
		}
		if _, _, _, err := OpenXQO2Verified(mut); err == nil {
			t.Errorf("%s: verified open accepted structurally invalid content", name)
		}
		s := New()
		s.SetVerifyResident(true)
		if _, err := s.LoadMapped("bad", mut); err == nil {
			t.Errorf("%s: verifying store accepted structurally invalid content", name)
		}
	}

	// An element relabelled #text, or a text node relabelled an element:
	// the texts are counted from the labels, so the offsets no longer
	// number one more than the #text nodes, and the default open refuses.
	for name, l := range map[string]byte{"an element relabelled #text": byte(tree.LabelText), "a text node relabelled an element": 2} {
		data := bytes.Clone(orig)
		rewriteSection(t, data, tree.SecLabels, func(p []byte) {
			if l == byte(tree.LabelText) {
				p[repeatedElement(p)] = l
			} else {
				p[bytes.IndexByte(p, byte(tree.LabelText))] = l
			}
		})
		mut := filepath.Join(t.TempDir(), "mut.xqo2")
		if err := os.WriteFile(mut, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, _, _, _, err := OpenXQO2(mut); err == nil || !strings.Contains(err.Error(), "labelled #text") {
			t.Errorf("%s: the default open says %v, want a refusal naming the #text labels", name, err)
		}
	}
}

// withChildren returns the rank of the first node after the root, in a
// container's size section, that has nodes under it.
func withChildren(t *testing.T, data []byte) int {
	_, size := findSection(t, data, tree.SecSize)
	for v := 1; v < len(size); v++ {
		if size[v] != 0 {
			return v
		}
	}
	t.Fatal("no node after the root has children")
	return 0
}

// TestXQO2WideTable splits the checks of the two tables an escape is
// answered from between the two opens, on the fuzzer's fan of 70 000
// leaves (wide: nodes 0 and 1, both ending at the last node, the second
// inside the first; rare: the last 99 of the leaves with a name of their
// own). What is wrong with a table by itself — the wide one's order,
// range, a span shorter than 255 or across another's end, an entry naming
// another than the innermost around it; a rare id that fits a byte or is
// past the name table, a directory that is none — the default open
// refuses, because a lookup must be able to trust what it returns. What
// is wrong between a table and the arrays — an escape without an entry,
// an entry without an escape, a distance stored the long way — it
// accepts, answers without leaving the document, and the verified open
// refuses.
func TestXQO2WideTable(t *testing.T) {
	orig := fuzzContainer()
	n := uint32(fuzzFanout + 2 + fuzzFanout/5000)
	const names, firstRare = 4 + fuzzRareNames, 703 // leaf700, the first leaf whose name sorts among the last 99
	open := func(mutate func(b []byte)) (*tree.Document, error) {
		data := bytes.Clone(orig)
		mutate(data)
		l, err := tree.OpenLayout(data, nil)
		if err != nil {
			t.Fatal(err)
		}
		return tree.DocumentFromLayout(l)
	}
	word := func(kind uint32, width, i int, v uint32) func([]byte) {
		return func(b []byte) {
			rewriteSection(t, b, kind, func(p []byte) {
				switch width {
				case 1:
					p[i] = byte(v)
				case 2:
					binary.LittleEndian.PutUint16(p[2*i:], uint16(v))
				default:
					binary.LittleEndian.PutUint32(p[4*i:], v)
				}
			})
		}
	}
	if d, err := open(func([]byte) {}); err != nil || d.VerifyStructure() != nil {
		t.Fatalf("the pristine container: %v, %v", err, d.VerifyStructure())
	}
	// An entry of the wide table is three words: node, last, outer.
	for name, tc := range map[string]struct {
		mutate func([]byte)
		says   string
	}{
		"entries out of order":         {func(b []byte) { word(tree.SecWide, 4, 0, 1)(b); word(tree.SecWide, 4, 3, 0)(b) }, "wide entry"},
		"an entry listed twice":        {word(tree.SecWide, 4, 3, 0), "wide entry"},
		"a span shorter than 255":      {word(tree.SecWide, 4, 4, 100), "wide entry"},
		"a span past the document":     {word(tree.SecWide, 4, 4, n+6), "wide entry"},
		"a span ending below zero":     {word(tree.SecWide, 4, 4, 1<<31), "wide entry"},
		"a span past the one around":   {word(tree.SecWide, 4, 1, n-2), "wide entry"},
		"a node before the document":   {word(tree.SecWide, 4, 0, 1<<31+5), "wide entry"},
		"outer pointing forward":       {word(tree.SecWide, 4, 2, 1), "wide entry"},
		"outer pointing at itself":     {word(tree.SecWide, 4, 5, 1), "wide entry"},
		"outer passing the innermost":  {word(tree.SecWide, 4, 5, 1<<32-1), "wide entry"},
		"a rare id that fits a byte":   {word(tree.SecRareIDs, 2, 0, 254), "rare label"},
		"a rare id past the names":     {word(tree.SecRareIDs, 2, 5, names), "rare label"},
		"a rare directory stepping":    {word(tree.SecRareDir, 4, 1, names), "section 23"},
		"a rare directory ending high": {word(tree.SecRareDir, 4, 2, names), "section 23"},
	} {
		if _, err := open(tc.mutate); err == nil || !strings.Contains(err.Error(), tc.says) {
			t.Errorf("%s: the default open says %v, want a refusal naming the %s", name, err, tc.says)
		}
	}
	last := tree.NodeID(n - 1)
	for name, tc := range map[string]struct {
		mutate func([]byte)
		check  func(d *tree.Document) bool // what the unverified document answers
	}{
		"an escape with no entry": {word(tree.SecSize, 1, 5, 0xFF),
			func(d *tree.Document) bool { return d.LastDesc(5) == 5 && d.FirstChild(5) == 6 }},
		"an entry with no escape": {word(tree.SecSize, 1, 1, 7),
			func(d *tree.Document) bool { return d.LastDesc(1) == 8 && d.Parent(last) == 1 }},
		"a near parent stored as an escape": {word(tree.SecUp, 1, 9, 0xFF),
			func(d *tree.Document) bool { return d.Parent(9) == 1 }},
		"a far parent stored as a distance": {word(tree.SecUp, 1, int(last), 1),
			func(d *tree.Document) bool { return d.Parent(last) == last-1 }},
		"an escape under no wide node": {word(tree.SecUp, 1, 0, 0xFF),
			func(d *tree.Document) bool { return d.Parent(0) == tree.Nil }},
		"a label escape with no entry": {word(tree.SecLabels, 1, 9, 0xFF),
			func(d *tree.Document) bool { return d.Label(9) == tree.LabelDoc && d.Text(9) == "" }},
		"a rare entry with no escape": {word(tree.SecLabels, 1, firstRare, 3),
			func(d *tree.Document) bool { return d.LabelName(firstRare) == "leaf" }},
		"a rare entry for another node": {word(tree.SecRare, 2, 0, 9),
			func(d *tree.Document) bool { return d.LabelName(9) == "leaf" && d.Label(firstRare) == tree.LabelDoc }},
		"the rare ranks out of order": {word(tree.SecRare, 2, 1, 0),
			func(d *tree.Document) bool {
				return int(d.Label(firstRare)) < names && int(d.Label(firstRare+200)) < names
			}},
	} {
		d, err := open(tc.mutate)
		if err != nil {
			t.Errorf("%s: the default open refused tables that are sound by themselves: %v", name, err)
			continue
		}
		if !tc.check(d) {
			t.Errorf("%s: unverified, the lookups answer LastDesc(1)=%d LastDesc(5)=%d Parent(9)=%d Parent(%d)=%d Parent(0)=%d Label(9)=%d Label(%d)=%d",
				name, d.LastDesc(1), d.LastDesc(5), d.Parent(9), last, d.Parent(last), d.Parent(0), d.Label(9), firstRare, d.Label(firstRare))
		}
		if d.VerifyStructure() == nil {
			t.Errorf("%s: verified", name)
		}
	}
}

// repeatedElement returns, from a labels section, the first element that
// is not the first of its label.
func repeatedElement(labels []byte) int {
	seen := map[byte]bool{}
	for v, l := range labels {
		if seen[l] && l != byte(tree.LabelText) {
			return v
		}
		seen[l] = true
	}
	panic("no label occurs twice")
}

// TestXQO2Truncation requires clean errors for every truncation length.
func TestXQO2Truncation(t *testing.T) {
	d := xmark.Generate(xmark.Config{Scale: 0.001, Seed: 3})
	path := saveXQO2(t, d)
	orig, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, frac := range []int{0, 1, 2, 4, 8, 16, 64, 256} {
		n := len(orig) * frac / 257
		mut := filepath.Join(t.TempDir(), "trunc.xqo2")
		if err := os.WriteFile(mut, orig[:n], 0o644); err != nil {
			t.Fatal(err)
		}
		if _, _, _, _, err := OpenXQO2(mut); err == nil {
			t.Fatalf("truncation to %d bytes accepted", n)
		}
	}
}

// TestLoadMappedAndBudget exercises the store integration: mapped load,
// stats accounting, reads of every document with no budget to page them
// (no map fault, ever), and eviction dropping a document's mapped bytes.
func TestLoadMappedAndBudget(t *testing.T) {
	s := New()
	ids := []string{"a", "b", "c", "d"}
	var total int64
	for i, id := range ids {
		p := saveXQO2(t, xmark.Generate(xmark.Config{Scale: 0.001, Seed: int64(i)}))
		h, err := s.LoadMapped(id, p)
		if err != nil {
			t.Fatalf("LoadMapped(%s): %v", id, err)
		}
		fi, err := os.Stat(p)
		if err != nil {
			t.Fatal(err)
		}
		if h.Stats.Source != SourceMapped || h.Stats.MappedBytes != fi.Size() {
			t.Fatalf("bad mapped stats for a %d-byte file: %+v", fi.Size(), h.Stats)
		}
		total += fi.Size()
	}
	for _, id := range ids {
		if h, ok := s.Get(id); !ok || h.Doc.NumNodes() == 0 {
			t.Fatalf("document %s unreadable", id)
		}
	}
	if st := s.Mapped(); st.MappedBytes != total || st.MapFaults != 0 {
		t.Fatalf("accounting after load and reads: %+v, want %d mapped bytes and no fault", st, total)
	}
	for i, id := range ids {
		h, _ := s.Get(id)
		s.Evict(id)
		total -= h.Stats.MappedBytes
		if got := s.Mapped().MappedBytes; got != total {
			t.Fatalf("after %d evictions: %d mapped bytes, want %d", i+1, got, total)
		}
	}
}

// TestMappedPatchCoW patches a mapped document and verifies the new
// generation is heap-backed (no mapped bytes) while the base generation
// keeps answering from the mapping.
func TestMappedPatchCoW(t *testing.T) {
	d := xmark.Generate(xmark.Config{Scale: 0.001, Seed: 9})
	path := saveXQO2(t, d)
	s := New()
	base, err := s.LoadMapped("doc", path)
	if err != nil {
		t.Fatal(err)
	}
	baseXML := base.Doc.XMLString()
	fb := tree.NewBuilder()
	fb.Open("grafted")
	fb.Text("cow")
	fb.Close()
	frag := fb.MustFinish()
	h2, err := s.Patch("doc", base.Gen, tree.Patch{Op: tree.OpInsert, Node: d.DocumentElement(), Before: tree.Nil, Frag: frag})
	if err != nil {
		t.Fatalf("Patch: %v", err)
	}
	if h2.Stats.Source != SourcePatch || h2.Stats.MappedBytes != 0 {
		t.Fatalf("patched generation should be heap-backed: %+v", h2.Stats)
	}
	if h2.Doc.XMLString() == baseXML {
		t.Fatal("patch had no effect")
	}
	if base.Doc.XMLString() != baseXML {
		t.Fatal("patch mutated the mapped base generation")
	}
}
