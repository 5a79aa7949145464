package tree

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"runtime"
	"sync"
	"unsafe"
)

// XQO2 resident layout — the only binary document format. It stores
// every array of the in-memory representation (labels, up, size, wide,
// the rare labels, the text offsets as halves + directory, the blob, the
// label table, the index's occurrence table) verbatim in 64-byte-aligned,
// CRC-checksummed sections, so an mmap'd file can be aliased into live
// structures without copying anything, and nothing else: a section no
// query reads would be written, checksummed and paged for nothing. The
// one thing an open builds is the text ranks' directory, one word per
// 1 024 nodes, counted from the checksummed labels.
// Opening a corpus is page-table setup; the OS pages cold documents.
//
//	offset 0   magic "XQO2"
//	       4   version  (uint32 LE)
//	       8   endianness mark (native uint64; must read 0x0102030405060708)
//	      16   section count (uint32 LE), 4 reserved bytes
//	      24   section table: count × {kind u32, crc32c u32, off u64, len u64}
//	   aligned payload sections, each padded to a 64-byte boundary
//
// Scalar header/table fields are little-endian; section payloads are
// native-endian (that is the point of the endianness mark: a file written
// on a foreign-endian machine is rejected at open instead of silently
// misread). Section CRCs are CRC32-Castagnoli over the raw payload and
// are verified at open — still orders of magnitude cheaper than a parse.
//
// Version 4 is version 3 with the same section kinds meaning other
// things — labels in 16 bits (kind 2), text offsets per text node, not
// per node (kind 8), the text nodes listed once, by the document (the
// new kind 16), and no longer among the index's occurrences (kind 33) —
// which no reader could tell from the kinds, hence the bump. Version 5
// stores the topology relative and narrow: parent (kind 3) and lastDesc
// (kind 6), four bytes a node each, gave way to up (17) and size (18),
// two bytes each, and the wide table (19) their escapes are answered
// from. The kinds are new, but a version-4 reader would report a missing
// section and a version-5 reader of a version-4 file likewise, where the
// version check names the cause and the remedy. Version 6 stores every
// sorted sequence as a Seq: the text nodes' ranks (kind 16), their
// offsets (8) and the index's occurrences (33) hold 16-bit halves where
// they held 32-bit values, the index's directory (32) chunk starts per
// label where it held one 64-bit offset per label, and the two text
// sequences gained a directory each (20, 21) — again kinds kept with
// another shape, which only the version can tell. Version 7 stores labels
// (kind 2) and size (18) in one byte a node where they took two, lists
// the nodes whose label does not fit (22, 23) with their ids (24), and
// widens an entry of the wide table (19) from two words to three, for
// the entry around it. Version 8 drops the balanced-parentheses view
// (kinds 12–15), which no evaluator, index or service path reads, and
// its two scalars from the meta section (1), which shrinks from four
// words to two. Version 9 stores up (kind 17) in one byte a node where it
// took two, its escape 0xFF where it was 0xFFFF; the wide table (19)
// holds the same entries. Version 10 drops the text nodes' ranks (kinds
// 16 and 20): the label bytes say which nodes are #text, and a text
// rank is counted from them. A file of another version is refused with
// the command that re-saves it.
//
// This file owns the container plus the document's sections;
// internal/index adds its sections in its own layout file (the index
// package imports tree, not vice versa) and internal/store composes the
// two into save/open-file operations.

const (
	xqo2Magic      = "XQO2"
	xqo2Version    = 10
	xqo2Align      = 64
	xqo2EndianMark = 0x0102030405060708
	xqo2HeaderLen  = 24
	xqo2EntryLen   = 24
)

// Section kinds. The tree package owns kinds below 32; other packages
// layer their sections on top (internal/index uses 32+). Kinds 4, 5 and
// 7 (version 2's firstChild, nextSibling and depth), 3 and 6 (parent
// and lastDesc, up to version 4), 12–15 (the balanced-parentheses view,
// up to version 7) and 16 and 20 (the text nodes' ranks and their
// directory, up to version 9) are retired and stay reserved; kinds 2 and
// 8 kept their meaning and changed their shape in version 4, kind 8
// again in version 6, kinds 2, 18 and 19 in version 7, kind 1 in version
// 8, kind 17 in version 9.
const (
	SecDocMeta    uint32 = 1  // scalars: numNodes, numNames
	SecLabels     uint32 = 2  // []uint8, len numNodes: the LabelID, or 0xFF
	SecTextOff    uint32 = 8  // []uint16, one per node labelled #text and one more: the halves of each one's start in the blob, in preorder, then of its end
	SecTextBlob   uint32 = 9  // raw bytes
	SecNameOff    uint32 = 10 // []uint32, len numNames+1
	SecNameBlob   uint32 = 11 // raw bytes
	SecUp         uint32 = 17 // []uint8, len numNodes: v - parent, or 0xFF
	SecSize       uint32 = 18 // []uint8, len numNodes: lastDesc - v, or 0xFF
	SecWide       uint32 = 19 // []{node, last NodeID; outer int32}: the nodes whose size is 0xFF, ascending, each with the index of the entry around it
	SecTextOffDir uint32 = 21 // []uint32, one per 65 536 blob bytes and one more: where each chunk of SecTextOff starts
	SecRare       uint32 = 22 // []uint16: the halves of the ranks of the nodes whose label is 0xFF, ascending
	SecRareDir    uint32 = 23 // []uint32, one per 65 536 ranks and one more: where each chunk of SecRare starts
	SecRareIDs    uint32 = 24 // []uint16, len(SecRare): the LabelID of each, 255 or more
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// SliceBytes reinterprets a slice of fixed-size pointer-free scalars
// (int32, uint32, uint64, NodeID, ...) as its raw native-endian bytes
// without copying. The result aliases s.
func SliceBytes[T any](s []T) []byte {
	if len(s) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&s[0])), len(s)*int(unsafe.Sizeof(s[0])))
}

// AliasSlice reinterprets raw bytes — typically a section of a mapped
// XQO2 file — as a slice of fixed-size pointer-free scalars, without
// copying. It fails if the byte length is not a multiple of the element
// size or the data is misaligned for the element (section payloads are
// 64-byte aligned, so this only trips on corrupt section tables).
func AliasSlice[T any](b []byte) ([]T, error) {
	var zero T
	size := int(unsafe.Sizeof(zero))
	if len(b) == 0 {
		return nil, nil
	}
	if len(b)%size != 0 {
		return nil, fmt.Errorf("tree: section length %d not a multiple of element size %d", len(b), size)
	}
	if align := unsafe.Alignof(zero); uintptr(unsafe.Pointer(&b[0]))%align != 0 {
		return nil, fmt.Errorf("tree: section misaligned for elements aligned to %d", align)
	}
	return unsafe.Slice((*T)(unsafe.Pointer(&b[0])), len(b)/size), nil
}

// LayoutWriter accumulates sections and writes the container.
type LayoutWriter struct {
	kinds []uint32
	data  [][]byte
}

// NewLayoutWriter returns an empty container writer.
func NewLayoutWriter() *LayoutWriter { return &LayoutWriter{} }

// Add appends one section. Kinds must be unique within a container; data
// is written verbatim (native-endian payloads by convention).
func (w *LayoutWriter) Add(kind uint32, data []byte) {
	w.kinds = append(w.kinds, kind)
	w.data = append(w.data, data)
}

// WriteTo writes the assembled container.
func (w *LayoutWriter) WriteTo(out io.Writer) (int64, error) {
	count := len(w.kinds)
	tableLen := xqo2HeaderLen + count*xqo2EntryLen
	head := make([]byte, tableLen)
	copy(head, xqo2Magic)
	binary.LittleEndian.PutUint32(head[4:], xqo2Version)
	*(*uint64)(unsafe.Pointer(&head[8])) = xqo2EndianMark
	binary.LittleEndian.PutUint32(head[16:], uint32(count))

	off := align64(tableLen)
	for i, d := range w.data {
		e := head[xqo2HeaderLen+i*xqo2EntryLen:]
		binary.LittleEndian.PutUint32(e[0:], w.kinds[i])
		binary.LittleEndian.PutUint32(e[4:], crc32.Checksum(d, castagnoli))
		binary.LittleEndian.PutUint64(e[8:], uint64(off))
		binary.LittleEndian.PutUint64(e[16:], uint64(len(d)))
		off = align64(off + len(d))
	}

	var n int64
	var pad [xqo2Align]byte
	write := func(b []byte) error {
		k, err := out.Write(b)
		n += int64(k)
		return err
	}
	if err := write(head); err != nil {
		return n, err
	}
	if p := align64(tableLen) - tableLen; p > 0 {
		if err := write(pad[:p]); err != nil {
			return n, err
		}
	}
	for _, d := range w.data {
		if err := write(d); err != nil {
			return n, err
		}
		if p := align64(len(d)) - len(d); p > 0 {
			if err := write(pad[:p]); err != nil {
				return n, err
			}
		}
	}
	return n, nil
}

func align64(n int) int { return (n + xqo2Align - 1) &^ (xqo2Align - 1) }

// Layout is an opened XQO2 container: a parsed section table over a
// (typically mapped) byte buffer, with every section checksum verified.
type Layout struct {
	secs  map[uint32][]byte
	owner any
}

// OpenLayout parses and verifies a container. owner is the object that
// keeps data's backing memory alive (an mmapx.Mapping); structures built
// from the layout retain it so slices never outlive their pages. Every
// section's bounds and CRC are checked here, so corruption surfaces as a
// wrapped error at open rather than a fault mid-query — in table order,
// naming the first bad section, on the caller's goroutine: callers that
// open many files run the opens in parallel instead (DESIGN "Preload").
func OpenLayout(data []byte, owner any) (*Layout, error) {
	if len(data) >= 4 && string(data[:4]) == "XQO1" {
		// Checked before the length and magic tests so a file in the
		// removed event-stream format gets an actionable message instead
		// of "short file" or "bad magic".
		return nil, fmt.Errorf("tree: this is an XQO1 event-stream file; that format was removed and XQO2 is the only binary format — regenerate the file from its XML source (xpq -file doc.xml -save doc.xqo2)")
	}
	if len(data) < xqo2HeaderLen {
		return nil, fmt.Errorf("tree: xqo2: short file (%d bytes)", len(data))
	}
	if string(data[:4]) != xqo2Magic {
		return nil, fmt.Errorf("tree: xqo2: bad magic %q", data[:4])
	}
	if v := binary.LittleEndian.Uint32(data[4:]); v != xqo2Version {
		return nil, fmt.Errorf("tree: xqo2: unsupported version %d (want %d) — a resident file is a cache artifact of the build that wrote it; regenerate it from its XML source (xpq -file doc.xml -save doc.xqo2)", v, xqo2Version)
	}
	if mark := *(*uint64)(unsafe.Pointer(&data[8])); mark != xqo2EndianMark {
		return nil, fmt.Errorf("tree: xqo2: endianness mismatch (file written on a foreign-endian machine)")
	}
	count := int(binary.LittleEndian.Uint32(data[16:]))
	if count < 0 || count > 1<<16 {
		return nil, fmt.Errorf("tree: xqo2: unreasonable section count %d", count)
	}
	tableLen := xqo2HeaderLen + count*xqo2EntryLen
	if len(data) < tableLen {
		return nil, fmt.Errorf("tree: xqo2: truncated section table (%d bytes, need %d)", len(data), tableLen)
	}
	l := &Layout{secs: make(map[uint32][]byte, count), owner: owner}
	for i := 0; i < count; i++ {
		e := data[xqo2HeaderLen+i*xqo2EntryLen:]
		kind := binary.LittleEndian.Uint32(e[0:])
		crc := binary.LittleEndian.Uint32(e[4:])
		off := binary.LittleEndian.Uint64(e[8:])
		length := binary.LittleEndian.Uint64(e[16:])
		if off%xqo2Align != 0 {
			return nil, fmt.Errorf("tree: xqo2: section %d misaligned offset %d", kind, off)
		}
		if off > uint64(len(data)) || length > uint64(len(data))-off {
			return nil, fmt.Errorf("tree: xqo2: section %d out of bounds (off %d len %d, file %d)", kind, off, length, len(data))
		}
		if _, dup := l.secs[kind]; dup {
			return nil, fmt.Errorf("tree: xqo2: duplicate section %d", kind)
		}
		sec := data[off : off+length : off+length]
		if got := crc32.Checksum(sec, castagnoli); got != crc {
			return nil, fmt.Errorf("tree: xqo2: section %d checksum mismatch (%08x != %08x)", kind, got, crc)
		}
		l.secs[kind] = sec
	}
	return l, nil
}

// inParallel runs fn(0..n-1) across goroutines and returns the error of
// the lowest failing index (deterministic messages for corrupt files).
// VerifyStructure's passes are each memory-bound streaming scans of the
// whole document, so they scale with cores.
func inParallel(n int, fn func(i int) error) error {
	// On a single-P runtime the goroutines would just serialize with
	// scheduling overhead on top, so run inline; the error reported is
	// the lowest-index failure either way.
	if n <= 1 || runtime.GOMAXPROCS(0) == 1 {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, n)
	var wg sync.WaitGroup
	wg.Add(n)
	for i := 0; i < n; i++ {
		go func(i int) {
			defer wg.Done()
			errs[i] = fn(i)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Section returns a section's payload, or nil if absent. The slice
// aliases the container's buffer.
func (l *Layout) Section(kind uint32) []byte { return l.secs[kind] }

// section is Section with a required-presence, exact-element-count check.
func layoutSlice[T any](l *Layout, kind uint32, wantLen int) ([]T, error) {
	b, ok := l.secs[kind]
	if !ok {
		return nil, fmt.Errorf("tree: xqo2: missing section %d", kind)
	}
	s, err := AliasSlice[T](b)
	if err != nil {
		return nil, fmt.Errorf("tree: xqo2: section %d: %w", kind, err)
	}
	if wantLen >= 0 && len(s) != wantLen {
		return nil, fmt.Errorf("tree: xqo2: section %d has %d elements (want %d)", kind, len(s), wantLen)
	}
	return s, nil
}

// AddDocumentSections serializes d into w. The sections alias d's live
// arrays — nothing is copied until WriteTo. The third argument is ignored:
// it exists only for cmd/xpqbench's format probe, which passes one.
func AddDocumentSections(w *LayoutWriter, d *Document, _ *Succinct) {
	meta := make([]byte, 16)
	binary.LittleEndian.PutUint64(meta[0:], uint64(d.NumNodes()))
	binary.LittleEndian.PutUint64(meta[8:], uint64(d.names.Size()))
	w.Add(SecDocMeta, meta)
	w.Add(SecLabels, SliceBytes(d.labels))
	w.Add(SecUp, SliceBytes(d.up))
	w.Add(SecSize, SliceBytes(d.size))
	w.Add(SecWide, SliceBytes(d.wide))
	w.Add(SecRare, SliceBytes(d.rare.Lo))
	w.Add(SecRareDir, SliceBytes(d.rare.Start))
	w.Add(SecRareIDs, SliceBytes(d.rareIDs))
	w.Add(SecTextOff, SliceBytes(d.textOff.Lo))
	w.Add(SecTextOffDir, SliceBytes(d.textOff.Start))
	w.Add(SecTextBlob, d.textBlob)
	nameOff := make([]uint32, 0, d.names.Size()+1)
	var nameBlob []byte
	for _, name := range d.names.names {
		nameOff = append(nameOff, uint32(len(nameBlob)))
		nameBlob = append(nameBlob, name...)
	}
	nameOff = append(nameOff, uint32(len(nameBlob)))
	w.Add(SecNameOff, SliceBytes(nameOff))
	w.Add(SecNameBlob, nameBlob)
}

// DocumentFromLayout reassembles a Document from an opened container.
// The big arrays alias the container's buffer; only the label table (a
// handful of names) is on the heap, and shared with the documents that
// have the same names (see LabelTable). The
// document retains the layout's owner, keeping the mapping
// alive as long as the document (or any generation sharing its arrays)
// is reachable.
func DocumentFromLayout(l *Layout) (*Document, error) {
	meta := l.Section(SecDocMeta)
	if len(meta) != 16 {
		return nil, fmt.Errorf("tree: xqo2: doc meta section has %d bytes (want 16)", len(meta))
	}
	n := int(binary.LittleEndian.Uint64(meta[0:]))
	numNames := int(binary.LittleEndian.Uint64(meta[8:]))
	if n < 1 || n > 1<<31-1 {
		return nil, fmt.Errorf("tree: xqo2: unreasonable node count %d", n)
	}
	if numNames < ReservedLabels || numNames > MaxLabels {
		return nil, fmt.Errorf("tree: xqo2: unreasonable label count %d", numNames)
	}

	d := &Document{mapping: l.owner}
	var err error
	if d.labels, err = layoutSlice[uint8](l, SecLabels, n); err != nil {
		return nil, err
	}
	if d.up, err = layoutSlice[uint8](l, SecUp, n); err != nil {
		return nil, err
	}
	if d.size, err = layoutSlice[uint8](l, SecSize, n); err != nil {
		return nil, err
	}
	if d.wide, err = layoutSlice[span](l, SecWide, -1); err != nil {
		return nil, err
	}
	if d.rare, err = SeqFromLayout(l, SecRare, SecRareDir, -1, Chunks(n)); err != nil {
		return nil, err
	}
	if d.rareIDs, err = layoutSlice[uint16](l, SecRareIDs, d.rare.Len()); err != nil {
		return nil, err
	}
	d.textBlob = l.Section(SecTextBlob)
	d.textBefore = textDirectory(d.labels)
	texts := d.TextRank(NodeID(n))
	if d.textOff, err = SeqFromLayout(l, SecTextOff, SecTextOffDir, texts+1, Chunks(len(d.textBlob)+1)); err != nil {
		return nil, fmt.Errorf("tree: xqo2: offsets of the %d nodes labelled #text: %w", texts, err)
	}

	// Shape checks here cost nothing per node but the count of the #text
	// labels the text ranks' directory is built from: section lengths
	// against the node, text-node and rare-label counts, the two
	// directories (SeqFromLayout), the text offsets' two ends against the
	// blob, and the two tables an escape is answered from — the wide one, a
	// dozen entries on a million nodes, and the rare labels' ids, none for
	// a document of 255 names or fewer — being ones a lookup can trust.
	// Element-wise structural validation — up and size describing a tree,
	// their escapes matching the table, the nodes listed as rare being the
	// nodes labelled so, #text nodes being leaves, the offsets monotone — is
	// the opt-in VerifyStructure pass: the default open trusts checksummed
	// content (the CRCs catch corruption; the format is a cache artifact
	// written by this process), because re-proving every array on every
	// open would cost more than the rest of the zero-copy open combined.
	// Untrusted files go through VerifyStructure, which errors instead of
	// letting a crafted value panic a later query.
	if first, last := d.textOff.At(0), d.textOff.At(texts); first != 0 || int(last) != len(d.textBlob) {
		return nil, fmt.Errorf("tree: xqo2: text offsets span [%d, %d) of a %d-byte blob", first, last, len(d.textBlob))
	}
	if err := d.checkWide(); err != nil {
		return nil, err
	}
	if err := d.checkRareIDs(numNames); err != nil {
		return nil, err
	}

	// Label table: the registered one with these names in this order,
	// made from a copy of the name bytes if no live document has it, so
	// neither it nor a patched generation's table aliases the mapping. A
	// file Join wrote lists its names sorted, and shares its table with
	// every document of the same names; one in another order opens too.
	nameOff, err := layoutSlice[uint32](l, SecNameOff, numNames+1)
	if err != nil {
		return nil, err
	}
	nameBlob := l.Section(SecNameBlob)
	key := make([]byte, 0, len(nameBlob)+2*numNames)
	for i := range numNames {
		if nameOff[i] > nameOff[i+1] || int(nameOff[i+1]) > len(nameBlob) {
			return nil, fmt.Errorf("tree: xqo2: label name %d offsets invalid", i)
		}
		key = appendKey(key, nameBlob[nameOff[i]:nameOff[i+1]])
	}
	lt := registered(key, numNames)
	if lt.names[LabelDoc] != "#doc" || lt.names[LabelText] != "#text" {
		return nil, fmt.Errorf("tree: xqo2: reserved labels missing (%q, %q)", lt.names[LabelDoc], lt.names[LabelText])
	}
	d.names = lt
	return d, nil
}

// checkWide proves the wide table alone, in O(|wide|): ranks strictly
// increasing, every span within the document and big ranks long or more,
// any two nested or disjoint, and outer the innermost entry around each —
// found as nest finds it, over entries already proven. Whatever up
// and size hold, a lookup in such a table ends, and returns a node of the
// document or Nil.
func (d *Document) checkWide() error {
	n, prev := NodeID(len(d.labels)), Nil
	for i, s := range d.wide {
		if s.node <= prev || s.last >= n || s.last < s.node || s.last-s.node < big {
			return fmt.Errorf("tree: xqo2: wide entry %d spans [%d, %d] after node %d of %d (want at least %d ranks, in order)", i, s.node, s.last, prev, n, big)
		}
		o := around(d.wide, i)
		if o >= 0 && s.last > d.wide[o].last {
			return fmt.Errorf("tree: xqo2: wide entry %d spans [%d, %d], across the end of the span around it (%d)", i, s.node, s.last, d.wide[o].last)
		}
		if s.outer != o {
			return fmt.Errorf("tree: xqo2: wide entry %d names entry %d as the one around it, which is entry %d", i, s.outer, o)
		}
		prev = s.node
	}
	return nil
}

// checkRareIDs proves the rare labels' ids alone, in O(|rare|): each one
// that takes the escape, within a table of sigma names. Whatever labels
// and rare hold, a lookup among such ids returns a label of the table.
func (d *Document) checkRareIDs(sigma int) error {
	for i, id := range d.rareIDs {
		if id < RareLabel || int(id) >= sigma {
			return fmt.Errorf("tree: xqo2: rare label %d is id %d (want %d to %d)", i, id, RareLabel, sigma-1)
		}
	}
	return nil
}

// VerifyStructure runs the element-wise structural validation that the
// zero-copy open skips by default: up, size and wide describing one
// tree in preorder whose #text nodes are leaves, labels within the name
// table, the nodes listed as rare being exactly the nodes holding the
// label escape, and the text offsets monotone across the blob. It is
// the defense for files from outside this process — a crafted value
// that passes the checksums (which only catch corruption) would
// otherwise surface as a bounds panic, or a parent walk that never
// ends, on whatever query first touches it. The three checks run in
// parallel; they only read.
func (d *Document) VerifyStructure() error {
	checks := []func() error{d.verifyLabels, d.verifyTree, d.verifyText}
	return inParallel(len(checks), func(i int) error { return checks[i]() })
}

// verifyLabels proves every label within the name table, and rare the
// list of exactly the nodes whose label byte is the escape: strictly
// increasing within [0, n), each listed node holding the escape and an id
// that takes one, and as many nodes holding it as are listed.
func (d *Document) verifyLabels() error {
	n, sigma, prev, listed := len(d.labels), d.names.Size(), -1, 0
	if len(d.rareIDs) != d.rare.Len() {
		return fmt.Errorf("tree: xqo2: %d ids for %d rare labels", len(d.rareIDs), d.rare.Len())
	}
	if err := d.checkRareIDs(sigma); err != nil {
		return err
	}
	for u := range d.rare.From(0) {
		v := int(u)
		if v <= prev || v >= n {
			return fmt.Errorf("tree: xqo2: rare label list entry %d is node %d, after node %d of %d", listed, v, prev, n)
		}
		if d.labels[v] != RareLabel {
			return fmt.Errorf("tree: xqo2: node %d is listed as rare but carries label %d", v, d.labels[v])
		}
		prev = v
		listed++
	}
	for v, l := range d.labels {
		if l == RareLabel {
			listed--
		} else if int(l) >= sigma {
			return fmt.Errorf("tree: xqo2: node %d label %d out of range", v, l)
		}
	}
	if listed != 0 {
		return fmt.Errorf("tree: xqo2: %d nodes carry the rare label and are not listed", -listed)
	}
	return nil
}

// verifyText proves the text offsets non-decreasing; the open proved
// that there is one for every node labelled #text and one more, from 0
// to the blob's length. What passes makes Text right on every node, and
// the texts in preorder concatenate to the blob. The directory was
// proven when the sequence was made; decoded values ascending is the
// halves ascending inside every chunk.
func (d *Document) verifyText() error {
	before, i := uint32(0), 0
	for o := range d.textOff.From(0) {
		if o < before {
			return fmt.Errorf("tree: xqo2: text offset %d (%d) is below the one before it (%d)", i, o, before)
		}
		before = o
		i++
	}
	return nil
}

// verifyTree proves that up, size and wide are the canonical encoding of
// one preorder tree: the root's interval is the whole document, every
// other node's parent is the innermost interval still open at its rank,
// with its own interval inside that one, every distance and every length
// under big is stored as itself and every other as big, and wide lists
// exactly the nodes whose size is big, in order, with their ends and the
// entries around them (checkWide); and no #text node has any node under
// it, as the data model has it (Apply refuses to graft under one). One
// pass with the
// stack of open intervals and one cursor into wide; values are only
// compared, never used as an index, so no content can make the check
// itself fault. What passes is navigable: every parent is a lower rank
// (parent walks reach the root), the intervals nest
// (FirstChild/NextSibling visit each node once), and an up escape finds
// its parent — the innermost open interval, which is big ranks away and
// therefore listed.
func (d *Document) verifyTree() error {
	if err := d.checkWide(); err != nil {
		return err
	}
	up, size, wide := d.up, d.size, d.wide
	n := NodeID(len(up))
	type interval struct{ node, end NodeID }
	open := make([]interval, 1, 64)
	open[0] = interval{Nil, n - 1} // stands above the root: 0 - Nil is the root's up
	for v := NodeID(0); v < n; v++ {
		for open[len(open)-1].end < v {
			open = open[:len(open)-1] // the one above the root never closes before n
		}
		top := open[len(open)-1]
		if up[v] != narrow(v-top.node) {
			return fmt.Errorf("tree: xqo2: node %d has up %d, but lies in the subtree of %d", v, up[v], top.node)
		}
		span, reach := NodeID(size[v]), top.end-v
		if size[v] == big {
			if len(wide) == 0 || wide[0].node != v {
				return fmt.Errorf("tree: xqo2: node %d has a wide subtree and no entry saying where it ends", v)
			}
			span, wide = wide[0].last-v, wide[1:]
		}
		if span > reach || v == 0 && span != reach {
			return fmt.Errorf("tree: xqo2: node %d spans %d ranks of the %d left to its parent", v, span, reach)
		}
		if span > 0 {
			if d.labels[v] == byte(LabelText) {
				return fmt.Errorf("tree: xqo2: node %d, a #text node, has %d nodes under it", v, span)
			}
			open = append(open, interval{v, v + span})
		}
	}
	if len(wide) > 0 {
		return fmt.Errorf("tree: xqo2: wide entry for node %d, whose subtree is not wide", wide[0].node)
	}
	return nil
}
