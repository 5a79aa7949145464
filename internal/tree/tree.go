// Package tree implements the XML document model used throughout the
// engine: an ordinal tree over interned labels, stored in flat preorder
// arrays, together with the "first-child/next-sibling" binary-tree view
// (§2 of the paper) on which the selecting tree automata run.
//
// Nodes are identified by their preorder rank (NodeID); the subtree of v is
// the contiguous preorder interval [v, LastDesc(v)], which is what makes the
// jumping functions of internal/index cheap — and what makes two numbers
// per node, the distance up to its parent and the length of its interval,
// the whole topology: a node's first child is the next rank if its
// interval is longer than itself, its next sibling is the rank after its
// interval if that still lies in the parent's, and its binary subtree
// ends where its parent's interval does. Both numbers are small for
// almost every node, and each is stored in 8 bits (see Document).
//
// Node 0 is always a synthetic document root labeled "#doc" whose single
// element child is the document element; this mirrors the XPath data model
// where "/" addresses the document node, not the root element. Text nodes
// carry the reserved label "#text" and attributes are encoded as children
// labeled "@name" holding one text child (the convention of reference [1]).
package tree

import (
	"bytes"
	"fmt"
	"math"
	"slices"
	"strings"
	"unsafe"
)

// NodeID identifies a node by its 0-based preorder rank.
type NodeID int32

// Nil is the absent node; it plays the role of the binary-tree leaf symbol
// "#" in the paper.
const Nil NodeID = -1

// SortedSet makes ns an answer: strictly increasing, the one form every
// engine hands over and every cursor reads (a cursor binary-searches it
// to resume, and a page would skip or repeat nodes otherwise). It works
// in place and allocates nothing. Engines emit in document order almost
// always, so the common case is one scan; only a slice that the scan
// finds out of order or repeating pays for the sort and the compaction.
func SortedSet(ns []NodeID) []NodeID {
	for i := 1; i < len(ns); i++ {
		if ns[i] <= ns[i-1] {
			slices.Sort(ns)
			return slices.Compact(ns)
		}
	}
	return ns
}

// LabelID is an interned label.
type LabelID int32

// Reserved labels present in every label table.
const (
	LabelDoc  LabelID = 0 // "#doc", the synthetic document root
	LabelText LabelID = 1 // "#text", text nodes
)

// ReservedLabels is the number of pre-interned labels.
const ReservedLabels = 2

// IsAttributeName reports whether a label names an attribute node:
// xmlparse and the xpath parser write attribute x as an "@x" child of
// its element, which makes the attribute axis a child step.
func IsAttributeName(name string) bool { return strings.HasPrefix(name, "@") }

// MaxLabels is the largest label table a document can have: the label of
// a node whose id does not fit its byte is kept in 16 bits (see
// Document). Join and Document.Apply refuse a table that has outgrown it.
const MaxLabels = 1 << 16

// checkLabelCount is that refusal.
func checkLabelCount(n int) error {
	if n > MaxLabels {
		return fmt.Errorf("tree: %d distinct labels exceed the limit of %d a document can hold", n, MaxLabels)
	}
	return nil
}

// Document is an immutable XML document tree.
//
// Topology is stored relative and narrow, a byte a node each:
// Parent(v) = v - up[v] and LastDesc(v) = v + size[v]. A value that does
// not fit is stored as the byte's largest, big (255), which means "look
// in wide": the table, sorted by rank, of exactly the nodes whose subtree
// spans big ranks or more, each with its true last descendant and the
// index of the entry around it. One table serves both arrays. A size
// escape finds its own entry by binary search. An up escape is answered
// by the innermost wide span strictly containing v — a parent big ranks
// away necessarily has a subtree that large — found from the entry
// before v's place in the table by climbing outer, so no per-node
// exception is stored. A depth level holds at most n/255 disjoint
// subtrees that large, so the table has at most n/255 × depth entries
// (fourteen on a million-node XMark document; a chain n deep makes every
// node but its last 255 wide). The root has up = 1, so the subtraction
// itself yields Nil.
//
// A node's label is its LabelID in 8 bits, and RareLabel (255) for every
// id that large or larger, which means "look in rare": the ranks of those
// nodes in preorder, with their ids beside them in rareIDs. Both are
// empty for a document of 255 names or fewer (see MaxLabels). Text
// content lives in one contiguous blob with a directory over the #text
// nodes, the only ones that have any: the text of the i-th of them in
// preorder is textBlob[textOff[i]:textOff[i+1]], and a #text node's i,
// its text rank, is what its label byte says of the nodes before it —
// the count textBefore keeps for every 1 024 ranks, plus the #text bytes
// from there to the node (TextRank). textOff is a Seq, two bytes an
// entry; textBefore is rebuilt from the labels wherever a document is
// made or opened and never stored. This shape — rather than a []string —
// is what lets the XQO2 resident format alias a document's text directly
// out of an mmap'd file, and keeps Text zero-copy either way.
type Document struct {
	labels     []uint8  // per preorder rank: the node's LabelID, or RareLabel
	up         []uint8  // v - Parent(v), or big
	size       []uint8  // LastDesc(v) - v, or big
	wide       []span   // the nodes whose size is big, ascending
	rare       Seq      // the nodes whose label is RareLabel, ascending
	rareIDs    []uint16 // their LabelIDs, in that order
	textBefore []uint32 // per textBlock ranks and one more: the #text nodes before them
	textOff    Seq      // per #text node and one more: where its text starts in textBlob, then the blob's end
	textBlob   []byte
	names      *LabelTable
	// mapping pins the mmap owner for documents aliasing a mapped file,
	// so the mapping outlives every slice derived from it (the owner's
	// finalizer unmaps). nil for heap-backed documents.
	mapping any
}

// textBlock is how many ranks one entry of textBefore stands for: a
// text rank counts at most that many label bytes.
const textBlock = 1024

// big and RareLabel are the values of up and size, and of labels, that
// stand for themselves and for everything larger: the answer is in wide,
// or in rare. RareLabel is exported for the jumping index, which reads
// the label bytes as they lie (Labels, Rare).
const (
	big       = 0xFF
	RareLabel = 0xFF
)

// narrow is a distance or a length as up and size store it.
func narrow(dist NodeID) uint8 { return uint8(min(dist, big)) }

// span is one entry of wide: a node, the last node of its subtree, at
// least big ranks later, and the index in wide of the innermost entry
// whose subtree holds this one — a lower index, or -1 for an entry that
// lies in no other.
type span struct {
	node, last NodeID
	outer      int32
}

// Builder constructs a Document from open/text/close calls. It writes
// one Piece, and Finish joins it (Join), as the XML parser joins the
// pieces of its chunks.
type Builder struct {
	p *Piece
}

// NewBuilder returns a builder whose document already contains the
// synthetic "#doc" root (open); Finish closes it.
func NewBuilder() *Builder {
	return &Builder{p: NewPiece(NewLabelTable(), 0, 0, 0)}
}

// Names exposes the label table so callers can intern labels up front.
func (b *Builder) Names() *LabelTable { return b.p.names }

// Open starts a new element with the given name.
func (b *Builder) Open(name string) NodeID {
	l := b.p.names.Intern(name)
	if l == LabelText {
		panic("tree: text nodes are added with Text, not opened")
	}
	b.p.Reserve(1)
	b.p.Open(l)
	return b.p.n
}

// Text appends a text-node child with the given content.
func (b *Builder) Text(content string) NodeID {
	if len(b.p.Blob)+len(content) > math.MaxUint32 {
		panic("tree: text content exceeds 4GB blob limit")
	}
	b.p.Reserve(1)
	b.p.Text()
	b.p.Blob = append(b.p.Blob, content...)
	return b.p.n
}

// Close ends the current element.
func (b *Builder) Close() { b.p.Close() }

// Depth reports the current element nesting depth (the synthetic root
// counts as 1).
func (b *Builder) Depth() int { return b.p.Depth() + 1 }

// Finish closes the synthetic root and returns the completed document.
// The builder must not be used afterwards.
func (b *Builder) Finish() (*Document, error) {
	d, err := Join([]*Piece{b.p})
	b.p = nil
	return d, err
}

// MustFinish is Finish that panics on error; for tests and generators that
// construct documents programmatically.
func (b *Builder) MustFinish() *Document {
	d, err := b.Finish()
	if err != nil {
		panic(err)
	}
	return d
}

// --- Accessors ---

// NumNodes reports the total number of nodes including the synthetic root.
func (d *Document) NumNodes() int { return len(d.labels) }

// Root returns the synthetic document root (always node 0).
func (d *Document) Root() NodeID { return 0 }

// DocumentElement returns the root element of the document (first child of
// the synthetic root), or Nil for an empty document.
func (d *Document) DocumentElement() NodeID { return d.FirstChild(0) }

// Label returns the label of v. Like Parent and LastDesc, the fast path
// is kept within the compiler's inlining budget and the escape out of
// line (CI checks).
func (d *Document) Label(v NodeID) LabelID {
	if l := d.labels[v]; l != RareLabel {
		return LabelID(l)
	}
	return d.rareLabelOf(v)
}

// rareLabelOf answers a label escape: the id listed for v in rare. A
// miss, which only a file that was not verified can hold, makes v a #doc.
//
//go:noinline
func (d *Document) rareLabelOf(v NodeID) LabelID {
	if i, u := d.rare.Search(uint32(v)); NodeID(u) == v {
		return LabelID(d.rareIDs[i])
	}
	return LabelDoc
}

// Labels returns the label of every node by preorder rank, each a
// LabelID in 8 bits, or RareLabel for a node listed in Rare: the array
// the jumping index inverts. The slice is shared; callers must not modify
// it.
func (d *Document) Labels() []uint8 { return d.labels }

// Rare returns, in preorder, the ranks of the nodes whose LabelID is
// RareLabel or more — the ones Labels holds RareLabel for — and their
// ids, in 16 bits. Both are shared; callers must not modify them.
func (d *Document) Rare() (Seq, []uint16) { return d.rare, d.rareIDs }

// LabelName returns the label of v as a string.
func (d *Document) LabelName(v NodeID) string { return d.names.Name(d.Label(v)) }

// Names returns the document's label table.
func (d *Document) Names() *LabelTable { return d.names }

// Parent returns v's parent, or Nil for the root. The fast path and
// LastDesc's are kept within the compiler's inlining budget, the escapes
// out of line (CI checks that both still inline).
func (d *Document) Parent(v NodeID) NodeID {
	if u := d.up[v]; u != big {
		return v - NodeID(u)
	}
	return d.wideParent(v)
}

// wideParent answers an up escape: the innermost wide span strictly
// containing v. The entry before v's place in the table either contains
// v, and is then the innermost that does, or lies with v under the one
// that does: outer climbs to it, one nesting level a hop, whatever number
// of wide nodes v's preceding siblings have under them. Nil when nothing
// contains v, which only a file that was not verified can hold.
//
//go:noinline
func (d *Document) wideParent(v NodeID) NodeID {
	if i, _ := d.wideAround(v); i >= 0 {
		return d.wide[i].node
	}
	return Nil
}

// wideAround returns the index in wide of the innermost span strictly
// containing v, or -1, and the hops it climbed. Every hop goes to a lower
// index (checkWide proves it of a file's table), so the climb ends.
func (d *Document) wideAround(v NodeID) (i, hops int) {
	for i = d.wideAt(v) - 1; i >= 0 && d.wide[i].last < v; i = int(d.wide[i].outer) {
		hops++
	}
	return i, hops
}

// wideAt returns v's place in wide: the first entry at rank v or later.
// A plain loop, not sort.Search's closure: every up escape comes here.
func (d *Document) wideAt(v NodeID) int {
	lo, hi := 0, len(d.wide)
	for lo < hi {
		if m := int(uint(lo+hi) >> 1); d.wide[m].node < v {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// FirstChild returns v's first child, or Nil: in preorder a node with
// descendants is followed by its first child.
func (d *Document) FirstChild(v NodeID) NodeID {
	if d.size[v] != 0 {
		return v + 1
	}
	return Nil
}

// NextSibling returns v's next sibling, or Nil: the node after v's
// subtree, if the parent's subtree reaches that far. Both navigation
// moves return a rank above v (a subtree never ends before its node), so
// no chain of them can cycle. A loop that descends from a node it knows
// the BinEnd of should carry that end instead of asking again per node:
// the left child of v is v+1 with end LastDesc(v), the right sibling
// LastDesc(v)+1 if that is within v's own end (the automata do).
func (d *Document) NextSibling(v NodeID) NodeID {
	if s := d.LastDesc(v) + 1; s <= d.BinEnd(v) {
		return s
	}
	return Nil
}

// LastDesc returns the last node of v's subtree in preorder (v itself for
// leaves). The subtree of v is exactly the interval [v, LastDesc(v)].
func (d *Document) LastDesc(v NodeID) NodeID {
	if s := d.size[v]; s != big {
		return v + NodeID(s)
	}
	return d.wideLast(v)
}

// wideLast answers a size escape: v's own entry. A miss, which only a
// file that was not verified can hold, makes v a leaf.
//
//go:noinline
func (d *Document) wideLast(v NodeID) NodeID {
	if i := d.wideAt(v); i < len(d.wide) && d.wide[i].node == v {
		return d.wide[i].last
	}
	return v
}

// BinEnd returns the last preorder node of v's binary subtree — v's own
// subtree plus everything under its following siblings, which ends where
// the parent's subtree does (for the root, with the document).
func (d *Document) BinEnd(v NodeID) NodeID {
	if p := d.Parent(v); p != Nil {
		return d.LastDesc(p)
	}
	return NodeID(len(d.labels) - 1)
}

// Depth returns the depth of v, counted along the parent chain; the
// synthetic root has depth 0. O(depth): no evaluator asks for it.
func (d *Document) Depth(v NodeID) int {
	depth := 0
	for p := d.Parent(v); p != Nil; p = d.Parent(p) {
		depth++
	}
	return depth
}

// textDirectory returns textBefore for a document with these labels:
// for every textBlock ranks, and for the rank past the last, how many
// #text nodes lie before them.
func textDirectory(labels []uint8) []uint32 {
	before := make([]uint32, len(labels)/textBlock+1)
	for b := 1; b < len(before); b++ {
		before[b] = before[b-1] + uint32(bytes.Count(labels[(b-1)*textBlock:b*textBlock], []byte{byte(LabelText)}))
	}
	return before
}

// TextRank returns how many #text nodes lie before rank v, for v from 0
// to NumNodes (the count of them all): the number kept for v's block of
// 1 024 ranks, and the #text bytes between the block's start and v. A
// #text node's own rank is its place in the text directory.
func (d *Document) TextRank(v NodeID) int {
	return int(d.textBefore[v/textBlock]) + bytes.Count(d.labels[v&^(textBlock-1):v], []byte{byte(LabelText)})
}

// NextText returns the first #text node after x, or Nil. It reads the
// label bytes forward from x: the next few one by one, since in a
// document with text the next #text node is seldom further, and the
// rest with one bytes.IndexByte. The jumping cursors take #text nodes
// from it; a sweep that only moves forward reads each byte at most once.
func (d *Document) NextText(x NodeID) NodeID {
	from := max(int(x)+1, 0)
	rest := d.labels[min(from, len(d.labels)):]
	near := min(len(rest), 8)
	for i, l := range rest[:near] {
		if l == byte(LabelText) {
			return NodeID(from + i)
		}
	}
	if i := bytes.IndexByte(rest[near:], byte(LabelText)); i >= 0 {
		return NodeID(from + near + i)
	}
	return Nil
}

// Text returns the text content of a #text node (empty for others,
// including Nil and out-of-range ids): a label test, then its string
// value. The string aliases the document's text blob — zero-copy, valid
// for the document's lifetime, and never written to (the blob is
// immutable, possibly a read-only mapping).
func (d *Document) Text(v NodeID) string {
	if v < 0 || int(v) >= len(d.labels) || d.labels[v] != byte(LabelText) {
		return ""
	}
	return d.StringValue(v)
}

// StringValue returns v's string value in the XPath data model: the
// texts of the #text nodes in v's subtree, in document order, end to end
// (for a text node, its own text). It copies nothing: the texts of
// consecutive text ranks lie end to end in textBlob, so the value is the
// one slice from the text rank of v to that of the rank past v's last
// descendant, each offset read by a search of the offsets' chunk starts.
func (d *Document) StringValue(v NodeID) string {
	if v < 0 || int(v) >= len(d.labels) {
		return ""
	}
	end := min(d.LastDesc(v)+1, NodeID(len(d.labels))) // a file that was not verified may claim more
	from, to := d.textOff.At(d.TextRank(v)), d.textOff.At(d.TextRank(end))
	if from > to || int(to) > len(d.textBlob) {
		return "" // only in a file that was not verified
	}
	text := d.textBlob[from:to]
	return unsafe.String(unsafe.SliceData(text), len(text))
}

// MemBytes reports the bytes the document holds: its per-node arrays,
// the wide table, the rare labels, the text ranks' directory, the text
// offsets and the text blob, by their live lengths. Not its label table,
// which the documents with its names share (LabelTable.MemBytes). A
// reflect-based test in internal/store holds it to the struct's slice
// fields, so an added array cannot go uncounted in the store's
// bytes-per-node figure.
func (d *Document) MemBytes() int64 {
	return int64(len(d.labels)+len(d.up)+len(d.size)) + 2*int64(len(d.rareIDs)) +
		int64(len(d.wide))*int64(unsafe.Sizeof(span{})) +
		4*int64(len(d.textBefore)) + d.rare.MemBytes() + d.textOff.MemBytes() +
		int64(len(d.textBlob))
}

// SubtreeSize returns the number of nodes in v's subtree.
func (d *Document) SubtreeSize(v NodeID) int {
	return int(d.LastDesc(v)-v) + 1
}

// --- Binary-tree (first-child/next-sibling) view, §2 of the paper. ---
// Left child of v is FirstChild(v); right child is NextSibling(v); the
// binary leaf "#" is Nil. The binary tree of a document rooted at node 0
// has exactly the document's nodes as internal binary nodes.

// BinaryLeft returns the left child of v in the fcns encoding.
func (d *Document) BinaryLeft(v NodeID) NodeID { return d.FirstChild(v) }

// BinaryRight returns the right child of v in the fcns encoding.
func (d *Document) BinaryRight(v NodeID) NodeID { return d.NextSibling(v) }

// WriteXML serializes the subtree rooted at v (or the whole document if v
// is the synthetic root) back to XML-ish text; used for round-trip tests
// and debugging. Text is emitted raw with minimal escaping; the leading
// "@name" children of an element go back into its start tag.
func (d *Document) WriteXML(sb *strings.Builder, v NodeID) {
	if d.Label(v) == LabelText {
		sb.WriteString(escapeText(d.Text(v)))
		return
	}
	synthetic := d.Label(v) == LabelDoc
	c, end := v+1, d.LastDesc(v)
	if !synthetic {
		sb.WriteByte('<')
		sb.WriteString(d.LabelName(v))
		for ; c <= end && IsAttributeName(d.LabelName(c)); c = d.LastDesc(c) + 1 {
			sb.WriteByte(' ')
			sb.WriteString(d.LabelName(c)[1:])
			sb.WriteString(`="`)
			if d.FirstChild(c) != Nil {
				sb.WriteString(strings.ReplaceAll(escapeText(d.Text(c+1)), `"`, "&quot;"))
			}
			sb.WriteByte('"')
		}
		sb.WriteByte('>')
	}
	for ; c <= end; c = d.LastDesc(c) + 1 {
		d.WriteXML(sb, c)
	}
	if !synthetic {
		sb.WriteString("</")
		sb.WriteString(d.LabelName(v))
		sb.WriteByte('>')
	}
}

// XMLString returns the serialized document.
func (d *Document) XMLString() string {
	var sb strings.Builder
	d.WriteXML(&sb, d.Root())
	return sb.String()
}

var textEscaper = strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;")

func escapeText(s string) string { return textEscaper.Replace(s) }

// Path returns the slash-separated label path from the root element to v;
// for error messages and debugging.
func (d *Document) Path(v NodeID) string {
	var parts []string
	for v != Nil && d.Label(v) != LabelDoc {
		parts = append(parts, d.LabelName(v))
		v = d.Parent(v)
	}
	for i, j := 0, len(parts)-1; i < j; i, j = i+1, j-1 {
		parts[i], parts[j] = parts[j], parts[i]
	}
	return "/" + strings.Join(parts, "/")
}

// CountLabel returns the number of nodes carrying label l; O(n), intended
// for tests (internal/index answers this in O(1)).
func (d *Document) CountLabel(l LabelID) int {
	n := 0
	for v := range d.labels {
		if d.Label(NodeID(v)) == l {
			n++
		}
	}
	return n
}
