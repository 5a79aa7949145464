package tree

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"
)

// Piece is one stretch of a document in preorder, in its own coordinates:
// what one chunk of an XML source, or a Builder, writes. Its nodes carry
// the piece's own label ids, and their up and size are the document's
// already, being relative, for every parent and every subtree the piece
// holds whole. What crosses its edges is kept apart for Join, which
// knows the pieces before it: the nodes whose parent lies in an earlier
// piece, the ends of elements an earlier piece opened, and the elements
// the piece leaves open. An element may therefore open in one piece and
// close in a later one.
//
// The per-node arrays are written by position, into room that Reserve
// makes ahead: so Open, Text and Close, which grow nothing, are small
// enough to be inlined into a tokenizer's loop (CI checks).
type Piece struct {
	names *LabelTable // the piece's own label ids, which Join translates into the document's

	labels []uint16 // per node, by its rank in the piece
	up     []uint8
	size   []uint8
	n      NodeID // nodes written
	wide   []span // the subtrees closed in the piece that span big ranks or more

	textOff []uint32 // per text node: where its text starts in Blob
	t       int      // text nodes written

	// Blob is the text of the piece's text nodes, in order: the content of
	// a text node is what the caller appends to Blob after calling Text.
	Blob []byte

	// open holds the unclosed elements of the piece, outermost first,
	// above a first entry of -1 that stands for whatever lies before the
	// piece: a node written while only that is open is an orphan.
	open    []NodeID
	orphans []NodeID // the nodes whose parent lies before the piece
	under   []NodeID // per end of an element opened before the piece, the nodes written before it
}

// NewPiece returns an empty piece labelling its nodes in names, with room
// for the given numbers of nodes, text nodes and bytes of text.
func NewPiece(names *LabelTable, nodes, texts, blob int) *Piece {
	return &Piece{
		names:   names,
		labels:  make([]uint16, nodes),
		up:      make([]uint8, nodes),
		size:    make([]uint8, nodes),
		textOff: make([]uint32, texts),
		Blob:    make([]byte, 0, blob),
		open:    append(make([]NodeID, 0, 32), -1),
	}
}

// Reserve makes room for k more nodes, any of them text nodes. Open and
// Text write by position into room made before: growing the arrays
// themselves would keep them from being inlined.
func (p *Piece) Reserve(k int) {
	if int(p.n)+k > len(p.labels) || p.t+k > len(p.textOff) {
		p.grow(k)
	}
}

// grow is Reserve's slow path: every array at least doubles.
func (p *Piece) grow(k int) {
	n, t := 2*int(p.n)+k+64, 2*p.t+k+16
	p.labels, p.up, p.size = resize(p.labels, n), resize(p.up, n), resize(p.size, n)
	p.textOff = resize(p.textOff, t)
}

// resize returns s lengthened to at least n, its contents kept.
func resize[T any](s []T, n int) []T {
	if n <= len(s) {
		return s
	}
	return append(s, make([]T, n-len(s))...)
}

// Open appends an element labelled l: the nodes after it lie under it
// until the Close that ends it.
func (p *Piece) Open(l LabelID) {
	p.open = append(p.open, p.add(l))
}

// Text appends a text node, a leaf. Its content is what the caller
// appends to Blob before the next node.
func (p *Piece) Text() {
	p.add(LabelText)
	p.textOff[p.t] = uint32(len(p.Blob))
	p.t++
}

// add writes node p.n: its label, and how far up the innermost open
// element lies, listing it as an orphan if nothing of the piece is open
// around it.
func (p *Piece) add(l LabelID) NodeID {
	v, top := p.n, len(p.open)-1
	if top == 0 {
		p.orphans = append(p.orphans, v)
	}
	p.labels[v] = uint16(l)
	p.up[v] = narrow(v - p.open[top])
	p.n++
	return v
}

// Close ends the innermost open element, or, when the piece has none
// open, one that an earlier piece opened.
func (p *Piece) Close() {
	top := len(p.open) - 1
	if top == 0 {
		p.under = append(p.under, p.n)
		return
	}
	u, last := p.open[top], p.n-1
	if last-u >= big {
		p.wide = append(p.wide, span{node: u, last: last})
	}
	p.size[u] = narrow(last - u)
	p.open = p.open[:top]
}

// Depth reports how many elements of the piece are open.
func (p *Piece) Depth() int { return len(p.open) - 1 }

// Innermost returns the label of the innermost open element of the
// piece, which must have one.
func (p *Piece) Innermost() LabelID { return LabelID(p.labels[p.open[len(p.open)-1]]) }

// Unclosed returns the names of the elements the piece leaves open,
// outermost first.
func (p *Piece) Unclosed() []string {
	names := make([]string, 0, p.Depth())
	for _, u := range p.open[1:] {
		names = append(names, p.names.Name(LabelID(p.labels[u])))
	}
	return names
}

// Len reports the number of nodes in the piece.
func (p *Piece) Len() int { return int(p.n) }

// Join assembles a document from its pieces, in order, under the
// synthetic root. Its label table is the registered one of the names
// the pieces' tables hold between them, sorted (sortedTable): whatever
// order the names first occur in, and however the source was cut into
// pieces, a document with these names gets this table, and each piece's
// ids translate into it. Every array is allocated once at its final
// length. The pieces must be balanced together apart from the root,
// which Join opens before the first and closes after the last; a close
// with no element open, or an element left open, is an error, and so is
// a label table past MaxLabels.
//
// One worker per piece copies what the piece holds of the document:
// up, size and the text, the labels through a table from the piece's
// ids, and its text nodes' offsets. What crosses pieces is linked after,
// serially: it is a few entries for every cut (see link). The text
// ranks' directory is counted from the finished labels.
func Join(pieces []*Piece) (*Document, error) {
	var rest []string
	for _, p := range pieces {
		rest = append(rest, p.names.names[ReservedLabels:]...)
	}
	names, err := sortedTable(rest)
	if err != nil {
		return nil, err
	}
	at := make([]place, len(pieces)+1) // the last one past the end: the totals
	at[0].node = 1
	for i, p := range pieces {
		at[i].remap = make([]LabelID, p.names.Size())
		for l, name := range p.names.names {
			at[i].remap[l] = names.ids[name]
		}
		if int(at[i].node)+int(p.n) > math.MaxInt32 {
			return nil, fmt.Errorf("tree: more than 2^31 nodes exceed the node-id space")
		}
		at[i+1] = place{node: at[i].node + p.n, text: at[i].text + p.t, blob: at[i].blob + len(p.Blob)}
	}
	end := at[len(pieces)]
	if end.blob > math.MaxUint32 {
		panic("tree: text content exceeds 4GB blob limit")
	}
	n := int(end.node)
	d := &Document{
		labels:   make([]uint8, n),
		up:       make([]uint8, n),
		size:     make([]uint8, n),
		textOff:  Seq{Lo: make([]uint16, end.text+1), Start: make([]uint32, Chunks(end.blob+1)+1)},
		textBlob: make([]byte, end.blob),
		names:    names,
	}
	var wg sync.WaitGroup
	for i := 1; i < len(pieces); i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			d.fill(pieces[i], &at[i])
		}()
	}
	d.fill(pieces[0], &at[0])
	wg.Wait()

	if err := d.link(pieces, at); err != nil {
		return nil, err
	}
	textOff := make([]run, len(pieces)+1)
	for i, p := range pieces {
		textOff[i] = run{p.textOff[:p.t], uint32(at[i].blob), at[i].text}
	}
	textOff[len(pieces)] = run{[]uint32{0}, uint32(end.blob), end.text} // the blob's end
	d.textOff.Lo[end.text] = uint16(end.blob)
	directory(d.textOff.Start, textOff)
	d.textBefore = textDirectory(d.labels)
	d.rareList(at)
	return d, nil
}

// place is where a piece lies in the document: its first node, text node
// and byte of text, how its label ids translate, and, once filled, its
// nodes whose label the byte does not hold, with their ids.
type place struct {
	node       NodeID
	text, blob int
	remap      []LabelID
	rare       []uint32
	rareIDs    []uint16
}

// fill writes into d what piece p, placed at pl, holds of it: up, size,
// labels through remap, its text, and the halves of its text nodes'
// offsets. It lists the piece's rarely labelled nodes in pl:
// none unless the document has more than 255 names.
func (d *Document) fill(p *Piece, pl *place) {
	b := pl.node
	copy(d.up[b:], p.up[:p.n])
	copy(d.size[b:], p.size[:p.n])
	copy(d.textBlob[pl.blob:], p.Blob)
	labels := d.labels[b : b+p.n]
	if len(pl.remap) <= 256 {
		var to [256]uint8
		for l, g := range pl.remap {
			to[l] = uint8(min(g, RareLabel))
		}
		for v, l := range p.labels[:p.n] {
			labels[v] = to[uint8(l)]
		}
	} else {
		to := make([]uint8, len(pl.remap))
		for l, g := range pl.remap {
			to[l] = uint8(min(g, RareLabel))
		}
		for v, l := range p.labels[:p.n] {
			labels[v] = to[l]
		}
	}
	for j, o := range p.textOff[:p.t] {
		d.textOff.Lo[pl.text+j] = uint16(uint32(pl.blob) + o)
	}
	if d.names.Size() > RareLabel {
		for v, l := range p.labels[:p.n] {
			if g := pl.remap[l]; g >= RareLabel {
				pl.rare, pl.rareIDs = append(pl.rare, uint32(b)+uint32(v)), append(pl.rareIDs, uint16(g))
			}
		}
	}
}

// link sets what no piece knows: the parent of each node whose parent
// lies in an earlier piece, the size (and wide entry) of each element
// closed in a later piece and the root's, and the wide table, from the
// pieces' own entries and those. It walks the open elements from piece
// to piece: a piece's orphans hang under the innermost, after the ends
// of earlier elements written before them have closed what they close.
func (d *Document) link(pieces []*Piece, at []place) error {
	open := make([]NodeID, 1, 64) // the elements open across the cut, the root first
	wide := 0
	for i, p := range pieces {
		b, k := at[i].node, 0
		for j := 0; ; j++ {
			r := p.n // past the last orphan: every end left
			if j < len(p.orphans) {
				r = p.orphans[j]
			}
			for ; k < len(p.under) && p.under[k] <= r; k++ {
				if len(open) == 1 {
					return fmt.Errorf("tree: a close with no open element")
				}
				d.closeAt(open[len(open)-1], b+p.under[k]-1)
				open = open[:len(open)-1]
			}
			if j == len(p.orphans) {
				break
			}
			d.up[b+r] = narrow(b + r - open[len(open)-1])
		}
		for _, u := range p.open[1:] {
			open = append(open, b+u)
		}
		wide += len(p.wide)
	}
	if len(open) != 1 {
		return fmt.Errorf("tree: %d elements left open at the end", len(open)-1)
	}
	d.up[0] = 1
	d.closeAt(0, NodeID(len(d.labels))-1)
	// The table is kept by rank, and at its exact length like every other
	// array (MemBytes counts lengths).
	all := append(make([]span, 0, len(d.wide)+wide), d.wide...)
	for i, p := range pieces {
		for _, s := range p.wide {
			all = append(all, span{node: s.node + at[i].node, last: s.last + at[i].node})
		}
	}
	slices.SortFunc(all, func(a, b span) int { return cmp.Compare(a.node, b.node) })
	nest(all)
	d.wide = all
	return nil
}

// closeAt ends u's subtree at last.
func (d *Document) closeAt(u, last NodeID) {
	if last-u < big {
		d.size[u] = uint8(last - u)
		return
	}
	d.size[u] = big
	d.wide = append(d.wide, span{node: u, last: last})
}

// run is one piece's stretch of a sorted sequence: its values as the
// piece knows them, what they add to be the document's, and the index of
// the first in the sequence.
type run struct {
	vals []uint32
	add  uint32
	at   int
}

// directory sets the chunk starts of the sequence the runs make, in
// order: for every chunk, the first element in it or after it, found by
// a search of the one run where it lies.
func directory(start []uint32, runs []run) {
	i, last := 0, runs[len(runs)-1]
	for c := 1; c < len(start); c++ {
		x := uint32(c) << 16
		for i < len(runs) && (len(runs[i].vals) == 0 || runs[i].vals[len(runs[i].vals)-1]+runs[i].add < x) {
			i++
		}
		if i == len(runs) || c == len(start)-1 {
			start[c] = uint32(last.at + len(last.vals))
			continue
		}
		r := runs[i]
		start[c] = uint32(r.at + sort.Search(len(r.vals), func(j int) bool { return r.vals[j]+r.add >= x }))
	}
}

// rareList sets rare and rareIDs from the pieces' lists, in order.
func (d *Document) rareList(at []place) {
	n := 0
	for _, pl := range at {
		n += len(pl.rare)
	}
	w := NewSeqWriter(n, Chunks(len(d.labels)))
	d.rareIDs = make([]uint16, 0, n)
	for _, pl := range at {
		for _, v := range pl.rare {
			w.Put(0, v)
		}
		d.rareIDs = append(d.rareIDs, pl.rareIDs...)
	}
	d.rare = w.Done()
}

// nest sets outer in every entry of wide, which must be sorted by rank
// and hold spans that nest or lie apart.
func nest(wide []span) {
	for i := range wide {
		wide[i].outer = around(wide, i)
	}
}

// around returns the index of the innermost of wide[:i] whose span holds
// the node of entry i, or -1, given outer in the entries before i. The
// entries around entry i are entry i-1 or around it, so the chain of outer
// from i-1 is the stack of open spans: the ones that end before i starts
// are passed once and never met again, and a pass over the table that
// asks this of every entry is linear in it.
func around(wide []span, i int) int32 {
	o := int32(i) - 1
	for o >= 0 && wide[o].last < wide[i].node {
		o = wide[o].outer
	}
	return o
}
