package tree

import (
	"cmp"
	"fmt"
	"math"
	"slices"
)

// EvClose is the event that ends the innermost open element of a Part.
const EvClose int32 = -1

// Part is one stretch of a document's preorder event stream. A document
// is built from its parts in order: the Builder records a single part,
// the XML parser one per concurrently tokenized chunk of the source, so
// an element may open in one part and close in a later one.
type Part struct {
	// Ev holds, per event, the label of the node to open (>= 0) or
	// EvClose. A LabelText node is a leaf: it takes no EvClose.
	Ev []int32
	// TextLen is the content length of each LabelText event, in order;
	// the contents themselves are concatenated in Blob.
	TextLen []uint32
	Blob    []byte
	// Remap translates Ev's labels into the document's label table
	// (the identity for a part that interned into that table directly).
	// It always maps LabelText to itself: a part's text events are
	// recognisable before translation.
	Remap []LabelID
	// Nodes is the number of opening events in Ev.
	Nodes int
}

// linkAloneBelow is the node count under which Link runs its two passes
// one after the other: a document this small is built before a second
// goroutine would have been scheduled.
const linkAloneBelow = 1 << 15

// Link derives the document of an event stream. Every array is
// allocated once at its final length. The stream must be balanced apart
// from the synthetic root, which Link opens before the first event and
// closes after the last.
//
// Two passes over the events share the work, concurrently for all but
// small documents: one needs no state between events (labels, rare, the
// text directory, the blob), the other the stack of open elements (up,
// size and wide). On a fresh heap most of the time goes to first touches
// of the arrays' pages, which the two passes share.
func Link(names *LabelTable, parts []Part) (*Document, error) {
	n, texts, textBytes := 1, 0, 0
	for i := range parts {
		n += parts[i].Nodes
		texts += len(parts[i].TextLen)
		textBytes += len(parts[i].Blob)
	}
	if n > math.MaxInt32 {
		return nil, fmt.Errorf("tree: %d nodes exceed the 2^31 node-id space", n)
	}
	if err := checkLabelCount(names.Size()); err != nil {
		return nil, err
	}
	if textBytes > math.MaxUint32 {
		panic("tree: text content exceeds 4GB blob limit")
	}
	d := &Document{
		labels:   make([]uint8, n),
		up:       make([]uint16, n),
		size:     make([]uint8, n),
		textBlob: make([]byte, textBytes),
		names:    names,
	}
	var err error
	if n < linkAloneBelow {
		d.fillNodes(parts, texts)
		err = d.linkNodes(parts)
	} else {
		done := make(chan struct{})
		go func() {
			defer close(done)
			d.fillNodes(parts, texts)
		}()
		err = d.linkNodes(parts)
		<-done
	}
	if err != nil {
		return nil, err
	}
	return d, nil
}

// fillNodes sets what a node has by itself: label and text.
func (d *Document) fillNodes(parts []Part, texts int) {
	labels := d.labels
	// A table of 255 names or fewer has no rare label; a longer one costs
	// a pass over the events to size the list.
	rares := 0
	if d.names.Size() > RareLabel {
		for i := range parts {
			for _, e := range parts[i].Ev {
				if e != EvClose && parts[i].Remap[e] >= RareLabel {
					rares++
				}
			}
		}
	}
	rare, rareIDs := NewSeqWriter(rares, Chunks(len(labels))), make([]uint16, 0, rares)
	textNodes := NewSeqWriter(texts, Chunks(len(labels)))
	textOff := NewSeqWriter(texts+1, Chunks(len(d.textBlob)+1))
	v, cur := 1, uint32(0)
	for i := range parts {
		p := &parts[i]
		copy(d.textBlob[cur:], p.Blob)
		partEnd := cur + uint32(len(p.Blob))
		remap, textLen, ti := p.Remap, p.TextLen, 0
		for _, e := range p.Ev {
			if e == EvClose {
				continue
			}
			l := remap[e]
			labels[v] = uint8(min(l, RareLabel))
			if l == LabelText {
				textNodes.Put(0, uint32(v))
				textOff.Put(0, cur)
				cur += textLen[ti]
				ti++
			} else if l >= RareLabel {
				rare.Put(0, uint32(v))
				rareIDs = append(rareIDs, uint16(l))
			}
			v++
		}
		if cur != partEnd || ti != len(textLen) {
			panic("tree: a part's text lengths disagree with its blob")
		}
	}
	textOff.Put(0, cur)
	d.rare, d.rareIDs = rare.Done(), rareIDs
	d.textNodes, d.textOff = textNodes.Done(), textOff.Done()
	if v != len(labels) {
		panic("tree: a part's node count disagrees with its events")
	}
}

// linkNodes sets up, size and wide and checks the stream's balance.
func (d *Document) linkNodes(parts []Part) error {
	up := d.up
	open := make([]NodeID, 1, 64) // the unclosed elements, the root first
	up[0] = 1
	v := NodeID(1)
	for i := range parts {
		for _, e := range parts[i].Ev {
			if e == EvClose {
				if len(open) == 1 {
					return fmt.Errorf("tree: close event with no open element")
				}
				d.closeAt(open[len(open)-1], v-1)
				open = open[:len(open)-1]
				continue
			}
			up[v] = narrow(v - open[len(open)-1])
			if e != int32(LabelText) {
				open = append(open, v)
			}
			v++
		}
	}
	if len(open) != 1 {
		return fmt.Errorf("tree: %d unclosed elements at Finish", len(open)-1)
	}
	d.closeAt(0, v-1)
	// Subtrees close innermost first; the table is kept by rank, and at
	// its exact length like every other array (MemBytes counts lengths).
	d.wide = append(make([]span, 0, len(d.wide)), d.wide...)
	slices.SortFunc(d.wide, func(a, b span) int { return cmp.Compare(a.node, b.node) })
	nest(d.wide)
	return nil
}

// closeAt ends u's subtree at last. Link never calls it for a text node,
// whose size stays 0.
func (d *Document) closeAt(u, last NodeID) {
	if last-u < big {
		d.size[u] = uint8(last - u)
		return
	}
	d.size[u] = big
	d.wide = append(d.wide, span{node: u, last: last})
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
