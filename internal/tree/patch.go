package tree

import "fmt"

// Subtree-level document mutation. A Document is immutable; Apply
// produces the *next generation* — a new Document sharing nothing
// mutable with its parent — by splicing one contiguous preorder
// interval. Because a subtree is exactly the interval [v, LastDesc(v)],
// every patch (insert, delete, replace) is a single array splice, and
// because up and size are relative, a node's values do not change when
// its rank does: prefix, fragment and suffix are copied as they are.
// What changes is around the splice — its ancestors' intervals grow or
// shrink, and the following siblings of the splice point and of each
// ancestor, the only later nodes whose parent lies before it, end up
// that much further from their parent — and in wide, whose entries after
// the splice shift and whose ancestors may cross the line either way, and
// in rare, whose entries after the splice shift likewise, and in the
// text offsets.
// Nothing is re-linked, because sibling order is implied by the
// intervals: O(n) memcpy instead of an O(n) re-parse plus index rebuild.
// The Delta describing the splice is what lets internal/index update
// incrementally too.

// PatchOp selects the mutation kind.
type PatchOp uint8

// Patch operations.
const (
	// OpInsert grafts Frag's document element as a new child of Node,
	// before Before (or as the last child when Before is Nil).
	OpInsert PatchOp = iota + 1
	// OpDelete removes the subtree rooted at Node.
	OpDelete
	// OpReplace substitutes the subtree rooted at Node with Frag's
	// document element.
	OpReplace
)

// String names the operation for errors and logs.
func (op PatchOp) String() string {
	switch op {
	case OpInsert:
		return "insert"
	case OpDelete:
		return "delete"
	case OpReplace:
		return "replace"
	}
	return fmt.Sprintf("PatchOp(%d)", uint8(op))
}

// ParsePatchOp maps the wire name of an operation to its PatchOp.
func ParsePatchOp(s string) (PatchOp, bool) {
	switch s {
	case "insert":
		return OpInsert, true
	case "delete":
		return OpDelete, true
	case "replace":
		return OpReplace, true
	}
	return 0, false
}

// Patch is one subtree mutation.
type Patch struct {
	// Op is the mutation kind.
	Op PatchOp
	// Node is the patch target: the subtree root to delete or replace,
	// or the parent element receiving an insert.
	Node NodeID
	// Before (insert only) is the existing child of Node the new subtree
	// is inserted before; Nil appends after the last child.
	Before NodeID
	// Frag (insert/replace) carries the grafted subtree: a Document
	// whose #doc root has exactly one element child.
	Frag *Document
}

// Delta describes the preorder splice a patch performed, in terms both
// the old and new documents understand: old nodes < At keep their ids,
// old nodes >= At+Removed shift by Inserted-Removed, and the interval
// [At, At+Removed) of the old document is gone. The jumping index
// consumes this to update incrementally instead of rediffing the trees.
type Delta struct {
	// At is the preorder rank where the splice happens.
	At NodeID
	// Removed and Inserted are the spliced-out and spliced-in node
	// counts (0 Removed for inserts, 0 Inserted for deletes).
	Removed, Inserted int
	// Parent is the parent of the spliced subtree (an old id < At,
	// stable across the patch).
	Parent NodeID
	// Frag is the grafted fragment document (nil for deletes); grafted
	// node f of Frag (f >= 1, skipping its #doc root) has new id
	// At+f-1.
	Frag *Document
}

// NewIDs reports the node-count of the patched document given the old
// count.
func (dl *Delta) NewIDs(oldN int) int { return oldN + dl.Inserted - dl.Removed }

// fragRoot validates a patch fragment and returns its single element
// child (always node 1: the first child of the #doc root in preorder).
func fragRoot(frag *Document) (NodeID, error) {
	if frag == nil || frag.NumNodes() < 2 {
		return Nil, fmt.Errorf("tree: patch fragment is empty")
	}
	const r = NodeID(1)
	if frag.LastDesc(r) != frag.LastDesc(0) {
		return Nil, fmt.Errorf("tree: patch fragment must have exactly one root element")
	}
	if frag.Label(r) == LabelText || IsAttributeName(frag.LabelName(r)) {
		return Nil, fmt.Errorf("tree: patch fragment root must be an element, not text or an attribute")
	}
	return r, nil
}

// checkAttributes refuses to graft an element where it would break the
// attribute encoding WriteXML and the queries rely on: under an
// attribute, or ahead of one (next is the node the graft lands in front
// of, Nil at the end of parent's children). Deletes cannot break it.
func (d *Document) checkAttributes(op PatchOp, parent, next NodeID) error {
	if IsAttributeName(d.LabelName(parent)) || next != Nil && IsAttributeName(d.LabelName(next)) {
		return fmt.Errorf("tree: %s under %s would break the attribute encoding: attributes are the leading @name children of an element, each holding at most one text child", op, d.Path(parent))
	}
	return nil
}

// Apply performs one subtree patch, returning the next generation of
// the document and the Delta describing the splice. The receiver is not
// modified; concurrent readers of it are unaffected.
func (d *Document) Apply(pt Patch) (*Document, *Delta, error) {
	n := NodeID(d.NumNodes())
	validTarget := func(v NodeID) bool { return v > 0 && v < n }

	var (
		q      NodeID // preorder splice position
		parent NodeID // parent of the spliced subtree
		before = Nil  // displaced sibling (insert only)
		k, m   int    // removed / inserted node counts
		frag   *Document
	)
	switch pt.Op {
	case OpDelete, OpReplace:
		if !validTarget(pt.Node) {
			return nil, nil, fmt.Errorf("tree: %s target %d out of range (1..%d)", pt.Op, pt.Node, n-1)
		}
		if pt.Op == OpDelete && pt.Node == d.DocumentElement() {
			return nil, nil, fmt.Errorf("tree: cannot delete the document element (replace it instead)")
		}
		q, parent = pt.Node, d.Parent(pt.Node)
		k = d.SubtreeSize(pt.Node)
		if pt.Op == OpReplace {
			r, err := fragRoot(pt.Frag)
			if err != nil {
				return nil, nil, err
			}
			if err := d.checkAttributes(pt.Op, parent, d.NextSibling(pt.Node)); err != nil {
				return nil, nil, err
			}
			frag = pt.Frag
			m = frag.SubtreeSize(r)
		}
	case OpInsert:
		parent = pt.Node
		if parent < 0 || parent >= n {
			return nil, nil, fmt.Errorf("tree: insert parent %d out of range (0..%d)", parent, n-1)
		}
		if parent == 0 {
			return nil, nil, fmt.Errorf("tree: cannot insert a second document element under the root")
		}
		if d.Label(parent) == LabelText {
			return nil, nil, fmt.Errorf("tree: cannot insert under a text node")
		}
		r, err := fragRoot(pt.Frag)
		if err != nil {
			return nil, nil, err
		}
		frag = pt.Frag
		m = frag.SubtreeSize(r)
		if pt.Before != Nil {
			if !validTarget(pt.Before) || d.Parent(pt.Before) != parent {
				return nil, nil, fmt.Errorf("tree: insert position %d is not a child of %d", pt.Before, parent)
			}
			before, q = pt.Before, pt.Before
		} else {
			q = d.LastDesc(parent) + 1
		}
		if err := d.checkAttributes(pt.Op, parent, before); err != nil {
			return nil, nil, err
		}
	default:
		return nil, nil, fmt.Errorf("tree: unknown patch op %v", pt.Op)
	}

	dl := &Delta{At: q, Removed: k, Inserted: m, Parent: parent, Frag: frag}
	nd, err := d.splice(dl)
	if err != nil {
		return nil, nil, err
	}
	return nd, dl, nil
}

// splice materializes the patched document from a validated Delta. The
// one thing it can still refuse is a fragment whose new names take the
// label table past MaxLabels.
func (d *Document) splice(dl *Delta) (*Document, error) {
	var (
		q   = dl.At
		cut = q + NodeID(dl.Removed) // first old preorder rank after the removed interval
		nn  = d.NumNodes() + dl.Inserted - dl.Removed
	)
	frag := dl.Frag
	if frag == nil {
		frag = &Document{names: &LabelTable{}} // a delete grafts nothing
	}
	// The generation shares its parent's label table unless the fragment
	// brings a name the table lacks. Only then does it take the sorted
	// table of the names of both, and remap translates the parent's ids
	// into it.
	names, remap := d.names, []LabelID(nil)
	var added []string
	for _, name := range frag.names.names {
		if _, ok := names.Lookup(name); !ok {
			added = append(added, name)
		}
	}
	if len(added) > 0 {
		var err error
		if names, err = sortedTable(append(added, d.names.names[ReservedLabels:]...)); err != nil {
			return nil, err
		}
		remap = make([]LabelID, d.names.Size())
		for l, name := range d.names.names {
			remap[l] = names.ids[name]
		}
	}
	labelMap := make([]LabelID, frag.names.Size()) // fragment label -> label in names
	for i, name := range frag.names.names {
		labelMap[i] = names.ids[name]
	}

	// Text: the removed interval's text nodes are one run [lo, hi) of the
	// text ranks, and the fragment's (all of them lie under its element)
	// take that run's place, among the offsets and in the blob. Entries
	// before the run keep their values and are copied as they are; the
	// fragment's are rebased one by one, the later ones chunk by chunk
	// (SeqWriter.Append), since a shift moves values across chunk lines.
	// Everything is copied into fresh heap memory — a patched generation
	// shares nothing with its parent, so a parent aliasing a read-only
	// mapping can be released independently.
	lo, hi := d.TextRank(q), d.TextRank(cut)
	var (
		prefixLen  = d.textOff.At(lo)
		suffixBase = d.textOff.At(hi)
		blobLen    = int(prefixLen) + len(frag.textBlob) + len(d.textBlob) - int(suffixBase)
		fragTexts  = max(frag.textOff.Len()-1, 0) // a delete's empty fragment has no offsets at all
		textOff    = NewSeqWriter(lo+fragTexts+d.textOff.Len()-hi, Chunks(blobLen+1))
	)
	nd := &Document{
		labels:   make([]uint8, nn),
		up:       make([]uint8, nn),
		size:     make([]uint8, nn),
		textBlob: make([]byte, 0, blobLen),
		names:    names,
	}
	nd.textBlob = append(nd.textBlob, d.textBlob[:prefixLen]...)
	nd.textBlob = append(nd.textBlob, frag.textBlob...)
	nd.textBlob = append(nd.textBlob, d.textBlob[suffixBase:]...)
	textOff.Append(0, d.textOff, 0, lo, 0)
	for i := 0; i < fragTexts; i++ {
		textOff.Put(0, prefixLen+frag.textOff.At(i))
	}
	// One more of the offsets than of the text nodes: the blob's end.
	textOff.Append(0, d.textOff, hi, d.textOff.Len(), int(prefixLen)+len(frag.textBlob)-int(suffixBase))
	nd.textOff = textOff.Done()

	if remap == nil {
		d.spliceLabels(nd, dl, labelMap)
	} else {
		d.relabel(nd, dl, labelMap, remap)
	}
	nd.textBefore = textDirectory(nd.labels)
	d.spliceTopology(nd, dl)
	return nd, nil
}

// spliceLabels fills nd's labels, rare and rareIDs: prefix and suffix as
// they are, the fragment's labels translated into the generation's table
// by labelMap. Fragment node f (f >= 1, skipping the fragment's #doc
// root) gets id q+f-1. The rare ones among them take the place of the
// removed interval's run in rare.
func (d *Document) spliceLabels(nd *Document, dl *Delta, labelMap []LabelID) {
	var (
		q     = dl.At
		delta = NodeID(dl.Inserted - dl.Removed)
		cut   = q + NodeID(dl.Removed)
	)
	copy(nd.labels[:q], d.labels[:q])
	copy(nd.labels[cut+delta:], d.labels[cut:])
	var grafted []uint32 // the fragment's nodes whose label is rare in nd
	var graftedIDs []uint16
	for f := NodeID(1); int(f) <= dl.Inserted; f++ {
		l := labelMap[dl.Frag.Label(f)]
		nd.labels[q+f-1] = uint8(min(l, RareLabel))
		if l >= RareLabel {
			grafted, graftedIDs = append(grafted, uint32(q+f-1)), append(graftedIDs, uint16(l))
		}
	}
	lo, _ := d.rare.Search(uint32(q))
	hi, _ := d.rare.Search(uint32(cut))
	n := lo + len(grafted) + d.rare.Len() - hi
	rare := NewSeqWriter(n, Chunks(len(nd.labels)))
	rare.Append(0, d.rare, 0, lo, 0)
	for _, v := range grafted {
		rare.Put(0, v)
	}
	rare.Append(0, d.rare, hi, d.rare.Len(), int(delta))
	nd.rare = rare.Done()
	nd.rareIDs = append(append(append(make([]uint16, 0, n), d.rareIDs[:lo]...), graftedIDs...), d.rareIDs[hi:]...)
}

// relabel is spliceLabels for a generation whose table is not its
// parent's: prefix and suffix are copied through remap, the parent's ids
// translated into the generation's table, and the fragment's through
// labelMap. New names take ids among the old, so a node can cross the
// escape either way: rare is listed again from every node's full id.
func (d *Document) relabel(nd *Document, dl *Delta, labelMap, remap []LabelID) {
	var (
		q   = dl.At
		cut = q + NodeID(dl.Removed)
		at  = cut + NodeID(dl.Inserted-dl.Removed) // where the suffix lands
	)
	var rare []uint32
	var rareIDs []uint16
	put := func(v NodeID, l LabelID) {
		nd.labels[v] = uint8(min(l, RareLabel))
		if l >= RareLabel {
			rare, rareIDs = append(rare, uint32(v)), append(rareIDs, uint16(l))
		}
	}
	// moved is the new id of old node v. The old escapes are met in rank
	// order, as rare lists them; k walks that list alongside. A label a
	// file that was not verified got wrong reads as #doc.
	k := 0
	moved := func(v NodeID) LabelID {
		l := LabelID(d.labels[v])
		if l == RareLabel {
			l, k = LabelDoc, k+1
			if k <= len(d.rareIDs) {
				l = LabelID(d.rareIDs[k-1])
			}
		}
		if int(l) >= len(remap) {
			l = LabelDoc
		}
		return remap[l]
	}
	for v := range q {
		put(v, moved(v))
	}
	for f := NodeID(1); int(f) <= dl.Inserted; f++ {
		put(q+f-1, labelMap[dl.Frag.Label(f)])
	}
	k, _ = d.rare.Search(uint32(cut))
	for v := cut; int(v) < len(d.labels); v++ {
		put(at+v-cut, moved(v))
	}
	w := NewSeqWriter(len(rare), Chunks(len(nd.labels)))
	for _, v := range rare {
		w.Put(0, v)
	}
	nd.rare, nd.rareIDs = w.Done(), append(make([]uint16, 0, len(rareIDs)), rareIDs...)
}

// spliceTopology fills nd's up, size and wide. Relative values do not
// change when ranks shift, so the three stretches are copied; then the
// values the splice does change are set from the old document.
func (d *Document) spliceTopology(nd *Document, dl *Delta) {
	var (
		q     = dl.At
		m     = dl.Inserted
		delta = NodeID(m - dl.Removed)
		cut   = q + NodeID(dl.Removed)
		frag  = dl.Frag
	)
	copy(nd.up[:q], d.up[:q])
	copy(nd.size[:q], d.size[:q])
	copy(nd.up[cut+delta:], d.up[cut:])
	copy(nd.size[cut+delta:], d.size[cut:])
	if m > 0 {
		copy(nd.up[q:], frag.up[1:1+m])
		copy(nd.size[q:], frag.size[1:1+m])
		nd.up[q] = narrow(q - dl.Parent) // the fragment's element hung under its #doc
	}

	// Around the splice, innermost ancestor first: a's interval changes
	// by delta, and its children from next on (next is where the old
	// suffix resumes under a) are delta further from it. grown collects
	// the ancestors that are wide afterwards, in descending rank; stale
	// counts those that were.
	var grown []span
	stale := 0
	for a, next := dl.Parent, cut; a != Nil; a = d.Parent(a) {
		if d.size[a] == big {
			stale++
		}
		end := d.LastDesc(a)
		for s := next; s <= end; s = d.LastDesc(s) + 1 {
			nd.up[s+delta] = narrow(s + delta - a)
		}
		next = end + 1
		end += delta
		if end-a < big {
			nd.size[a] = uint8(end - a)
		} else {
			nd.size[a] = big
			grown = append(grown, span{node: a, last: end})
		}
	}

	// wide, by rank: what the old table holds before the splice with the
	// ancestors among it replaced by grown, the fragment's entries but for
	// its #doc, and the old entries past the removed interval, shifted;
	// then outer, which indexes the table, over the whole of it.
	lo, hi := d.wideAt(q), d.wideAt(cut)
	var grafted []span
	if m > 0 && len(frag.wide) > 0 {
		grafted = frag.wide[1:]
	}
	nd.wide = make([]span, 0, lo-stale+len(grown)+len(grafted)+len(d.wide)-hi)
	for _, s := range d.wide[:lo] {
		if s.node <= dl.Parent && dl.Parent <= s.last {
			continue // an ancestor: in grown if it is still wide
		}
		for len(grown) > 0 && grown[len(grown)-1].node < s.node {
			nd.wide, grown = append(nd.wide, grown[len(grown)-1]), grown[:len(grown)-1]
		}
		nd.wide = append(nd.wide, s)
	}
	for i := len(grown) - 1; i >= 0; i-- {
		nd.wide = append(nd.wide, grown[i])
	}
	for _, s := range grafted {
		nd.wide = append(nd.wide, span{node: s.node + q - 1, last: s.last + q - 1})
	}
	for _, s := range d.wide[hi:] {
		nd.wide = append(nd.wide, span{node: s.node + delta, last: s.last + delta})
	}
	nest(nd.wide)
}
