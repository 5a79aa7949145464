package store

import (
	"bytes"
	"encoding/binary"
	"slices"
	"strconv"
	"sync"
	"testing"

	"repro/internal/index"
	"repro/internal/labels"
	"repro/internal/tree"
)

// fuzzFanout is how many children the fuzzed document's element has:
// enough that it and the root are wide, all but its first 254 children
// are far from it, and the ranks cross a chunk line of the sequences.
const fuzzFanout = 70000

// fuzzRareNames is how many of the fuzzed document's leaves have a name
// of their own, every 200th from the 100th on: with #doc, #text, fan and
// leaf, 354 names, of which the last 99 in byte order ("leaf55100" to
// "leaf9900") do not fit a label byte.
const fuzzRareNames = fuzzFanout / 200

// fuzzContainer is the valid XQO2 container FuzzNavigateVerified mutates,
// written once: a fan of leaves, every 5000th holding a text and every
// 200th named like no other, so that wide has entries (nodes 0 and 1),
// rare has (the 99 named leaves whose names sort last) and every edited section
// words. Under 1 MB.
var fuzzContainer = sync.OnceValue(func() []byte {
	b := tree.NewBuilder()
	b.Open("fan")
	for i := 0; i < fuzzFanout; i++ {
		if i%200 == 100 {
			b.Open("leaf" + strconv.Itoa(i))
		} else {
			b.Open("leaf")
		}
		if i%5000 == 0 {
			b.Text(strconv.Itoa(i))
		}
		b.Close()
	}
	b.Close()
	var buf bytes.Buffer
	if _, err := WriteXQO2(&buf, b.MustFinish()); err != nil {
		panic(err)
	}
	return buf.Bytes()
})

// fuzzSections are the sections FuzzNavigateVerified edits, by the
// first byte of an edit, with the width of their words (SecWide's are
// the thirds of an entry: node, last, outer; the halves of a sequence are
// its 16-bit words, its directory's the 32-bit chunk starts).
var fuzzSections = []struct {
	kind uint32
	word int
}{
	{tree.SecUp, 1}, {tree.SecSize, 1}, {tree.SecLabels, 1}, {tree.SecTextOff, 2}, {tree.SecWide, 4},
	{tree.SecTextOffDir, 4}, {index.SecOccAll, 2}, {index.SecOccOff, 4},
	{tree.SecRare, 2}, {tree.SecRareDir, 4}, {tree.SecRareIDs, 2},
}

// FuzzNavigateVerified: what VerifyStructure accepts, of the document
// and of its index, can be navigated, read and jumped over, and what the
// default open accepts can be asked anything without a fault. The input
// is a list of 9-byte edits — which of the per-node, per-text-node,
// per-wide-node, per-rare-node and per-chunk sections, which word, the
// new value —
// applied to a valid container with the checksums fixed up, so that the
// open fails only on its own shape checks; requireRefusedOrNavigable
// says what must hold of whatever it lets through. Nothing panics either
// way.
func FuzzNavigateVerified(f *testing.F) {
	edit := func(sec byte, word, value uint32) []byte {
		e := []byte{sec}
		e = binary.LittleEndian.AppendUint32(e, word)
		return binary.LittleEndian.AppendUint32(e, value)
	}
	const n, big = fuzzFanout + 2 + fuzzFanout/5000, 0xFF // nodes; the escape of up, size and labels
	const texts = fuzzFanout / 5000                       // all of them below rank 65 536, the last at 65 016
	const leaf = 3                                        // the label of the unnamed leaves, after #doc, #text and fan
	const names = 4 + fuzzRareNames                       // #doc, #text, fan, leaf and the named leaves
	const rares = names - big                             // the first of them node 703 (leaf700), a leaf's rank being 2 + i + ⌈i/5000⌉
	f.Add([]byte{})
	f.Add(edit(0, 9, 0))                                    // up = 0 off the root: a node its own parent
	f.Add(edit(0, 9, 2))                                    // a parent that is not the enclosing node
	f.Add(edit(0, 9, 12))                                   // a parent before the root
	f.Add(edit(0, 0, 0))                                    // root its own parent
	f.Add(edit(0, 9, big))                                  // a near parent stored as an escape
	f.Add(edit(0, n-1, 1))                                  // a far parent stored as a distance
	f.Add(edit(1, 3, 200))                                  // interval past the parent's end
	f.Add(edit(1, 0, 10))                                   // root interval short, its entry orphaned
	f.Add(edit(1, 5, big))                                  // a size byte of 255 with no entry
	f.Add(edit(1, 1, 7))                                    // an entry with no escape
	f.Add(append(edit(4, 0, 1), edit(4, 3, 0)...))          // entries out of order
	f.Add(edit(4, 4, 100))                                  // an entry shorter than 255
	f.Add(edit(4, 1, n-2))                                  // a span past its parent's
	f.Add(edit(4, 4, n+6))                                  // a span past the document's end
	f.Add(edit(4, 4, 1<<31))                                // a span ending below zero, its length wrapping
	f.Add(edit(4, 2, 1))                                    // outer pointing forward
	f.Add(edit(4, 5, 1<<32-1))                              // an entry inside another that names none around it
	f.Add(edit(2, 4, 1))                                    // an element relabelled #text: one offset short
	f.Add(edit(2, 4, big))                                  // an element given the label escape, and not listed
	f.Add(edit(2, 50313, 3))                                // a listed node whose label byte is not the escape
	f.Add(edit(8, 0, 9))                                    // a rare rank whose byte is not 255
	f.Add(edit(8, 1, 0))                                    // the rare ranks stepping back inside a chunk
	f.Add(edit(9, 1, rares+1))                              // the rare directory decreasing
	f.Add(edit(9, 2, rares-1))                              // the rare directory ending short of the list
	f.Add(edit(10, 0, 3))                                   // a rare id that fits a byte
	f.Add(edit(10, rares-1, names))                         // a rare id past the name table
	f.Add(edit(10, 0, names-1))                             // a rare id that is another name's: the node in the wrong row of the index
	f.Add(append(edit(2, 3, leaf), edit(2, 4, 1)...))       // a text and the leaf after it trade labels: a tree still
	f.Add(append(edit(2, 1, 1), edit(2, 3, leaf)...))       // the fan relabelled #text, a text node with children
	f.Add(edit(3, 2, 60000))                                // a text offset past the blob
	f.Add(edit(3, 3, 0))                                    // text offsets stepping back
	f.Add(edit(3, texts, 60000))                            // offsets ending past the blob
	f.Add(append(edit(2, 65016, leaf), edit(2, n-1, 1)...)) // the last text's label moved past the chunk line, onto the last leaf
	f.Add(append(edit(2, 3, leaf), edit(2, 1030, 1)...))    // the first text's label moved across the first block line of 1 024 ranks
	f.Add(append(edit(2, 3, leaf), edit(2, 1024, 1)...))    // onto the first rank of the second block
	f.Add(edit(2, 3, leaf))                                 // a text relabelled an element: one offset too many
	f.Add(edit(5, 1, texts))                                // the offsets' directory one short of their count
	f.Add(edit(7, 5, 1))                                    // a row boundary off by one: the fan element filed in its row's second chunk
	f.Add(edit(7, 2, 0))                                    // the directory stepping back at a row's start
	f.Add(edit(7, 3, 2))                                    // an entry in the #text row, which has none
	f.Add(edit(7, 2*names, n))                              // the closing entry past the halves
	f.Add(edit(6, 5, 3))                                    // halves out of order inside a chunk
	f.Add(edit(6, n-texts-1, 0xFFFF))                       // a rank past n in the last chunk
	f.Add(edit(6, 1, 2))                                    // an occurrence filed under the wrong label
	f.Add(edit(0, 0, big))                                  // an up escape under no wide span, the root's: Parent answers Nil
	f.Fuzz(func(t *testing.T, edits []byte) {
		data := bytes.Clone(fuzzContainer())
		for ; len(edits) >= 9; edits = edits[9:] {
			sec := fuzzSections[int(edits[0])%len(fuzzSections)]
			rewriteSection(t, data, sec.kind, func(p []byte) {
				word := int(binary.LittleEndian.Uint32(edits[1:]) % uint32(len(p)/sec.word))
				copy(p[sec.word*word:], edits[5:5+sec.word])
			})
		}
		l, err := tree.OpenLayout(data, nil)
		if err != nil {
			t.Fatalf("checksums were fixed up, yet: %v", err)
		}
		requireRefusedOrNavigable(t, l)
	})
}

// requireRefusedOrNavigable reassembles the document and index of l as
// the default open does and holds whatever it lets through to what both
// XQO2 fuzzers require: Text, Label, Parent and LastDesc of every node
// and a search and a sweep of every occurrence row return; and either
// verification refuses the document or its index, or a preorder walk by
// FirstChild/NextSibling from the root visits each of the n nodes once,
// in rank order, every parent walk ends at the root, the nodes labelled
// #text are counted in order by TextRank and swept by NextText, Text is
// empty on every other node and on those reads the blob from end to end,
// and the index is the inverse of the labels: the row of each label but
// #text lists the nodes carrying it, all of them, in order.
func requireRefusedOrNavigable(t *testing.T, l *tree.Layout) {
	t.Helper()
	d, err := tree.DocumentFromLayout(l)
	if err != nil {
		return // the open's shape checks: the sequences' directories and ends, the wide table, the rare ids
	}
	ix, err := index.FromLayout(l, d)
	if err != nil {
		return // the occurrence table's directory
	}
	// Unverified, every answer may be wrong; none may fault.
	n := tree.NodeID(d.NumNodes())
	for v := tree.Nil; v <= n; v++ {
		_ = d.Text(v)
	}
	for v := tree.NodeID(0); v < n; v++ {
		_, _, _ = d.Label(v), d.Parent(v), d.LastDesc(v)
	}
	for lab := tree.LabelID(0); int(lab) < d.Names().Size(); lab++ {
		row, swept := ix.Occurrences(lab), 0
		for range row.From(0) {
			swept++
		}
		if pos, _ := row.Search(uint32(n) / 2); swept != row.Len() || pos > swept {
			t.Fatalf("label %d: a sweep of its row yields %d of %d occurrences, a search position %d", lab, swept, row.Len(), pos)
		}
	}
	if d.VerifyStructure() != nil || ix.VerifyStructure() != nil {
		return
	}
	for v := tree.NodeID(0); v < n; v++ {
		steps := tree.NodeID(0)
		for u := v; u != d.Root(); u = d.Parent(u) {
			if steps++; u < 0 || u >= n || steps > n {
				t.Fatalf("verified, yet the parent walk from %d does not reach the root", v)
			}
		}
	}
	// Preorder by the two moves alone: down if possible, else to the
	// next sibling of the nearest ancestor-or-self that has one.
	visited, v := tree.NodeID(0), d.Root()
	for v != tree.Nil {
		if v != visited {
			t.Fatalf("verified, yet the preorder walk reaches node %d as its %dth", v, visited)
		}
		visited++
		next := d.FirstChild(v)
		for next == tree.Nil && v != tree.Nil {
			if next = d.NextSibling(v); next == tree.Nil {
				v = d.Parent(v)
			}
		}
		v = next
	}
	if visited != n {
		t.Fatalf("verified, yet the preorder walk visits %d of %d nodes", visited, n)
	}
	// Text, from the labels alone: the i-th node labelled #text has text
	// rank i and is the i-th the scan finds, and the texts in that order
	// are the blob.
	var blob []byte
	texts, next := 0, d.NextText(tree.Nil)
	for v := tree.NodeID(0); v < n; v++ {
		text := d.Text(v)
		if d.Label(v) != tree.LabelText {
			if text != "" {
				t.Fatalf("verified, yet node %d, not a text node, has text %q", v, text)
			}
			continue
		}
		if d.TextRank(v) != texts || next != v {
			t.Fatalf("verified, yet text node %d has text rank %d after %d text nodes, and the scan names %d", v, d.TextRank(v), texts, next)
		}
		texts, next = texts+1, d.NextText(v)
		blob = append(blob, text...)
	}
	if next != tree.Nil || d.TextRank(n) != texts || !bytes.Equal(blob, l.Section(tree.SecTextBlob)) {
		t.Fatalf("verified, yet the scan names %d past the last text node, %d text nodes are counted of %d, or the texts (%d bytes) are not the blob (%d bytes)",
			next, d.TextRank(n), texts, len(blob), len(l.Section(tree.SecTextBlob)))
	}
	// The index, from the labels alone: each node is the next
	// occurrence of its label, and no row holds more.
	cur, found := ix.NewCursors(), 0
	for v := tree.NodeID(0); v < n; v++ {
		if got := cur.NextAfter(d.Label(v), v-1); got != v {
			t.Fatalf("verified, yet the first %s after node %d is %d", d.LabelName(v), v-1, got)
		}
		found++
	}
	for lab := tree.LabelID(0); int(lab) < d.Names().Size(); lab++ {
		found -= ix.Count(lab)
	}
	if found != 0 {
		t.Fatalf("verified, yet the rows hold %d occurrences more than there are nodes", -found)
	}
	// The jumps every evaluator takes, from the labels alone: for every
	// label, First stepping past each hit's binary subtree names the
	// top-most nodes under the root — the occurrences no earlier one's
	// binary subtree holds — and Rt from each node's first child names
	// the first later sibling so labelled.
	sigma := d.Names().Size()
	tops := make([][]tree.NodeID, sigma)
	for v := tree.NodeID(1); v < n; v++ {
		lab := d.Label(v)
		if k := len(tops[lab]); k == 0 || d.BinEnd(tops[lab][k-1]) < v {
			tops[lab] = append(tops[lab], v)
		}
	}
	sets := make([]labels.Set, sigma)
	for lab := range tree.LabelID(sigma) {
		ids, cur, end := []tree.LabelID{lab}, ix.NewCursors(), d.BinEnd(d.Root())
		var got []tree.NodeID
		for u := cur.First(ids, d.Root(), end); u != tree.Nil; u = cur.First(ids, d.BinEnd(u), end) {
			got = append(got, u)
		}
		if !slices.Equal(got, tops[lab]) {
			t.Fatalf("verified, yet First names %d top-most %s under the root, the labels %d", len(got), d.Names().Name(lab), len(tops[lab]))
		}
		sets[lab] = labels.Of(lab)
	}
	later := make([]tree.NodeID, sigma) // by label: the first sibling after the first child
	for v := tree.NodeID(0); v < n; v++ {
		c := d.FirstChild(v)
		if c == tree.Nil {
			continue
		}
		for lab := range later {
			later[lab] = tree.Nil
		}
		for u := d.NextSibling(c); u != tree.Nil; u = d.NextSibling(u) {
			if later[d.Label(u)] == tree.Nil {
				later[d.Label(u)] = u
			}
		}
		for lab, L := range sets {
			cur.Reset()
			if got := cur.Rt(c, L); got != later[lab] {
				t.Fatalf("verified, yet Rt(%d, %s) = %d, the sibling walk %d", c, d.Names().Name(tree.LabelID(lab)), got, later[lab])
			}
		}
	}
}
