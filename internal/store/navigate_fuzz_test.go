package store

import (
	"bytes"
	"encoding/binary"
	"strconv"
	"sync"
	"testing"

	"repro/internal/tree"
)

// fuzzFanout is how many children the fuzzed document's element has:
// enough that it and the root are wide and its last few thousand
// children are far from it.
const fuzzFanout = 70000

// fuzzContainer is the valid XQO2 container FuzzNavigateVerified mutates,
// written once: a fan of leaves, every 5000th holding a text, so that
// wide has entries (nodes 0 and 1) and every edited section words. Under
// 1 MB.
var fuzzContainer = sync.OnceValue(func() []byte {
	b := tree.NewBuilder()
	b.Open("fan")
	for i := 0; i < fuzzFanout; i++ {
		b.Open("leaf")
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
// the halves of an entry: node, last).
var fuzzSections = []struct {
	kind uint32
	word int
}{
	{tree.SecUp, 2}, {tree.SecSize, 2}, {tree.SecLabels, 2}, {tree.SecTextNodes, 4}, {tree.SecTextOff, 4}, {tree.SecWide, 4},
}

// FuzzNavigateVerified: what Document.VerifyStructure accepts can be
// navigated and read. The input is a list of 9-byte edits — which of
// the six per-node, per-text-node and per-wide-node sections, which
// word, the new value — applied to a valid container with the checksums
// fixed up, so that the open fails only on its own shape checks. Then
// either verification refuses the document, or a preorder walk by
// FirstChild/NextSibling from the root visits each of the n nodes once,
// in rank order, every parent walk ends at the root, the listed text
// nodes are exactly the nodes labelled #text, in order, and Text is
// empty on every other node and on those reads the blob from end to
// end; and nothing panics either way.
func FuzzNavigateVerified(f *testing.F) {
	edit := func(sec byte, word, value uint32) []byte {
		e := []byte{sec}
		e = binary.LittleEndian.AppendUint32(e, word)
		return binary.LittleEndian.AppendUint32(e, value)
	}
	const n, far = fuzzFanout + 2 + fuzzFanout/5000, 0xFFFF // nodes; the escape
	f.Add([]byte{})
	f.Add(edit(0, 9, 0))                           // up = 0 off the root: a node its own parent
	f.Add(edit(0, 9, 2))                           // a parent that is not the enclosing node
	f.Add(edit(0, 9, 12))                          // a parent before the root
	f.Add(edit(0, 0, 0))                           // root its own parent
	f.Add(edit(0, 9, far))                         // a near parent stored as an escape
	f.Add(edit(0, n-1, 1))                         // a far parent stored as a distance
	f.Add(edit(1, 3, 2000))                        // interval past the parent's end
	f.Add(edit(1, 0, 10))                          // root interval short, its entry orphaned
	f.Add(edit(1, 5, far))                         // an escape with no entry
	f.Add(edit(1, 1, 7))                           // an entry with no escape
	f.Add(append(edit(5, 0, 1), edit(5, 2, 0)...)) // entries out of order
	f.Add(edit(5, 3, 100))                         // a span shorter than 65 535
	f.Add(edit(5, 1, n-2))                         // a span past its parent's
	f.Add(edit(5, 3, n+6))                         // a span past the document's end
	f.Add(edit(5, 3, 1<<31))                       // a span ending below zero, its length wrapping
	f.Add(edit(2, 3, 1))                           // an element relabelled #text, and not listed
	f.Add(edit(2, 3, 60000))                       // a label past the name table
	f.Add(edit(3, 2, 3))                           // the text node list stepping back
	f.Add(edit(3, 1, 9))                           // a listed text node that is an element
	f.Add(edit(4, 2, 1<<30))                       // a text offset past the blob
	f.Add(edit(4, 3, 0))                           // text offsets stepping back
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
		d, _, err := tree.DocumentFromLayout(l)
		if err != nil {
			return // the open's shape checks: an end of the text directory, its first node, the wide table, the succinct view
		}
		if d.VerifyStructure() != nil {
			return
		}
		n := tree.NodeID(d.NumNodes())
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
		// Text, from the labels alone: the i-th node labelled #text is the
		// i-th listed, and the texts in that order are the blob.
		var blob []byte
		texts := d.TextNodes()
		for v := tree.NodeID(0); v < n; v++ {
			text := d.Text(v)
			if d.Label(v) != tree.LabelText {
				if text != "" {
					t.Fatalf("verified, yet node %d, not a text node, has text %q", v, text)
				}
				continue
			}
			if len(texts) == 0 || texts[0] != v {
				t.Fatalf("verified, yet text node %d is not the next one listed (%d left)", v, len(texts))
			}
			texts = texts[1:]
			blob = append(blob, text...)
		}
		if len(texts) != 0 || !bytes.Equal(blob, l.Section(tree.SecTextBlob)) {
			t.Fatalf("verified, yet %d listed text nodes are not labelled so, or the texts (%d bytes) are not the blob (%d bytes)",
				len(texts), len(blob), len(l.Section(tree.SecTextBlob)))
		}
	})
}
