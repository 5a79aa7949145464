package store

import (
	"bytes"
	"encoding/binary"
	"sync"
	"testing"

	"repro/internal/tree"
	"repro/internal/xmark"
)

// fuzzContainer is the valid XQO2 container FuzzNavigateVerified mutates,
// written once.
var fuzzContainer = sync.OnceValue(func() []byte {
	var buf bytes.Buffer
	if _, err := WriteXQO2(&buf, xmark.Generate(xmark.Config{Scale: 0.002, Seed: 5})); err != nil {
		panic(err)
	}
	return buf.Bytes()
})

// FuzzNavigateVerified: what Document.VerifyStructure accepts can be
// navigated. The input is a list of 9-byte edits — which of the two
// topology sections, which word, the new value — applied to a valid
// container with the checksums fixed up, so the default open takes it.
// Then either verification refuses the document, or a preorder walk by
// FirstChild/NextSibling from the root visits each of the n nodes once,
// in rank order, and every parent walk ends at the root; and nothing
// panics either way.
func FuzzNavigateVerified(f *testing.F) {
	edit := func(sec byte, word, value uint32) []byte {
		e := []byte{sec}
		e = binary.LittleEndian.AppendUint32(e, word)
		return binary.LittleEndian.AppendUint32(e, value)
	}
	f.Add([]byte{})
	f.Add(append(edit(0, 5, 7), edit(0, 7, 5)...)) // parent cycle
	f.Add(edit(0, 9, 2))                           // a parent that is not the enclosing node
	f.Add(edit(1, 3, 2000))                        // interval past the parent's end
	f.Add(edit(1, 0, 10))                          // root interval short
	f.Add(edit(1, 4, 3))                           // interval ending before its node
	f.Add(edit(0, 0, 0))                           // root its own parent
	f.Fuzz(func(t *testing.T, edits []byte) {
		data := bytes.Clone(fuzzContainer())
		for ; len(edits) >= 9; edits = edits[9:] {
			kind := tree.SecParent
			if edits[0]&1 == 1 {
				kind = tree.SecLastDesc
			}
			rewriteSection(t, data, kind, func(p []byte) {
				word := int(binary.LittleEndian.Uint32(edits[1:]) % uint32(len(p)/4))
				copy(p[4*word:], edits[5:9])
			})
		}
		l, err := tree.OpenLayout(data, nil)
		if err != nil {
			t.Fatalf("checksums were fixed up, yet: %v", err)
		}
		d, _, err := tree.DocumentFromLayout(l)
		if err != nil {
			return // the succinct view's own shape checks may object
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
	})
}
