package store_test

import (
	"testing"

	"repro/internal/store"
	"repro/internal/tree"
	"repro/internal/xmark"
	"repro/internal/xmlparse"
)

// BenchmarkPatchVsReload is the cost model behind the PATCH endpoint:
// applying one subtree patch — splicing the tree, incrementally
// maintaining the jumping index, publishing a new MVCC generation —
// against the alternative the patch path replaces, a full reload (parse
// from XML + index build) of the same document. CI gates the ratio:
// patch-apply must stay at or below 0.67× full-reload ns/op on the XMark
// scale-0.05 document (BENCH_mvcc.json pins the seeded numbers, ~0.06×).
func BenchmarkPatchVsReload(b *testing.B) {
	src := []byte(xmark.Generate(xmark.Config{Scale: 0.05, Seed: 42}).XMLString())
	frag, err := xmlparse.Parse([]byte("<item><mailbox><mail><date/></mail></mailbox></item>"))
	if err != nil {
		b.Fatal(err)
	}

	b.Run("patch-apply", func(b *testing.B) {
		s := store.New()
		h, err := s.LoadXML("d", src)
		if err != nil {
			b.Fatal(err)
		}
		// A stable target: the first small non-root subtree. Replacing it
		// with the fragment over and over keeps the document size constant
		// after the first iteration, so every op does the same work.
		target := tree.Nil
		for v := tree.NodeID(2); v <= tree.NodeID(h.Doc.NumNodes()); v++ {
			if h.Doc.SubtreeSize(v) <= 8 {
				target = v
				break
			}
		}
		if target == tree.Nil {
			b.Fatal("no small subtree to replace")
		}
		pt := tree.Patch{Op: tree.OpReplace, Node: target, Before: tree.Nil, Frag: frag}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := s.Patch("d", store.NoGen, pt); err != nil {
				b.Fatal(err)
			}
		}
	})

	b.Run("full-reload", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s := store.New()
			if _, err := s.LoadXML("d", src); err != nil {
				b.Fatal(err)
			}
		}
	})
}
