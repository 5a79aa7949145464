package store

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/index"
	"repro/internal/xmark"
	"repro/internal/xmlparse"
)

// BenchmarkMmapOpenVsParse is the startup-cost benchmark behind the
// BENCH_mmap.json open gate (CI enforces open ≤ 0.13× parse): bringing a
// document online from its XQO2 resident file — mmap, section-table
// walk, checksums, alias the arrays in place — against the heap preload
// path (Store.LoadXML), which parses the XML corpus and builds the
// jumping index: exactly what a heap load builds.
func BenchmarkMmapOpenVsParse(b *testing.B) {
	d := xmark.Generate(xmark.Config{Scale: 0.05, Seed: 42})
	dir := b.TempDir()

	xqo2 := filepath.Join(dir, "doc.xqo2")
	if err := SaveXQO2File(xqo2, d); err != nil {
		b.Fatal(err)
	}
	xmlSrc := []byte(d.XMLString())
	fi, err := os.Stat(xqo2)
	if err != nil {
		b.Fatal(err)
	}

	b.Run("mmap-open", func(b *testing.B) {
		b.SetBytes(fi.Size())
		for i := 0; i < b.N; i++ {
			od, _, ix, m, err := OpenXQO2(xqo2)
			if err != nil {
				b.Fatal(err)
			}
			if od.NumNodes() != d.NumNodes() || ix == nil || m == nil {
				b.Fatal("open returned a different document")
			}
			// Unmap eagerly, outside the timed region: teardown is not
			// open cost, and leaving b.N mappings to the finalizer piles
			// up page tables and GC work that pollutes the measurement.
			b.StopTimer()
			m.Close()
			b.StartTimer()
		}
	})

	// The opt-in verified open (-verify-resident): the same open plus
	// the element-wise passes. Not an arm of the gate; the row shows what
	// the proof that the file holds a tree costs on top.
	b.Run("verified-open", func(b *testing.B) {
		b.SetBytes(fi.Size())
		for i := 0; i < b.N; i++ {
			_, _, m, err := OpenXQO2Verified(xqo2)
			if err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			m.Close()
			b.StartTimer()
		}
	})

	b.Run("parse", func(b *testing.B) {
		b.SetBytes(int64(len(xmlSrc)))
		for i := 0; i < b.N; i++ {
			pd, err := xmlparse.Parse(xmlSrc)
			if err != nil {
				b.Fatal(err)
			}
			ix := index.New(pd)
			// The XML round trip drops empty text nodes (~1% of the
			// count), so require same-magnitude, not identity.
			if pd.NumNodes() < d.NumNodes()*9/10 || ix == nil {
				b.Fatal("parse returned a different document")
			}
		}
	})
}
