package store

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/index"
	"repro/internal/tree"
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
			_, _, _, m, err := OpenXQO2Verified(xqo2)
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

// BenchmarkMappedMemoryPressure drives a mapped corpus roughly 4× the
// resident budget through round-robin reads: every access to a released
// document re-charges it and forces the enforcer to shed the
// least-recently-used mapping, so the steady state is continuous
// release/refault churn — the "corpus beyond RAM" serving regime. The
// per-op faults metric comes from the store's own accounting.
func BenchmarkMappedMemoryPressure(b *testing.B) {
	const docsN = 8
	s := New()
	dir := b.TempDir()
	ids := make([]string, docsN)
	var total int64
	for i := 0; i < docsN; i++ {
		ids[i] = string(rune('a' + i))
		d := xmark.Generate(xmark.Config{Scale: 0.01, Seed: int64(i + 1)})
		path := filepath.Join(dir, ids[i]+".xqo2")
		if err := SaveXQO2File(path, d); err != nil {
			b.Fatal(err)
		}
		h, err := s.LoadMapped(ids[i], path)
		if err != nil {
			b.Fatal(err)
		}
		total += h.Stats.MappedBytes
	}
	s.SetResidentBudget(total / 4)

	before := s.Mapped()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h, ok := s.Get(ids[i%docsN])
		if !ok {
			b.Fatal("document vanished")
		}
		// Touch the document's arrays across the file: label reads fault
		// the label section, text reads fault the text blob.
		d := h.Doc
		n := tree.NodeID(0)
		for hops := 0; hops < 64; hops++ {
			step := tree.NodeID(1 + (i+hops)%7)
			n = (n + step*997) % tree.NodeID(d.NumNodes())
			_ = d.Label(n)
			_ = d.Text(n)
		}
	}
	b.StopTimer()
	after := s.Mapped()
	if b.N > 0 {
		b.ReportMetric(float64(after.MapFaults-before.MapFaults)/float64(b.N), "faults/op")
	}
	if after.ChargedBytes > total/4 {
		b.Fatalf("budget not enforced: %d charged for budget %d", after.ChargedBytes, total/4)
	}
}
