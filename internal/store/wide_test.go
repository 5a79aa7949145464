package store_test

import (
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/qcache"
	"repro/internal/store"
	"repro/internal/tgen"
	"repro/internal/tree"
)

// TestWideDocumentsMappedAndQueried: the fan of 70 000 leaves (far
// parents, two wide nodes) and the chain 70 000 deep (4 466 wide nodes,
// no far parent), added to a store and opened from a mapped file with
// verification on. The mapped document makes every move the built one
// makes — internal/tree holds the built one to its reference builder —
// and on both, every strategy answers //*, a child chain and a predicate
// query as stepwise does.
func TestWideDocumentsMappedAndQueried(t *testing.T) {
	for name, tc := range map[string]struct {
		doc     *tree.Document
		queries []string
	}{
		"fan":   {tgen.Star("r", "e", 70000), []string{"//*", "/r/e", "//r[e]"}},
		"chain": {tgen.Chain("a", 70000), []string{"//*", "/a/a/a", "//a[a/a]"}},
	} {
		s := store.New()
		s.SetVerifyResident(true)
		built, err := s.Add("built", tc.doc, store.SourceDirect)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), name+".xqo2")
		if err := store.SaveXQO2File(path, tc.doc); err != nil {
			t.Fatal(err)
		}
		mapped, err := s.LoadMapped("mapped", path)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		d, m := built.Doc, mapped.Doc
		if m.NumNodes() != d.NumNodes() || m.MemBytes() != d.MemBytes()-4*int64(d.Names().Size()) {
			t.Fatalf("%s: mapped holds %d nodes in %d bytes, built %d in %d (of them its label counts)", name, m.NumNodes(), m.MemBytes(), d.NumNodes(), d.MemBytes())
		}
		for v := tree.NodeID(0); int(v) < d.NumNodes(); v++ {
			if m.Parent(v) != d.Parent(v) || m.LastDesc(v) != d.LastDesc(v) || m.BinEnd(v) != d.BinEnd(v) ||
				m.FirstChild(v) != d.FirstChild(v) || m.NextSibling(v) != d.NextSibling(v) {
				t.Fatalf("%s node %d: mapped (p=%d ld=%d be=%d fc=%d ns=%d), built (p=%d ld=%d be=%d fc=%d ns=%d)", name, v,
					m.Parent(v), m.LastDesc(v), m.BinEnd(v), m.FirstChild(v), m.NextSibling(v),
					d.Parent(v), d.LastDesc(v), d.BinEnd(v), d.FirstChild(v), d.NextSibling(v))
			}
		}
		for origin, h := range map[string]*store.Handle{"built": built, "mapped": mapped} {
			eng := core.NewWithIndex(h.Doc, h.Index, qcache.New(qcache.DefaultCapacity), "")
			for _, q := range tc.queries {
				want, err := evalAll(eng, q, core.Stepwise)
				if err != nil || len(want) == 0 {
					t.Fatalf("%s, %s: stepwise answers %s with %d nodes, %v", name, origin, q, len(want), err)
				}
				for _, strat := range oracleStrategies {
					got, err := evalAll(eng, q, strat)
					if err != nil {
						continue // a strategy that does not take the query's shape
					}
					if !slices.Equal(got, want) {
						t.Errorf("%s, %s: %v answers %s with %d nodes, stepwise with %d", name, origin, strat, q, len(got), len(want))
					}
				}
			}
		}
	}
}
