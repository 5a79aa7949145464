package store_test

import (
	"fmt"
	"path/filepath"
	"slices"
	"sort"
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
		if m.NumNodes() != d.NumNodes() || m.MemBytes() != d.MemBytes() {
			t.Fatalf("%s: mapped holds %d nodes in %d bytes, built %d in %d", name, m.NumNodes(), m.MemBytes(), d.NumNodes(), d.MemBytes())
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

// TestRowsOnBothSidesOfTheChunkLine: the index of documents of 65 535,
// 65 536 and 65 537 nodes, and of one of four chunks that has a label at
// both ends only (a row whose middle chunks are empty), one on its last
// node only (a row living in the last chunk), one interned and never used
// (an empty row) and no text at all (the borrowed row empty too) — built,
// and opened from a mapped file with verification on — is the inverse of
// the labels: every row's count and elements, the first occurrence after
// x for x around zero, every chunk line and the last node, from the row
// and from a fresh cursor, and a cursor swept forward in steps from one
// node to more than a chunk.
func TestRowsOnBothSidesOfTheChunkLine(t *testing.T) {
	const line = 1 << 16
	docs := map[string]*tree.Document{}
	for _, n := range []int{line - 1, line, line + 1} {
		b := tree.NewBuilder()
		b.Open("r")
		for v := 2; v < n; v++ {
			if v%5 == 0 {
				b.Text("t")
			} else {
				b.Open("e")
				b.Close()
			}
		}
		b.Close()
		docs[fmt.Sprint(n, " nodes")] = b.MustFinish()
	}
	b := tree.NewBuilder()
	b.Names().Intern("unused")
	b.Open("r")
	b.Open("rare")
	b.Close()
	for i := 0; i < 3*line; i++ {
		b.Open("e")
		b.Close()
	}
	b.Open("rare")
	b.Open("last")
	b.Close()
	b.Close()
	b.Close()
	docs["four chunks"] = b.MustFinish()

	for name, doc := range docs {
		s := store.New()
		s.SetVerifyResident(true)
		built, err := s.Add("built", doc, store.SourceDirect)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), "doc.xqo2")
		if err := store.SaveXQO2File(path, doc); err != nil {
			t.Fatal(err)
		}
		mapped, err := s.LoadMapped("mapped", path)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		n := tree.NodeID(doc.NumNodes())
		rows := make([][]tree.NodeID, doc.Names().Size())
		for v := tree.NodeID(0); v < n; v++ {
			rows[doc.Label(v)] = append(rows[doc.Label(v)], v)
		}
		probes := []tree.NodeID{-1, 0, 1, n - 2, n - 1, n}
		for c := tree.NodeID(line); c < n+line; c += line {
			probes = append(probes, c-2, c-1, c, c+1)
		}
		for origin, h := range map[string]*store.Handle{"built": built, "mapped": mapped} {
			ix := h.Index
			for l, row := range rows {
				what := fmt.Sprintf("%s, %s, %s", name, origin, doc.Names().Name(tree.LabelID(l)))
				after := func(x tree.NodeID) tree.NodeID { // the reference: first occurrence after x
					if i := sort.Search(len(row), func(i int) bool { return row[i] > x }); i < len(row) {
						return row[i]
					}
					return tree.Nil
				}
				occ := ix.Occurrences(tree.LabelID(l))
				var got []tree.NodeID
				for u := range occ.From(0) {
					got = append(got, tree.NodeID(u))
				}
				if ix.Count(tree.LabelID(l)) != len(row) || !slices.Equal(got, row) {
					t.Fatalf("%s: %d occurrences, Count says %d, the labels %d", what, len(got), ix.Count(tree.LabelID(l)), len(row))
				}
				for _, x := range probes {
					if _, u := occ.Search(uint32(x + 1)); tree.NodeID(u) != after(x) {
						t.Fatalf("%s: the row's first occurrence after %d is %d, want %d", what, x, tree.NodeID(u), after(x))
					}
					if u := ix.NewCursors().NextAfter(tree.LabelID(l), x); u != after(x) {
						t.Fatalf("%s: a fresh cursor's first occurrence after %d is %d, want %d", what, x, u, after(x))
					}
				}
				for _, gap := range []tree.NodeID{1, 2, 5, 9, 100, 1000, line - 1, line, line + 1, 100000} {
					cur := ix.NewCursors()
					for x := tree.NodeID(-1); x < n+gap; x += gap {
						if u := cur.NextAfter(tree.LabelID(l), x); u != after(x) {
							t.Fatalf("%s, gap %d: the cursor's first occurrence after %d is %d, want %d", what, gap, x, u, after(x))
						}
					}
				}
			}
		}
	}
}
