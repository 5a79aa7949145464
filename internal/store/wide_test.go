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

// TestWideDocumentsMappedAndQueried: the fan of 70 000 leaves (69 746
// far from their parent, two wide nodes) and the chain 70 000 deep
// (69 746 wide nodes, each inside the one before, no far parent), added
// to a store and opened from a mapped file with verification on. The
// mapped document makes every move the built one makes — internal/tree
// holds the built one to its reference builder — and on both, every
// strategy answers //*, a child chain and a predicate query as stepwise
// does.
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
			requireStrategiesAgree(t, name+", "+origin, h, tc.queries)
		}
	}
}

// requireStrategiesAgree: on h's document and index, every strategy that
// takes a query's shape answers it as stepwise does, and with something.
func requireStrategiesAgree(t *testing.T, what string, h *store.Handle, queries []string) {
	t.Helper()
	eng := core.NewWithIndex(h.Doc, h.Index, qcache.New(qcache.DefaultCapacity), "")
	for _, q := range queries {
		want, err := evalAll(eng, q, core.Stepwise)
		if err != nil || len(want) == 0 {
			t.Fatalf("%s: stepwise answers %s with %d nodes, %v", what, q, len(want), err)
		}
		for _, strat := range oracleStrategies {
			got, err := evalAll(eng, q, strat)
			if err != nil {
				continue // a strategy that does not take the query's shape
			}
			if !slices.Equal(got, want) {
				t.Errorf("%s: %v answers %s with %d nodes, stepwise with %d", what, strat, q, len(got), len(want))
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
		for origin, h := range map[string]*store.Handle{"built": built, "mapped": mapped} {
			requireRowsInvertLabels(t, name+", "+origin, h)
		}
	}
}

// requireRowsInvertLabels: h's index is the inverse of its document's
// labels — every row's count and elements (#text has a count and no
// row), the first occurrence after x
// for x around zero, every chunk line and the last node, from the row and
// from a fresh cursor, a cursor swept forward in steps from one node to
// more than a chunk, and the row's top-most nodes under the root.
func requireRowsInvertLabels(t *testing.T, what string, h *store.Handle) {
	t.Helper()
	const line = 1 << 16
	doc, ix := h.Doc, h.Index
	n := tree.NodeID(doc.NumNodes())
	rows := make([][]tree.NodeID, doc.Names().Size())
	for v := tree.NodeID(0); v < n; v++ {
		rows[doc.Label(v)] = append(rows[doc.Label(v)], v)
	}
	probes := []tree.NodeID{-1, 0, 1, n - 2, n - 1, n}
	for c := tree.NodeID(line); c < n+line; c += line {
		probes = append(probes, c-2, c-1, c, c+1)
	}
	for l, row := range rows {
		what := fmt.Sprintf("%s, %s", what, doc.Names().Name(tree.LabelID(l)))
		after := func(x tree.NodeID) tree.NodeID { // the reference: first occurrence after x
			if i := sort.Search(len(row), func(i int) bool { return row[i] > x }); i < len(row) {
				return row[i]
			}
			return tree.Nil
		}
		occ, stored := ix.Occurrences(tree.LabelID(l)), row
		if tree.LabelID(l) == tree.LabelText {
			stored = nil // no row: its cursor scans the label bytes
		}
		var got []tree.NodeID
		for u := range occ.From(0) {
			got = append(got, tree.NodeID(u))
		}
		if ix.Count(tree.LabelID(l)) != len(row) || !slices.Equal(got, stored) {
			t.Fatalf("%s: %d occurrences, Count says %d, the labels %d", what, len(got), ix.Count(tree.LabelID(l)), len(row))
		}
		for _, x := range probes {
			if _, u := occ.Search(uint32(x + 1)); stored != nil && tree.NodeID(u) != after(x) {
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
		// Top-most: the occurrences in no earlier occurrence's binary subtree.
		var tops []tree.NodeID
		for _, v := range row {
			if v != 0 && (len(tops) == 0 || doc.BinEnd(tops[len(tops)-1]) < v) {
				tops = append(tops, v)
			}
		}
		ids, cur, got := []tree.LabelID{tree.LabelID(l)}, ix.NewCursors(), []tree.NodeID(nil)
		for u := cur.First(ids, doc.Root(), n-1); u != tree.Nil; u = cur.First(ids, doc.BinEnd(u), n-1) {
			got = append(got, u)
		}
		if !slices.Equal(got, tops) {
			t.Fatalf("%s: %d top-most nodes under the root, want %d", what, len(got), len(tops))
		}
	}
}

// rareDoc is a document of the given number of names: #doc, #text, r,
// item, name and x000, x001, …, three rounds of item elements over one x
// element each, every x over a name holding a text. The names sort in
// that order, so x250 and the x-names after it are the rare ones.
func rareDoc(names int) *tree.Document {
	b := tree.NewBuilder()
	b.Open("r")
	for round := 0; round < 3; round++ {
		for i := 0; i < names-5; i++ {
			b.Open("item")
			b.Open(fmt.Sprintf("x%03d", i))
			b.Open("name")
			b.Text(fmt.Sprint(round, ".", i))
			b.Close()
			b.Close()
			b.Close()
		}
	}
	b.Close()
	return b.MustFinish()
}

// TestRareLabelsMappedPatchedAndQueried: labels on both sides of what a
// byte holds. A document of 300 names — added to a store, and opened from
// a mapped file with verification on — and a document of 255 names, which
// lists no rare label until a PATCH brings name number 256, from a heap
// base and from a mapped one, then a second node of that name and a third
// name, then loses the first again. The new names sort after the old, so
// they are the rare ones. On every one of them the index is the
// inverse of the labels, the rare rows included (counts, searches, cursor
// sweeps, top-most nodes); every strategy answers queries naming rare
// labels, common ones and both as stepwise does; and every patched
// generation is, array for array, what Join builds of the patch done by
// definition under the same label table.
func TestRareLabelsMappedPatchedAndQueried(t *testing.T) {
	const byteful = 255
	many := rareDoc(300)
	queries := []string{"//x010", "//x280", "//item/x294/name", "//item[x280]//name", "//r/item/x010/name", "//name", "//*"}
	for _, name := range []string{"x280", "x294"} {
		if l, _ := many.Names().Lookup(name); l < byteful {
			t.Fatalf("%s has id %d: not rare", name, l)
		}
	}
	if l, _ := many.Names().Lookup("x010"); l >= byteful {
		t.Fatalf("x010 has id %d: rare", l)
	}
	s := store.New()
	s.SetVerifyResident(true)
	built, err := s.Add("built", many, store.SourceDirect)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "many.xqo2")
	if err := store.SaveXQO2File(path, many); err != nil {
		t.Fatal(err)
	}
	mapped, err := s.LoadMapped("mapped", path)
	if err != nil {
		t.Fatal(err)
	}
	for origin, h := range map[string]*store.Handle{"built": built, "mapped": mapped} {
		if rare, ids := h.Doc.Rare(); rare.Len() != 3*(300-byteful) || len(ids) != rare.Len() {
			t.Fatalf("300 names, %s: %d nodes listed as rare with %d ids, want %d", origin, rare.Len(), len(ids), 3*(300-byteful))
		}
		if err := checkText(h.Doc, many); err != nil {
			t.Fatalf("300 names, %s: %v", origin, err)
		}
		requireRowsInvertLabels(t, "300 names, "+origin, h)
		requireStrategiesAgree(t, "300 names, "+origin, h, queries)
	}

	base := rareDoc(byteful)
	if rare, _ := base.Rare(); base.Names().Size() != byteful || rare.Len() != 0 {
		t.Fatalf("%d names, %d nodes listed as rare; want %d and none", base.Names().Size(), rare.Len(), byteful)
	}
	// r is node 1 and its children, four nodes each, lie at 2, 6, 10, …
	const r, middle = tree.NodeID(1), tree.NodeID(2 + 4*300)
	steps := []struct {
		pt      tree.Patch
		rares   int
		queries []string
	}{
		// Name number 256, in the middle of the document.
		{tree.Patch{Op: tree.OpInsert, Node: r, Before: middle, Frag: docOf("item", "zfresh", "name", "#new", "/", "/", "/")},
			1, []string{"//zfresh", "//item/zfresh/name", "//item[zfresh]", "//x010", "//name"}},
		// A second node of it and name number 257, six nodes at the head of
		// the document, a common one between the two.
		{tree.Patch{Op: tree.OpInsert, Node: r, Before: 2, Frag: docOf("item", "zfresh", "x010", "/", "zfresher", "name", "#newer", "/", "/", "/", "/")},
			3, []string{"//zfresh", "//zfresh//name", "//zfresher/name", "//item[zfresh/zfresher]", "//zfresh/x010", "//x010"}},
		// The first goes: the two rare nodes left are nodes 3 and 5.
		{tree.Patch{Op: tree.OpDelete, Node: middle + 6, Before: tree.Nil},
			2, []string{"//zfresh", "//zfresher/name", "//x010"}},
		// And one of them is replaced by a common one.
		{tree.Patch{Op: tree.OpReplace, Node: 5, Before: tree.Nil, Frag: docOf("x010", "/")},
			1, []string{"//zfresh/x010", "//item[zfresh]", "//name"}},
	}
	for _, mappedBase := range []bool{false, true} {
		what := fmt.Sprint(byteful, " names, mapped base ", mappedBase)
		s := store.New()
		if mappedBase {
			path := filepath.Join(t.TempDir(), "base.xqo2")
			if err := store.SaveXQO2File(path, base); err != nil {
				t.Fatal(err)
			}
			if _, err := s.LoadMapped("d", path); err != nil {
				t.Fatal(err)
			}
		} else if _, err := s.Add("d", base, store.SourceDirect); err != nil {
			t.Fatal(err)
		}
		ref := base
		for i, step := range steps {
			pt := step.pt
			h, err := s.Patch("d", store.NoGen, pt)
			if err != nil {
				t.Fatalf("%s, step %d: %v", what, i, err)
			}
			ref = rebuildPatched(ref, pt)
			if rare, _ := h.Doc.Rare(); rare.Len() != step.rares {
				t.Fatalf("%s, step %d: %d nodes listed as rare, want %d", what, i, rare.Len(), step.rares)
			}
			if err := checkHandle(h); err != nil {
				t.Fatalf("%s, step %d: %v", what, i, err)
			}
			if err := checkText(h.Doc, ref); err != nil {
				t.Fatalf("%s, step %d: %v", what, i, err)
			}
			requireRowsInvertLabels(t, fmt.Sprint(what, ", step ", i), h)
			requireStrategiesAgree(t, fmt.Sprint(what, ", step ", i), h, step.queries)
		}
	}
}
