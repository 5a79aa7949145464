package store_test

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/index"
	"repro/internal/qcache"
	"repro/internal/store"
	"repro/internal/tgen"
	"repro/internal/tree"
)

// The MVCC mutation oracle: random seeded patch sequences are applied
// through Store.Patch — the incremental path (array splice, index
// splice) — and after every step the patched generation's index and
// query answers are compared
// against a parse-from-scratch rebuild of the same document, and its
// labels and text against the patch done by definition (rebuildPatched)
// on a document that never went through a splice or a file. A failing
// sequence is shrunk by greedy step removal (delta debugging) before
// being reported, so the log shows a minimal reproducer, not a
// 25-step haystack.

// oracleLabels is the alphabet of generated documents and fragments.
var oracleLabels = []string{"a", "b", "c", "item", "name"}

// oracleQueries covers the answer shapes the engine distinguishes:
// child and descendant steps, chains (hybrid/TDSTA eligible),
// predicates, and absent-label short-circuits.
var oracleQueries = []string{
	"//a",
	"//a/b",
	"//a//c",
	"//item//name",
	"//b[c]",
	"//name",
}

// oracleStrategies is every forceable strategy plus Auto; strategies
// that reject a query must reject it identically on both engines.
var oracleStrategies = []core.Strategy{
	core.Auto, core.Naive, core.Jumping, core.Memoized,
	core.Optimized, core.Hybrid, core.TopDownDet, core.Stepwise,
}

// randDoc builds a random document over oracleLabels.
func randDoc(rng *rand.Rand) *tree.Document {
	b := tree.NewBuilder()
	var gen func(depth int)
	gen = func(depth int) {
		b.Open(oracleLabels[rng.Intn(len(oracleLabels))])
		kids := rng.Intn(4)
		if depth >= 4 {
			kids = 0
		}
		for i := 0; i < kids; i++ {
			if rng.Intn(5) == 0 {
				b.Text(fmt.Sprintf("t%d", rng.Intn(50)))
			} else {
				gen(depth + 1)
			}
		}
		b.Close()
	}
	gen(0)
	return b.MustFinish()
}

// randPatch draws one patch applicable to d.
func randPatch(rng *rand.Rand, d *tree.Document) tree.Patch {
	n := d.NumNodes()
	frag := randDoc(rng)
	for {
		switch rng.Intn(3) {
		case 0: // insert
			parent := tree.NodeID(1 + rng.Intn(n-1))
			if d.Label(parent) == tree.LabelText {
				continue
			}
			before := tree.Nil
			if rng.Intn(2) == 0 && d.FirstChild(parent) != tree.Nil {
				var kids []tree.NodeID
				for c := d.FirstChild(parent); c != tree.Nil; c = d.NextSibling(c) {
					kids = append(kids, c)
				}
				before = kids[rng.Intn(len(kids))]
			}
			return tree.Patch{Op: tree.OpInsert, Node: parent, Before: before, Frag: frag}
		case 1: // delete
			v := tree.NodeID(1 + rng.Intn(n-1))
			if v == d.DocumentElement() {
				continue
			}
			return tree.Patch{Op: tree.OpDelete, Node: v, Before: tree.Nil}
		default: // replace
			v := tree.NodeID(1 + rng.Intn(n-1))
			return tree.Patch{Op: tree.OpReplace, Node: v, Before: tree.Nil, Frag: frag}
		}
	}
}

// evalAll materializes one query under one strategy.
func evalAll(eng *core.Engine, q string, s core.Strategy) ([]tree.NodeID, error) {
	cur, err := eng.EvalCursor(q, s)
	if err != nil {
		return nil, err
	}
	defer cur.Close()
	var out []tree.NodeID
	buf := make([]tree.NodeID, 64)
	for {
		n := cur.NextBatch(buf)
		if n == 0 {
			return out, nil
		}
		out = append(out, buf[:n]...)
	}
}

// rebuildPatched is the patch by definition: d's events replayed into a
// Builder with the subtree at pt.Node left out or the fragment's in its
// place, or the fragment's put before pt.Before or after pt.Node's last
// child. Nothing of the splice takes part, and every text is read from
// a document the Builder made.
func rebuildPatched(d *tree.Document, pt tree.Patch) *tree.Document {
	b := tree.NewBuilder()
	var emit func(src *tree.Document, v tree.NodeID)
	graft := func() { emit(pt.Frag, pt.Frag.DocumentElement()) }
	emit = func(src *tree.Document, v tree.NodeID) {
		if src == d {
			switch {
			case pt.Op == tree.OpInsert && v == pt.Before:
				graft()
			case pt.Op == tree.OpDelete && v == pt.Node:
				return
			case pt.Op == tree.OpReplace && v == pt.Node:
				graft()
				return
			}
		}
		if src.Label(v) == tree.LabelText {
			b.Text(src.Text(v))
			return
		}
		b.Open(src.LabelName(v))
		for c := src.FirstChild(v); c != tree.Nil; c = src.NextSibling(c) {
			emit(src, c)
		}
		if src == d && pt.Op == tree.OpInsert && v == pt.Node && pt.Before == tree.Nil {
			graft()
		}
		b.Close()
	}
	emit(d, d.DocumentElement())
	return b.MustFinish()
}

// checkText compares a generation — built, opened from a mapped file or
// patched — with the reference document node for node: label, text, and
// the serialized whole; and Text of what is no text node stays empty.
func checkText(d, ref *tree.Document) error {
	if d.NumNodes() != ref.NumNodes() {
		return fmt.Errorf("%d nodes, reference has %d", d.NumNodes(), ref.NumNodes())
	}
	n, texts := tree.NodeID(d.NumNodes()), 0
	for v := tree.NodeID(0); v < n; v++ {
		if d.LabelName(v) != ref.LabelName(v) || d.Text(v) != ref.Text(v) {
			return fmt.Errorf("node %d is %s %q, reference %s %q", v, d.LabelName(v), d.Text(v), ref.LabelName(v), ref.Text(v))
		}
		switch {
		case d.Label(v) != tree.LabelText:
			if d.Text(v) != "" {
				return fmt.Errorf("node %d, a %s, has text %q", v, d.LabelName(v), d.Text(v))
			}
		case d.TextRank(v) != texts:
			return fmt.Errorf("text node %d has text rank %d, and %d text nodes lie before it", v, d.TextRank(v), texts)
		default:
			texts++
		}
	}
	if d.TextRank(n) != texts {
		return fmt.Errorf("%d text nodes counted, %d labelled so", d.TextRank(n), texts)
	}
	if d.Text(tree.Nil) != "" || d.Text(n) != "" {
		return fmt.Errorf("Text(Nil) = %q, Text(%d) = %q on %d nodes", d.Text(tree.Nil), n, d.Text(n), n)
	}
	if got, want := d.XMLString(), ref.XMLString(); got != want {
		return fmt.Errorf("serialized %s, reference %s", got, want)
	}
	// Every array is the reference's byte for byte, at rest as in memory —
	// the label bytes, the rare labels and their ids, up, size, the wide
	// table with the entry around each entry, the text offsets, halves and
	// chunk starts — once the reference's tree is linked under
	// d's label table, which may number the names otherwise: so no escape,
	// table entry or chunk boundary of an earlier generation survived a
	// splice.
	got, err := sections(d)
	if err != nil {
		return err
	}
	want, err := sections(relink(ref, d.Names()))
	if err != nil {
		return err
	}
	for _, kind := range []uint32{
		tree.SecLabels, tree.SecRare, tree.SecRareDir, tree.SecRareIDs, tree.SecUp, tree.SecSize, tree.SecWide,
		tree.SecTextOff, tree.SecTextOffDir,
	} {
		if !bytes.Equal(got.Section(kind), want.Section(kind)) {
			return fmt.Errorf("section %d differs from the reference's", kind)
		}
	}
	return nil
}

// relink builds d's tree again through a Builder whose label table holds
// names' names in names' order: what Join makes of that tree when its
// labels have the ids names gives them.
func relink(d *tree.Document, names *tree.LabelTable) *tree.Document {
	b := tree.NewBuilder()
	for _, name := range names.Names() {
		b.Names().Intern(name)
	}
	var ends []tree.NodeID // of the open elements
	for v := tree.NodeID(1); int(v) < d.NumNodes(); v++ {
		for len(ends) > 0 && ends[len(ends)-1] < v {
			b.Close()
			ends = ends[:len(ends)-1]
		}
		if d.Label(v) == tree.LabelText {
			b.Text(d.Text(v))
			continue
		}
		b.Open(d.LabelName(v))
		ends = append(ends, d.LastDesc(v))
	}
	for range ends {
		b.Close()
	}
	return b.MustFinish()
}

// sections returns d as it lies in an XQO2 container.
func sections(d *tree.Document) (*tree.Layout, error) {
	w := tree.NewLayoutWriter()
	tree.AddDocumentSections(w, d, nil)
	var buf bytes.Buffer
	if _, err := w.WriteTo(&buf); err != nil {
		return nil, err
	}
	return tree.OpenLayout(buf.Bytes(), nil)
}

// checkHandle compares one patched generation against a from-scratch
// rebuild: index contents and every (query, strategy) answer.
func checkHandle(h *store.Handle) error {
	d := h.Doc
	// The stored topology is the canonical encoding of a tree — every
	// distance and every length under 255 stored as itself,
	// every other as an escape, wide listing exactly the escaped subtrees
	// — so it is, element for element, what Join builds for that tree: no
	// stale escape, no orphan entry left by a splice (checkText compares it
	// with one).
	if err := d.VerifyStructure(); err != nil {
		return fmt.Errorf("not canonical: %w", err)
	}
	// Jumping index: the table a build from scratch makes, halves and
	// directory element for element — so no chunk boundary of the parent
	// generation survived the splice — over the handle's own document,
	// whose BinEnd the jumps ask.
	fresh := index.New(d)
	sigma := d.Names().Size()
	for l := 0; l < sigma; l++ {
		got := h.Index.Occurrences(tree.LabelID(l))
		want := fresh.Occurrences(tree.LabelID(l))
		if !slices.Equal(got.Start, want.Start) {
			return fmt.Errorf("index row %d: directory %v, want %v", l, got.Start, want.Start)
		}
		if !slices.Equal(got.Lo, want.Lo) {
			return fmt.Errorf("index row %d: the halves differ from a rebuild's", l)
		}
	}
	// The #text count is the one the index reads from its document.
	if got, want := h.Index.Count(tree.LabelText), fresh.Count(tree.LabelText); got != want {
		return fmt.Errorf("the index counts %d text nodes, a rebuild over the handle's document %d", got, want)
	}
	// Query answers: the engine over the incrementally maintained index
	// must agree with an engine whose index was built from scratch, for
	// every strategy (Auto's short-circuits read the index, so a wrong
	// occurrence list shows up as a wrong empty answer here).
	engInc := core.NewWithIndex(d, h.Index, qcache.New(qcache.DefaultCapacity), "")
	engFresh := core.New(d)
	for _, q := range oracleQueries {
		for _, s := range oracleStrategies {
			got, gerr := evalAll(engInc, q, s)
			want, werr := evalAll(engFresh, q, s)
			if (gerr == nil) != (werr == nil) {
				return fmt.Errorf("%s %v: incremental err=%v, fresh err=%v", q, s, gerr, werr)
			}
			if gerr != nil {
				continue
			}
			if len(got) != len(want) {
				return fmt.Errorf("%s %v: %d nodes, want %d", q, s, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					return fmt.Errorf("%s %v: node[%d] = %d, want %d", q, s, i, got[i], want[i])
				}
			}
		}
	}
	return nil
}

// errInapplicable marks a candidate sequence whose patches no longer
// fit the document they are applied to (a shrink artifact, not a bug).
var errInapplicable = errors.New("sequence inapplicable")

// runSequence replays patches through a fresh store, checking every
// generation. The returned error is errInapplicable when a patch
// cannot apply (only possible for shrunk subsequences), or a wrapped
// invariant failure. With mapped set, the base generation enters the
// store through an XQO2 save + zero-copy mmap open instead of Add, so
// every patched generation is a copy-on-write descendant of arrays
// aliasing a file mapping.
func runSequence(base *tree.Document, patches []tree.Patch, mapped bool) error {
	s := store.New()
	ref := base
	if mapped {
		dir, err := os.MkdirTemp("", "xqo2oracle")
		if err != nil {
			return fmt.Errorf("seed: %w", err)
		}
		defer os.RemoveAll(dir)
		path := filepath.Join(dir, "base.xqo2")
		if err := store.SaveXQO2File(path, base); err != nil {
			return fmt.Errorf("seed: %w", err)
		}
		h, err := s.LoadMapped("d", path)
		if err != nil {
			return fmt.Errorf("seed: %w", err)
		}
		if err := checkText(h.Doc, ref); err != nil {
			return fmt.Errorf("as mapped: %w", err)
		}
	} else if _, err := s.Add("d", base, store.SourceDirect); err != nil {
		return fmt.Errorf("seed: %w", err)
	}
	for i, pt := range patches {
		h, err := s.Patch("d", store.NoGen, pt)
		if err != nil {
			return fmt.Errorf("step %d: %w", i, errInapplicable)
		}
		if err := checkHandle(h); err != nil {
			return fmt.Errorf("step %d (%s node %d): %w", i, pt.Op, pt.Node, err)
		}
		ref = rebuildPatched(ref, pt)
		if err := checkText(h.Doc, ref); err != nil {
			return fmt.Errorf("step %d (%s node %d): %w", i, pt.Op, pt.Node, err)
		}
	}
	return nil
}

// shrink greedily removes steps while the sequence still fails with a
// real invariant error (inapplicable candidates are kept out).
func shrink(base *tree.Document, patches []tree.Patch, mapped bool) []tree.Patch {
	cur := patches
	for changed := true; changed; {
		changed = false
		for i := 0; i < len(cur); i++ {
			cand := append(append([]tree.Patch{}, cur[:i]...), cur[i+1:]...)
			if err := runSequence(base, cand, mapped); err != nil && !errors.Is(err, errInapplicable) {
				cur = cand
				changed = true
				break
			}
		}
	}
	return cur
}

func describe(patches []tree.Patch) string {
	var b strings.Builder
	for i, pt := range patches {
		if i > 0 {
			b.WriteString("; ")
		}
		fmt.Fprintf(&b, "%s node=%d before=%d", pt.Op, pt.Node, pt.Before)
		if pt.Frag != nil {
			fmt.Fprintf(&b, " frag=%s", pt.Frag.XMLString())
		}
	}
	return b.String()
}

// TestMVCCOracleDifferential is the headline property test: for several
// seeds, a random patch sequence is applied through the store's
// incremental path and every intermediate generation is verified —
// index and all-strategy query answers — against a from-scratch
// rebuild.
func TestMVCCOracleDifferential(t *testing.T) {
	steps := 25
	if testing.Short() {
		steps = 8
	}
	// Every seed runs twice: once with a heap-built base generation and
	// once with an mmap-backed one (XQO2 save + zero-copy open), proving
	// the copy-on-write patch path never aliases — or corrupts — the
	// mapped file's arrays.
	for _, mapped := range []bool{false, true} {
		name := "heap-base"
		if mapped {
			name = "mapped-base"
		}
		for seed := int64(1); seed <= 6; seed++ {
			seed, mapped := seed, mapped
			t.Run(fmt.Sprintf("%s/seed=%d", name, seed), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed))
				base := randDoc(rng)
				// Generate the sequence by actually applying each patch (a
				// patch is drawn against the document it will hit).
				doc := base
				var patches []tree.Patch
				for i := 0; i < steps; i++ {
					pt := randPatch(rng, doc)
					next, _, err := doc.Apply(pt)
					if err != nil {
						t.Fatalf("generating step %d: %v", i, err)
					}
					patches = append(patches, pt)
					doc = next
				}
				if err := runSequence(base, patches, mapped); err != nil {
					min := shrink(base, patches, mapped)
					t.Fatalf("seed %d failed: %v\nshrunk to %d step(s): %s\nbase: %s",
						seed, err, len(min), describe(min), base.XMLString())
				}
			})
		}
	}
}

// TestMVCCOracleAcrossTheWideLine: patch sequences that take one child's
// distance to its parent from 254 ranks to 256 and back, by insert,
// delete and replace — a fragment of more than 255 children included
// once — through the store from a heap base and from a mapped one, every
// generation checked like any other: index and all-strategy answers
// against a rebuild, labels and text against the patch done by
// definition, and the stored topology canonical. A parent that far from
// a child is wide, so the wide table gains and loses entries on the way.
func TestMVCCOracleAcrossTheWideLine(t *testing.T) {
	// 0=#doc 1=a 2=b, k leaves c under b, then item: b spans k = 252
	// ranks, item is 254 from a, and #doc spans 255.
	const big, k, b = 0xFF, 0xFF - 3, tree.NodeID(2)
	bd := tree.NewBuilder()
	bd.Open("a")
	bd.Open("b")
	for i := 0; i < k; i++ {
		bd.Open("c")
		bd.Close()
	}
	bd.Close()
	bd.Open("item")
	bd.Close()
	bd.Close()
	base := bd.MustFinish()
	one, two, wide := tgen.Chain("c", 1), tgen.Chain("c", 2), tgen.Star("b", "name", big+100)
	draw := []func(d *tree.Document) tree.Patch{
		func(d *tree.Document) tree.Patch { // b 254, item 256 from a: a wide
			return tree.Patch{Op: tree.OpInsert, Node: b, Before: d.FirstChild(b), Frag: two}
		},
		func(d *tree.Document) tree.Patch { // b 255: its new last child far from it, b wide
			return tree.Patch{Op: tree.OpInsert, Node: b, Before: tree.Nil, Frag: one}
		},
		func(d *tree.Document) tree.Patch { // b 256
			return tree.Patch{Op: tree.OpReplace, Node: d.LastDesc(b), Before: tree.Nil, Frag: two}
		},
		func(d *tree.Document) tree.Patch { // b 254 again
			return tree.Patch{Op: tree.OpDelete, Node: d.FirstChild(b), Before: tree.Nil}
		},
		func(d *tree.Document) tree.Patch { // b 253, item 255 from a: still far
			return tree.Patch{Op: tree.OpDelete, Node: d.FirstChild(b), Before: tree.Nil}
		},
		func(d *tree.Document) tree.Patch { // item 254 from a
			return tree.Patch{Op: tree.OpDelete, Node: d.FirstChild(b), Before: tree.Nil}
		},
		func(d *tree.Document) tree.Patch { // a fragment with far children in b's place
			return tree.Patch{Op: tree.OpReplace, Node: b, Before: tree.Nil, Frag: wide}
		},
		func(d *tree.Document) tree.Patch { // and gone: nothing far, nothing wide is left
			return tree.Patch{Op: tree.OpReplace, Node: b, Before: tree.Nil, Frag: one}
		},
	}
	doc := base
	var patches []tree.Patch
	for i, f := range draw {
		pt := f(doc)
		next, _, err := doc.Apply(pt)
		if err != nil {
			t.Fatalf("generating step %d: %v", i, err)
		}
		patches, doc = append(patches, pt), next
	}
	if err := runSequence(base, patches, false); err != nil {
		t.Errorf("heap base: %v", err)
	}
	// Only the first patch reads a mapped base's arrays (and takes item
	// across the line); one more takes b's last child across.
	if err := runSequence(base, patches[:2], true); err != nil {
		t.Errorf("mapped base: %v", err)
	}
}

// TestMVCCOracleAcrossTheSizeLine: patch sequences that take a subtree's
// length from 253 ranks over 255 and back, one node at a time and by a
// fragment of 300 nodes, once for the splice parent itself and once for
// an ancestor three levels above it, through the store — the whole
// sequence from a heap base, and every single step from a mapped base as
// well — every generation checked like any other, which is canonically:
// size and the wide table, the entry around each entry included, are
// those of the patch done by definition.
func TestMVCCOracleAcrossTheSizeLine(t *testing.T) {
	// 0=#doc 1=a 2=a 3=b 4=c 5=item over 10 leaves, then 240 leaves under
	// node 2, which spans 253 ranks; its sibling b spans 253 too.
	const p, top = tree.NodeID(5), tree.NodeID(2)
	bd := tree.NewBuilder()
	leaves := func(name string, n int) {
		for i := 0; i < n; i++ {
			bd.Open(name)
			bd.Close()
		}
	}
	bd.Open("a")
	bd.Open("a")
	bd.Open("b")
	bd.Open("c")
	bd.Open("item")
	leaves("name", 10)
	bd.Close()
	bd.Close()
	bd.Close()
	leaves("c", 240)
	bd.Close()
	bd.Open("b")
	leaves("name", 253)
	bd.Close()
	bd.Open("item")
	bd.Close()
	bd.Close()
	base := bd.MustFinish()
	one, two, large := tgen.Chain("name", 1), tgen.Chain("c", 2), tgen.Star("b", "name", 299)
	q := func(d *tree.Document) tree.NodeID { return d.NextSibling(top) }
	var draw []func(d *tree.Document) tree.Patch
	for _, parent := range []func(d *tree.Document) tree.NodeID{func(*tree.Document) tree.NodeID { return p }, q} {
		draw = append(draw,
			func(d *tree.Document) tree.Patch { // 254
				return tree.Patch{Op: tree.OpInsert, Node: parent(d), Before: tree.Nil, Frag: one}
			},
			func(d *tree.Document) tree.Patch { // 255: wide
				return tree.Patch{Op: tree.OpInsert, Node: parent(d), Before: d.FirstChild(parent(d)), Frag: one}
			},
			func(d *tree.Document) tree.Patch { // 256
				return tree.Patch{Op: tree.OpReplace, Node: d.LastDesc(parent(d)), Before: tree.Nil, Frag: two}
			},
			func(d *tree.Document) tree.Patch { // 255
				return tree.Patch{Op: tree.OpDelete, Node: d.LastDesc(parent(d)), Before: tree.Nil}
			},
			func(d *tree.Document) tree.Patch { // 254: wide no more
				return tree.Patch{Op: tree.OpDelete, Node: d.FirstChild(parent(d)), Before: tree.Nil}
			},
			func(d *tree.Document) tree.Patch { // 554: with the ancestors between, and the fragment's own element
				return tree.Patch{Op: tree.OpInsert, Node: parent(d), Before: d.FirstChild(parent(d)), Frag: large}
			},
			func(d *tree.Document) tree.Patch { // 255, a leaf in the fragment's place
				return tree.Patch{Op: tree.OpReplace, Node: d.FirstChild(parent(d)), Before: tree.Nil, Frag: one}
			},
			func(d *tree.Document) tree.Patch { // 254
				return tree.Patch{Op: tree.OpDelete, Node: d.FirstChild(parent(d)), Before: tree.Nil}
			},
		)
	}
	docs := []*tree.Document{base}
	var patches []tree.Patch
	for i, f := range draw {
		pt := f(docs[i])
		next, _, err := docs[i].Apply(pt)
		if err != nil {
			t.Fatalf("generating step %d: %v", i, err)
		}
		patches, docs = append(patches, pt), append(docs, next)
	}
	for i, want := range []int{254, 255, 256, 255, 254, 554, 255, 254} {
		if got := docs[i+1].SubtreeSize(top) - 1; got != want {
			t.Fatalf("step %d: node %d spans %d ranks, want %d", i, top, got, want)
		}
		if got := docs[8+i+1].SubtreeSize(q(docs[8+i+1])) - 1; got != want {
			t.Fatalf("step %d: the second b spans %d ranks, want %d", 8+i, got, want)
		}
	}
	if err := runSequence(base, patches, false); err != nil {
		t.Errorf("heap base: %v", err)
	}
	for i, pt := range patches {
		if err := runSequence(docs[i], []tree.Patch{pt}, true); err != nil {
			t.Errorf("mapped base, step %d alone: %v", i, err)
		}
	}
}

// TestMVCCOracleAcrossTheChunkLine: patch sequences that take an
// occurrence (the element item), a text node's rank and its text's offset
// from 65 535 to 65 536 and back, one node or one byte at a time, by
// insert, delete and replace — a fragment longer than a chunk included
// once — through the store from a heap base and from a mapped one, every
// generation checked like any other, which is canonically: the patched
// index's halves and chunk starts are those of an index built from
// scratch, the document's two text sequences those of the patch done by
// definition, so no chunk line of an earlier generation survives a
// splice, and the node count crossing 65 536 gives every row a chunk more
// or fewer.
func TestMVCCOracleAcrossTheChunkLine(t *testing.T) {
	if testing.Short() {
		t.Skip("a dozen generations of 65 000 to 200 000 nodes, each rebuilt and queried 96 times")
	}
	// 0=#doc 1=a 2=b 3=a text of 65 534 bytes, k leaves c, then item at
	// 65 533 with its text at 65 534, offset 65 534: 65 535 nodes.
	const line, k, b = 1 << 16, 1<<16 - 7, tree.NodeID(2)
	bd := tree.NewBuilder()
	bd.Open("a")
	bd.Open("b")
	bd.Close()
	bd.Text(strings.Repeat("x", line-2))
	for i := 0; i < k; i++ {
		bd.Open("c")
		bd.Close()
	}
	bd.Open("item")
	bd.Text("tail")
	bd.Close()
	bd.Close()
	base := bd.MustFinish()
	fb := tree.NewBuilder()
	fb.Open("c")
	fb.Text("y")
	fb.Close()
	leaf, text, chunk := tgen.Chain("c", 1), fb.MustFinish(), tgen.Star("b", "name", line+100)
	first := func(d *tree.Document) tree.NodeID { return d.FirstChild(b) }
	draw := []func(d *tree.Document) tree.Patch{
		func(d *tree.Document) tree.Patch { // item 65 534, its text 65 535
			return tree.Patch{Op: tree.OpInsert, Node: b, Before: tree.Nil, Frag: leaf}
		},
		func(d *tree.Document) tree.Patch { // item 65 535, its text 65 536: two chunks of ranks
			return tree.Patch{Op: tree.OpInsert, Node: b, Before: first(d), Frag: leaf}
		},
		func(d *tree.Document) tree.Patch { // item 65 536
			return tree.Patch{Op: tree.OpInsert, Node: b, Before: tree.Nil, Frag: leaf}
		},
		func(d *tree.Document) tree.Patch { // a byte ahead: the tail text at offset 65 535
			return tree.Patch{Op: tree.OpReplace, Node: first(d), Before: tree.Nil, Frag: text}
		},
		func(d *tree.Document) tree.Patch { // another: 65 536
			return tree.Patch{Op: tree.OpReplace, Node: d.LastDesc(b), Before: tree.Nil, Frag: text}
		},
		func(d *tree.Document) tree.Patch { // 65 535 again, two nodes fewer
			return tree.Patch{Op: tree.OpDelete, Node: first(d), Before: tree.Nil}
		},
		func(d *tree.Document) tree.Patch { // item 65 535 again
			return tree.Patch{Op: tree.OpDelete, Node: first(d), Before: tree.Nil}
		},
		func(d *tree.Document) tree.Patch { // more than a chunk in b's place: everything after it moves two chunks up
			return tree.Patch{Op: tree.OpReplace, Node: b, Before: tree.Nil, Frag: chunk}
		},
		func(d *tree.Document) tree.Patch { // and down again, below the line: one chunk
			return tree.Patch{Op: tree.OpReplace, Node: b, Before: tree.Nil, Frag: leaf}
		},
	}
	doc := base
	var patches []tree.Patch
	for i, f := range draw {
		pt := f(doc)
		next, _, err := doc.Apply(pt)
		if err != nil {
			t.Fatalf("generating step %d: %v", i, err)
		}
		patches, doc = append(patches, pt), next
	}
	if err := runSequence(base, patches, false); err != nil {
		t.Errorf("heap base: %v", err)
	}
	// Only the first patch reads a mapped base's arrays; the second takes
	// the ranks into a second chunk.
	if err := runSequence(base, patches[:2], true); err != nil {
		t.Errorf("mapped base: %v", err)
	}
}

// docOf builds a document from events: a name opens an element, "#text"
// adds a text node, "/" closes.
func docOf(events ...string) *tree.Document {
	b := tree.NewBuilder()
	for _, e := range events {
		switch {
		case e == "/":
			b.Close()
		case e[0] == '#':
			b.Text(e[1:])
		default:
			b.Open(e)
		}
	}
	return b.MustFinish()
}

// TestMVCCOracleEveryPosition: on a document small enough to try them
// all, every single patch — each subtree deleted, each replaced, a graft
// before each child and after the last; so a splice at the first node,
// at the last, inside a run of text nodes, between runs — with a
// fragment of known labels and one that brings a new label, through the
// store from a heap base and from a mapped one.
func TestMVCCOracleEveryPosition(t *testing.T) {
	base := docOf("a", "#head", "b", "#b1", "#", "#b3", "/", "c", "/", "#mid", "item", "name", "#deep", "/", "/", "#tail", "/")
	frags := []*tree.Document{docOf("b", "#f1", "c", "#f2", "/", "#f3", "/"), docOf("fresh", "#f4", "/")}
	var patches []tree.Patch
	for v := tree.NodeID(1); int(v) < base.NumNodes(); v++ {
		if v != base.DocumentElement() {
			patches = append(patches, tree.Patch{Op: tree.OpDelete, Node: v, Before: tree.Nil})
		}
		for _, frag := range frags {
			patches = append(patches, tree.Patch{Op: tree.OpReplace, Node: v, Before: tree.Nil, Frag: frag})
			if base.Label(v) == tree.LabelText {
				continue
			}
			for c := base.FirstChild(v); c != tree.Nil; c = base.NextSibling(c) {
				patches = append(patches, tree.Patch{Op: tree.OpInsert, Node: v, Before: c, Frag: frag})
			}
			patches = append(patches, tree.Patch{Op: tree.OpInsert, Node: v, Before: tree.Nil, Frag: frag})
		}
	}
	for _, mapped := range []bool{false, true} {
		for _, pt := range patches {
			if err := runSequence(base, []tree.Patch{pt}, mapped); err != nil {
				t.Errorf("mapped base %v: %v\npatch: %s\nbase: %s", mapped, err, describe([]tree.Patch{pt}), base.XMLString())
			}
		}
	}
}

// TestMVCCGenerationChain pins the lifecycle rules: pinned generations
// survive patches, unpinned non-latest generations retire, leases keep
// generations alive until expiry, base-gen conflicts are rejected, and
// evict retires everything (pins included).
// peek looks a generation up without holding it: Acquire, then drop the
// pin at once.
func peek(s *store.Store, id string, gen store.Gen) (*store.Handle, error) {
	h, err := s.Acquire(id, gen)
	if err == nil {
		s.Release(id, gen, time.Time{}, false)
	}
	return h, err
}

// genAfter is the generation after g, forged through its text: outside
// the store a Gen admits no arithmetic.
func genAfter(t *testing.T, g store.Gen) store.Gen {
	t.Helper()
	n, err := strconv.ParseUint(g.String(), 10, 64)
	if err == nil {
		g, err = store.ParseGen(strconv.FormatUint(n+1, 10))
	}
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestMVCCGenerationChain(t *testing.T) {
	s := store.New()

	rng := rand.New(rand.NewSource(7))
	base := randDoc(rng)
	h1, err := s.Add("d", base, store.SourceDirect)
	if err != nil {
		t.Fatal(err)
	}
	if h1.Gen == store.NoGen {
		t.Fatal("generation must be non-zero")
	}
	want1, err := evalAll(core.NewWithIndex(h1.Doc, h1.Index, qcache.New(16), ""), "//a", core.Auto)
	if err != nil {
		t.Fatal(err)
	}

	if _, err := s.Acquire("d", h1.Gen); err != nil {
		t.Fatal(err)
	}
	h2, err := s.Patch("d", h1.Gen, randPatch(rng, h1.Doc))
	if err != nil {
		t.Fatal(err)
	}
	h3, err := s.Patch("d", store.NoGen, randPatch(rng, h2.Doc))
	if err != nil {
		t.Fatal(err)
	}
	if h2.Gen != genAfter(t, h1.Gen) || h3.Gen != genAfter(t, h2.Gen) {
		t.Fatalf("generations must be sequential: %s %s %s", h1.Gen, h2.Gen, h3.Gen)
	}

	// Wrong base: optimistic concurrency rejects.
	if _, err := s.Patch("d", h1.Gen, randPatch(rng, h3.Doc)); !errors.Is(err, store.ErrConflict) {
		t.Fatalf("stale base: err = %v, want ErrConflict", err)
	}
	if _, err := s.Patch("nope", store.NoGen, randPatch(rng, h3.Doc)); !errors.Is(err, store.ErrNotFound) {
		t.Fatalf("missing doc: err = %v, want ErrNotFound", err)
	}

	// h2 had no pins or leases, so publishing h3 retired it; h1 is
	// pinned and must still serve its original tree.
	if _, err := peek(s, "d", h2.Gen); !errors.Is(err, store.ErrGone) {
		t.Fatalf("unpinned middle generation: err = %v, want ErrGone", err)
	}
	hp, err := peek(s, "d", h1.Gen)
	if err != nil {
		t.Fatalf("pinned generation: %v", err)
	}
	got1, err := evalAll(core.NewWithIndex(hp.Doc, hp.Index, qcache.New(16), ""), "//a", core.Auto)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(got1) != fmt.Sprint(want1) {
		t.Fatalf("pinned generation answered %v, want %v", got1, want1)
	}

	// Releasing the last reference retires h1.
	s.Release("d", h1.Gen, time.Time{}, false)
	if _, err := peek(s, "d", h1.Gen); !errors.Is(err, store.ErrGone) {
		t.Fatalf("after unpin: err = %v, want ErrGone", err)
	}

	// A lease (placed as its pin is released, the way a query issues a
	// cursor token) keeps a superseded generation alive until it expires.
	if _, err := s.Acquire("d", store.NoGen); err != nil {
		t.Fatal(err)
	}
	s.Release("d", h3.Gen, time.Now().Add(25*time.Millisecond), false)
	h4, err := s.Patch("d", store.NoGen, randPatch(rng, h3.Doc))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := peek(s, "d", h3.Gen); err != nil {
		t.Fatalf("leased generation: %v", err)
	}
	time.Sleep(40 * time.Millisecond)
	s.MVCC() // stats snapshot doubles as the lease janitor
	if _, err := peek(s, "d", h3.Gen); !errors.Is(err, store.ErrGone) {
		t.Fatalf("after lease expiry: err = %v, want ErrGone", err)
	}

	// Redeem releases a lease without waiting for the clock.
	if _, err := s.Acquire("d", h4.Gen); err != nil {
		t.Fatal(err)
	}
	s.Release("d", h4.Gen, time.Now().Add(time.Hour), false)
	h5, err := s.Patch("d", store.NoGen, randPatch(rng, h4.Doc))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := peek(s, "d", h4.Gen); err != nil {
		t.Fatalf("hour-leased generation: %v", err)
	}
	if _, err := s.Acquire("d", h4.Gen); err != nil {
		t.Fatal(err)
	}
	s.Release("d", h4.Gen, time.Time{}, true)
	if _, err := peek(s, "d", h4.Gen); !errors.Is(err, store.ErrGone) {
		t.Fatalf("after redeem: err = %v, want ErrGone", err)
	}

	// Evict retires everything, pins notwithstanding.
	if _, err := s.Acquire("d", h5.Gen); err != nil {
		t.Fatal(err)
	}
	if !s.Evict("d") {
		t.Fatal("evict reported not-present")
	}
	if _, err := peek(s, "d", h5.Gen); !errors.Is(err, store.ErrNotFound) {
		t.Fatalf("after evict: err = %v, want ErrNotFound", err)
	}

	// Every generation ever created retired exactly once: each of the
	// five was seen gone above, at the moment its last hold drained (h1-h4
	// through ErrGone, h5 with its evicted chain), and the counter agrees.
	st := s.MVCC()
	if st.Patches != 4 {
		t.Errorf("patches = %d, want 4", st.Patches)
	}
	if st.Retired != 5 {
		t.Errorf("retired = %d, want 5 (one per generation: %d %d %d %d %d)", st.Retired, h1.Gen, h2.Gen, h3.Gen, h4.Gen, h5.Gen)
	}
}
