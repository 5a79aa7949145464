package tree

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// requireSeq holds s to want, the plain values it stands for: the shape
// (chunks, Len), a sweep (From, from the start and from the middle), every
// element by position (At), the first element at or above x for x around
// zero, every chunk line and the largest value (Search), and a cursor
// moved forward in steps of every size from one element to more than a
// chunk (Next, with and without Step ahead of it, as the two callers use
// it).
func requireSeq(t *testing.T, what string, s Seq, want []uint32, chunks int) {
	t.Helper()
	if len(s.Start) != chunks+1 || s.Len() != len(want) {
		t.Fatalf("%s: %d chunks of %d elements, want %d of %d", what, len(s.Start)-1, s.Len(), chunks, len(want))
	}
	if got := slices.Collect(s.From(0)); !slices.Equal(got, want) {
		t.Fatalf("%s: a sweep yields %d elements that are not the %d wanted (first difference at %d)", what, len(got), len(want), firstDiff(got, want))
	}
	if mid := len(want) / 2; !slices.Equal(slices.Collect(s.From(mid)), want[mid:]) || slices.Collect(s.From(len(want))) != nil {
		t.Fatalf("%s: a sweep from the middle, or from the end, differs", what)
	}
	for i, x := range want {
		if got := s.At(i); got != x {
			t.Fatalf("%s: At(%d) = %d, want %d", what, i, got, x)
		}
	}
	first := func(x uint32) (int, uint32) { // the reference: first element that is x or more
		if i := sort.Search(len(want), func(i int) bool { return want[i] >= x }); i < len(want) {
			return i, want[i]
		}
		return len(want), None
	}
	probes := []uint32{0, 1, 2, uint32(chunks) << 16, uint32(chunks)<<16 + 1, 1 << 31, None}
	for c := 1; c <= chunks; c++ {
		probes = append(probes, uint32(c)<<16-2, uint32(c)<<16-1, uint32(c)<<16, uint32(c)<<16+1)
	}
	if len(want) > 0 {
		last := want[len(want)-1]
		probes = append(probes, want[0], want[0]+1, last-1, last, last+1)
	}
	for _, x := range probes {
		wantPos, wantVal := first(x)
		if pos, val := s.Search(x); pos != wantPos || val != wantVal {
			t.Fatalf("%s: Search(%d) = element %d, %d; want element %d, %d", what, x, pos, val, wantPos, wantVal)
		}
	}
	for _, gap := range []uint32{1, 2, 3, 7, 8, 9, 100, 1000, 1<<16 - 1, 1 << 16, 1<<16 + 1, 100000} {
		for _, step := range []bool{false, true} {
			var cu Cursor
			val := None
			for x := uint32(0); x < uint32(chunks+1)<<16; x += gap {
				if val != None && x <= val {
					continue // the cursor's answer stands; Next is for the bounds above it
				}
				_, wantVal := first(x)
				got := None
				if step {
					got = cu.Step(s.Lo, val, x)
				}
				if got == None {
					got = s.Next(&cu, 0, chunks, val, x)
				}
				if got != wantVal {
					t.Fatalf("%s, gap %d, step %v: the cursor's first element at or above %d is %d, want %d", what, gap, step, x, got, wantVal)
				}
				if val = got; val == None {
					break
				}
			}
		}
	}
}

// TestSeqWriterAgainstPlainSlices: sequences of every shape the writer
// can be given — empty, one element, dense, sparse with empty chunks at
// the start, in the middle and at the end, living only in the last
// chunk, with runs of equal neighbours, on both sides of a chunk line —
// element by element (Put), and then each as a shifted copy of another
// (Append, by every shift from a few elements to more than a chunk, up
// and down, whole chunks included), are what the plain values say.
func TestSeqWriterAgainstPlainSlices(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	random := func(n int, bound uint32) []uint32 {
		v := make([]uint32, n)
		for i := range v {
			v[i] = uint32(rng.Int63n(int64(bound)))
		}
		slices.Sort(v)
		return v
	}
	seqOf := func(values []uint32, chunks int) Seq {
		w := NewSeqWriter(len(values), chunks)
		for _, x := range values {
			w.Put(0, x)
		}
		return w.Done()
	}
	const line = 1 << 16
	shapes := map[string][]uint32{
		"empty":               nil,
		"one":                 {7},
		"first of a chunk":    {line},
		"last of a chunk":     {line - 1},
		"both sides":          {line - 2, line - 1, line, line + 1},
		"only the last chunk": {4*line + 5, 4*line + 9, 5*line - 1},
		"empty middle":        {3, 4, 4*line + 1},
		"equal neighbours":    {0, 0, 0, 5, 5, line - 1, line - 1, line, line, line, 3 * line, 3 * line},
		"dense":               random(200000, 3*line),
		"sparse":              random(40, 5*line),
	}
	for name, values := range shapes {
		chunks := 5
		s := seqOf(values, chunks)
		requireSeq(t, name, s, values, chunks)
		for _, delta := range []int{0, 1, -1, 5, line - 1, line, line + 1, 2 * line, -line, -line - 3, 100000} {
			from, to := len(values)/3, len(values)
			if len(values) > 0 && int(values[from])+delta < 0 {
				from, _ = s.Search(uint32(-delta)) // the elements a downward shift leaves at zero or above
			}
			var shifted []uint32
			for _, x := range values[from:to] {
				shifted = append(shifted, uint32(int(x)+delta))
			}
			// As a patch does it: a head copied as it is, an element put, the
			// tail shifted — into a sequence of another number of chunks.
			head := min(from, 2)
			all := slices.Concat(values[:head], shifted)
			if !slices.IsSorted(all) {
				continue // a shift down past the head: no patch does that
			}
			w := NewSeqWriter(len(all), 8)
			w.Append(0, s, 0, head, 0)
			w.Append(0, s, from, to, delta)
			got, want := w.Done(), seqOf(all, 8)
			requireSeq(t, fmt.Sprintf("%s shifted by %d", name, delta), got, all, 8)
			if !slices.Equal(got.Lo, want.Lo) || !slices.Equal(got.Start, want.Start) {
				t.Fatalf("%s shifted by %d: not the sequence the values make put one by one", name, delta)
			}
		}
	}
}

// TestSeqTableRows: three rows written into one table — a dense one, an
// empty one, one living in the last chunk only — are each what Next
// finds in place and what the row cut out as a Seq of its own holds and
// searches.
func TestSeqTableRows(t *testing.T) {
	const chunks = 3
	rows := [][]uint32{{1, 2, 70000, 70001, 140000}, nil, {3<<16 - 2, 3<<16 - 1}, {0}}
	n := 0
	for _, row := range rows {
		n += len(row)
	}
	w := NewSeqWriter(n, len(rows)*chunks)
	for r, row := range rows {
		for _, x := range row {
			w.Put(r*chunks, x)
		}
	}
	table := w.Done()
	for r, row := range rows {
		base := r * chunks
		cut := Seq{Lo: table.Lo, Start: table.Start[base : base+chunks+1]}
		requireSeq(t, fmt.Sprint("row ", r), cut, row, chunks)
		for _, x := range []uint32{0, 1, 3, 65536, 70000, 70002, 3<<16 - 1, 3 << 16, None} {
			i := sort.Search(len(row), func(i int) bool { return row[i] >= x })
			want := None
			if i < len(row) {
				want = row[i]
			}
			var cu Cursor
			if pos, val := cut.Search(x); pos != i || val != want {
				t.Errorf("row %d: Search(%d) = element %d, %d; want element %d, %d", r, x, pos, val, i, want)
			}
			if val := table.Next(&cu, base, chunks, None, x); val != want {
				t.Errorf("row %d: a fresh cursor's first element at or above %d is %d, want %d", r, x, val, want)
			}
		}
	}
}

// TestTextSequencesOnBothSidesOfTheChunkLine: documents whose last node
// is a text node of rank 65 535, 65 536 or 65 537 — the last of the first
// chunk, the first of the second, and the one after — with as many bytes
// of text before its own, so its offset crosses the line with its rank,
// and empty texts among the others (equal neighbours among the offsets),
// built by Join and opened from their sections, find the text nodes and
// hold the offsets the events say, and read every text back.
func TestTextSequencesOnBothSidesOfTheChunkLine(t *testing.T) {
	const line = 1 << 16
	for _, n := range []int{line - 1, line, line + 1} {
		b := NewBuilder()
		b.Open("r")
		var ranks, offsets []uint32
		blob := 0
		text := func(content string) {
			ranks, offsets = append(ranks, uint32(b.Text(content))), append(offsets, uint32(blob))
			blob += len(content)
		}
		for v := 2; v < n-1; v++ { // 0 is #doc, 1 is r, n-1 the last text
			switch {
			case v%7 == 3:
				text("")
			case v%7 == 5:
				text("ab")
			default:
				b.Open("e")
				b.Close()
			}
		}
		text(string(make([]byte, n-blob))) // brings the blob to n bytes before the last text
		text("end")
		b.Close()
		built := b.MustFinish()
		if built.NumNodes() != n+1 { // the last text made it one more: ranks up to n
			t.Fatalf("built %d nodes, want %d", built.NumNodes(), n+1)
		}
		offsets = append(offsets, uint32(blob))
		for origin, d := range map[string]*Document{"built": built, "at rest": atRest(t, built)} {
			what := fmt.Sprintf("%d nodes, %s", n+1, origin)
			requireTextNodes(t, what, d, ranks)
			requireSeq(t, what+", text offsets", d.textOff, offsets, Chunks(blob+1))
			requireMatchesReference(t, what, d)
			if got := d.Text(NodeID(n)); got != "end" {
				t.Errorf("%s: the last text reads %q", what, got)
			}
		}
	}
}

// requireTextNodes holds d's text ranks and its #text scan to the ranks
// of its text nodes: a sweep of NextText names exactly them, and the
// i-th has text rank i.
func requireTextNodes(t *testing.T, what string, d *Document, ranks []uint32) {
	t.Helper()
	var swept []uint32
	for v := d.NextText(Nil); v != Nil; v = d.NextText(v) {
		swept = append(swept, uint32(v))
	}
	if !slices.Equal(swept, ranks) {
		t.Fatalf("%s: a sweep of NextText yields %d text nodes that are not the %d built (first difference at %d)", what, len(swept), len(ranks), firstDiff(swept, ranks))
	}
	for i, v := range ranks {
		if got := d.TextRank(NodeID(v)); got != i {
			t.Fatalf("%s: text node %d has text rank %d, want %d", what, v, got, i)
		}
	}
	if got := d.TextRank(NodeID(d.NumNodes())); got != len(ranks) {
		t.Fatalf("%s: %d text nodes counted, want %d", what, got, len(ranks))
	}
}
