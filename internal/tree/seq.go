package tree

import (
	"fmt"
	"iter"
)

// Seq is a non-decreasing sequence of uint32 values in two bytes an
// element: Lo holds the low half of each value in order, and Start cuts
// Lo by value into chunks 65 536 wide — Start[c] is the index in Lo of
// the first element that is c<<16 or more, and one closing entry ends the
// last chunk. Element i is chunk(i)<<16 | Lo[i]; the first element at or
// above x is found by indexing the directory with x>>16 and searching
// 16-bit halves inside that one chunk; the length is a subtraction.
//
// Every sorted sequence a document and its index keep is one: the ranks
// of the text nodes, the text offsets, the occurrences of each label.
// Sequences over the same value range can share one Seq as the rows of a
// table: their halves in one Lo, row after row, and their directories
// laid end to end in one Start, so that row r of a table of rows with
// chunks chunks each is the chunks+1 entries from r*chunks on, the
// closing entry of one row being the first of the next. Next takes a
// row that way; a row cut out as a Seq of its own (Start sub-sliced, its
// entries still indices into the shared Lo) serves the other methods. The encoding is canonical — two Seq holding the same
// values over the same number of chunks are equal array for array — and
// a Seq is immutable once built; the zero Seq is empty.
//
// The methods that search take a pointer: a Seq is six words, more than
// the compiler keeps in registers, and a jump should not copy them.
type Seq struct {
	Lo    []uint16
	Start []uint32
}

// None is the value a search reports when no element qualifies. As a
// NodeID it is Nil.
const None = ^uint32(0)

// Chunks returns how many chunks the values below bound take.
func Chunks(bound int) int { return (bound + 0xFFFF) >> 16 }

// Len returns the number of elements.
func (s Seq) Len() int {
	if len(s.Start) == 0 {
		return 0
	}
	return int(s.Start[len(s.Start)-1] - s.Start[0])
}

// MemBytes reports the bytes the halves and the directory take.
func (s Seq) MemBytes() int64 { return 2*int64(len(s.Lo)) + 4*int64(len(s.Start)) }

// At returns element i, finding its chunk by binary search of the
// directory.
func (s *Seq) At(i int) uint32 {
	k := s.Start[0] + uint32(i)
	return uint32(chunkOf(s.Start, k, 0))<<16 | uint32(s.Lo[k])
}

// chunkOf returns the chunk, c or later, that index k of Lo lies in, by
// the directory start: the first whose end is past k. Past the last
// element that is no chunk, but the number of them.
func chunkOf(start []uint32, k uint32, c int) int {
	end := start[1:]
	hi := len(end)
	for c < hi {
		if m := int(uint(c+hi) >> 1); end[m] <= k {
			c = m + 1
		} else {
			hi = m
		}
	}
	return c
}

// searchHalves returns the first position of lo holding h or more.
func searchHalves(lo []uint16, h uint16) int {
	i, j := 0, len(lo)
	for i < j {
		if m := int(uint(i+j) >> 1); lo[m] < h {
			i = m + 1
		} else {
			j = m
		}
	}
	return i
}

// Search returns the position and the value of the first element that is
// x or more, or Len and None.
func (s *Seq) Search(x uint32) (int, uint32) {
	chunks := len(s.Start) - 1
	c := int(x >> 16)
	if c >= chunks {
		if chunks < 0 { // the zero Seq
			return 0, None
		}
		return s.Len(), None
	}
	a, b := s.Start[c], s.Start[c+1]
	k := a + uint32(searchHalves(s.Lo[a:b], uint16(x)))
	if k == b { // nothing that large in x's chunk: the head of the next chunk that has an element
		if c = chunkOf(s.Start, k, c+1); c == chunks {
			return int(k - s.Start[0]), None
		}
	}
	return int(k - s.Start[0]), uint32(c)<<16 | uint32(s.Lo[k])
}

// Cursor is a place in a Seq, or in a row of one, that only moves
// forward: the index in Lo of the element under it and where that
// element's chunk ends, so a move within the chunk reads no directory.
// The zero Cursor is fresh; the value of the element under it is the
// caller's to keep (see Next).
type Cursor struct{ pos, end uint32 }

// Fresh reports whether cu is as a zero Cursor is: never moved, or only
// over a sequence that has no elements.
func (cu *Cursor) Fresh() bool { return cu.end == 0 }

// Step moves cu on by one element and returns its value, if that is the
// answer Next would give and takes no directory to find: the next element
// lies in the cursor's chunk, as x does, and is x or more. Otherwise cu
// stays and Step returns None. lo is the sequence's Lo, val and x are as
// for Next; small enough to be inlined where Next is a call.
func (cu *Cursor) Step(lo []uint16, val, x uint32) uint32 {
	if k := cu.pos + 1; k < cu.end && val>>16 == x>>16 && lo[k] >= uint16(x) {
		cu.pos = k
		return val&^0xFFFF | uint32(lo[k])
	}
	return None
}

// Next moves cu, a cursor in the row of s whose directory is the chunks+1
// entries of Start from base on, to the row's first element that is x or
// more and returns its value, or None when there is none (and cu is then
// no longer fresh, unless the row is empty). val is the value Next or
// Step last returned for cu, None if that was nothing or cu is fresh, and
// x must be above it: the elements up to the one under the cursor are
// out. A chunk later than the cursor's is entered through the directory
// and searched whole; inside its own chunk the cursor mostly moves in
// small steps, so a few elements are tried one by one before the rest of
// the chunk is searched.
func (s *Seq) Next(cu *Cursor, base, chunks int, val, x uint32) uint32 {
	start := s.Start[base : base+chunks+1]
	c, h := int(x>>16), uint16(x)
	k := cu.pos + 1
	switch {
	case c >= chunks: // x is above every value the row can hold: off the end
		k, cu.end, c = start[chunks], start[chunks], chunks
	case val == None || int(val>>16) != c: // x's chunk is not the cursor's
		cu.end = start[c+1]
		k = start[c] + uint32(searchHalves(s.Lo[start[c]:cu.end], h))
	default:
		for tried := 0; k < cu.end && s.Lo[k] < h; k++ {
			if tried++; tried == 8 {
				k += uint32(searchHalves(s.Lo[k:cu.end], h))
				break
			}
		}
	}
	for cu.pos = k; k == cu.end; cu.end = start[c+1] { // nothing that large in the chunk: on to the next that has an element
		if c++; c >= chunks {
			return None
		}
	}
	return uint32(c)<<16 | uint32(s.Lo[k])
}

// From ranges over the elements from position i on, in order.
func (s Seq) From(i int) iter.Seq[uint32] {
	return func(yield func(uint32) bool) {
		if len(s.Start) == 0 {
			return
		}
		k := s.Start[0] + uint32(i)
		for c := chunkOf(s.Start, k, 0); c < len(s.Start)-1; c++ {
			for hi := uint32(c) << 16; k < s.Start[c+1]; k++ {
				if !yield(hi | uint32(s.Lo[k])) {
					return
				}
			}
		}
	}
}

// SeqWriter fills a Seq of known length front to back — a table row after
// row, each row in ascending order.
type SeqWriter struct {
	s     Seq
	n     uint32 // elements written
	chunk int    // Start[:chunk] is final
}

// NewSeqWriter returns a writer of a Seq of n elements and chunks chunks
// (of a table, all its rows' together).
func NewSeqWriter(n, chunks int) *SeqWriter {
	return &SeqWriter{s: Seq{Lo: make([]uint16, n), Start: make([]uint32, chunks+1)}}
}

// Put appends x to the row whose directory starts at entry base (0 for a
// Seq that is no table). x must be no less than what the row holds, and
// base no less than the row last written.
func (w *SeqWriter) Put(base int, x uint32) {
	w.open(base+int(x>>16), w.n)
	w.s.Lo[w.n] = uint16(x)
	w.n++
}

// open starts chunk c of the directory at index k of Lo, and with it the
// chunks before it that nothing has started.
func (w *SeqWriter) open(c int, k uint32) {
	for ; w.chunk <= c; w.chunk++ {
		w.s.Start[w.chunk] = k
	}
}

// Append appends to the row at base the elements [from, to) of src — a
// Seq of its own or a row cut out of a table — each with delta added,
// which may be negative. Nothing is decoded: the elements of one source
// chunk land in two chunks at most, cut where their halves plus the
// shift's wrap, so each chunk takes one search and one pass adding a
// constant to its halves, or a plain copy when the shift is whole chunks.
func (w *SeqWriter) Append(base int, src Seq, from, to, delta int) {
	if from == to {
		return
	}
	start := src.Start
	k, end := start[0]+uint32(from), start[0]+uint32(to)
	for c := chunkOf(start, k, 0); k < end; c++ {
		halves := src.Lo[k:min(start[c+1], end)]
		zero := c<<16 + delta // what a half of 0 in this chunk becomes
		shift, into := uint16(zero), base+zero>>16
		wrap := len(halves) // the halves from here on land in the chunk after into
		if shift != 0 {
			wrap = searchHalves(halves, -shift)
		}
		if wrap > 0 {
			w.open(into, w.n)
		}
		if wrap < len(halves) {
			w.open(into+1, w.n+uint32(wrap))
		}
		if dst := w.s.Lo[w.n:][:len(halves)]; shift == 0 {
			copy(dst, halves)
		} else {
			for i, h := range halves {
				dst[i] = h + shift
			}
		}
		w.n += uint32(len(halves))
		k += uint32(len(halves))
	}
}

// Done closes the chunks no element opened and returns the sequence.
func (w *SeqWriter) Done() Seq {
	for ; w.chunk < len(w.s.Start); w.chunk++ {
		w.s.Start[w.chunk] = w.n
	}
	return w.s
}

// SeqFromLayout aliases a sequence stored as two sections, n halves
// (any number if n is negative) and their directory, and checks what
// every read relies on, in O(chunks): the directory has chunks+1 entries
// that never decrease, from 0 to the number of halves. No half is looked
// at — that the halves ascend inside each chunk is VerifyStructure's to
// prove, and a sequence whose do not can answer wrongly, but not out of
// range.
func SeqFromLayout(l *Layout, lo, dir uint32, n, chunks int) (Seq, error) {
	var s Seq
	var err error
	if s.Lo, err = layoutSlice[uint16](l, lo, n); err != nil {
		return Seq{}, err
	}
	if s.Start, err = layoutSlice[uint32](l, dir, chunks+1); err != nil {
		return Seq{}, err
	}
	prev := uint32(0)
	for c, k := range s.Start {
		if k < prev || c == 0 && k != 0 {
			return Seq{}, fmt.Errorf("tree: xqo2: section %d: chunk %d starts at %d, the one before at %d", dir, c, k, prev)
		}
		prev = k
	}
	if int(prev) != len(s.Lo) {
		return Seq{}, fmt.Errorf("tree: xqo2: section %d: the last chunk ends at %d of %d elements", dir, prev, len(s.Lo))
	}
	return s, nil
}
