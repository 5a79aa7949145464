// Package bitvec provides a static bit vector with constant-time rank and
// O(log n) select queries. It is the base layer of the succinct tree
// representation in internal/bp, which in turn backs the jumping tree index
// used by the automata evaluator (the role played by the compressed XML
// indexes of Arroyuelo et al. in the paper).
package bitvec

import (
	"fmt"
	"math/bits"
)

const (
	wordBits = 64
	// superBits is the span of one rank superblock in bits. Ranks are
	// cumulative per superblock, so rank queries read one superblock
	// counter plus at most superBits/wordBits words.
	superBits = 512
	wordsPer  = superBits / wordBits
)

// Broadword constants (Vigna, "Broadword implementation of rank/select
// queries"): l8 replicates a byte across the word, h8 marks the high bit
// of every byte.
const (
	l8 = 0x0101010101010101
	h8 = 0x8080808080808080
)

// selByte[b][j] is the position (0-7) of the (j+1)-th set bit of byte b;
// entries past the byte's popcount are unused. 2KB, built once — the
// in-byte half of the branchless word select.
var selByte [256][8]uint8

func init() {
	for b := 0; b < 256; b++ {
		j := 0
		for i := 0; i < 8; i++ {
			if b&(1<<i) != 0 {
				selByte[b][j] = uint8(i)
				j++
			}
		}
	}
}

// Builder accumulates bits and produces an immutable Vector.
type Builder struct {
	words []uint64
	n     int
}

// NewBuilder returns a Builder with capacity for n bits preallocated.
func NewBuilder(n int) *Builder {
	return &Builder{words: make([]uint64, 0, (n+wordBits-1)/wordBits)}
}

// Append adds one bit to the end of the vector under construction.
func (b *Builder) Append(bit bool) {
	if b.n%wordBits == 0 {
		b.words = append(b.words, 0)
	}
	if bit {
		b.words[b.n/wordBits] |= 1 << uint(b.n%wordBits)
	}
	b.n++
}

// AppendN adds the same bit value n times.
func (b *Builder) AppendN(bit bool, n int) {
	for i := 0; i < n; i++ {
		b.Append(bit)
	}
}

// appendBits appends the low nbits of w (nbits in [1, 64]).
func (b *Builder) appendBits(w uint64, nbits int) {
	if nbits < wordBits {
		w &= 1<<uint(nbits) - 1
	}
	off := uint(b.n % wordBits)
	if off == 0 {
		b.words = append(b.words, w)
	} else {
		b.words[len(b.words)-1] |= w << off
		if int(off)+nbits > wordBits {
			b.words = append(b.words, w>>(wordBits-off))
		}
	}
	b.n += nbits
}

// AppendRange appends bits [from, to) of src, copying word-at-a-time
// instead of bit-by-bit — the workhorse of the BP splice, where all but
// a fragment-sized window of the parenthesis sequence is carried over
// unchanged.
func (b *Builder) AppendRange(src *Vector, from, to int) {
	if from < 0 || to > src.n || from > to {
		panic("bitvec: append range out of bounds")
	}
	for from+wordBits <= to {
		b.appendBits(src.word64(from), wordBits)
		from += wordBits
	}
	if rem := to - from; rem > 0 {
		b.appendBits(src.word64(from), rem)
	}
}

// Len reports the number of bits appended so far.
func (b *Builder) Len() int { return b.n }

// Build finalizes the bits into an immutable Vector with rank/select
// support. The Builder must not be used afterwards.
func (b *Builder) Build() *Vector {
	v := &Vector{words: b.words, n: b.n}
	v.buildRank()
	b.words = nil
	b.n = 0
	return v
}

// Vector is an immutable bit vector supporting Get, Rank and Select.
type Vector struct {
	words []uint64
	n     int
	// super[i] = number of 1-bits strictly before superblock i.
	super []uint64
	ones  int
}

// FromBools builds a Vector from a boolean slice; useful in tests.
func FromBools(bits []bool) *Vector {
	b := NewBuilder(len(bits))
	for _, bit := range bits {
		b.Append(bit)
	}
	return b.Build()
}

func (v *Vector) buildRank() {
	nSuper := (len(v.words) + wordsPer - 1) / wordsPer
	v.super = make([]uint64, nSuper+1)
	var acc uint64
	for i := 0; i < nSuper; i++ {
		v.super[i] = acc
		end := (i + 1) * wordsPer
		if end > len(v.words) {
			end = len(v.words)
		}
		for _, w := range v.words[i*wordsPer : end] {
			acc += uint64(bits.OnesCount64(w))
		}
	}
	v.super[nSuper] = acc
	v.ones = int(acc)
}

// Len reports the number of bits in the vector.
func (v *Vector) Len() int { return v.n }

// Ones reports the total number of 1-bits.
func (v *Vector) Ones() int { return v.ones }

// Zeros reports the total number of 0-bits.
func (v *Vector) Zeros() int { return v.n - v.ones }

// Get reports the bit at position i (0-based).
func (v *Vector) Get(i int) bool {
	return v.words[i/wordBits]&(1<<uint(i%wordBits)) != 0
}

// Byte reads the 8 bits starting at bit position i, which must be a
// multiple of 8 (so the read never crosses a word). Bits past the
// vector's end read as zero. The balanced-parentheses excess kernels
// step through blocks with this.
func (v *Vector) Byte(i int) byte {
	return byte(v.words[i>>6] >> (uint(i) & 63))
}

// word64 reads up to 64 bits starting at bit position i; bits past the
// vector's end are zero.
func (v *Vector) word64(i int) uint64 {
	wi, off := i/wordBits, uint(i%wordBits)
	w := v.words[wi] >> off
	if off != 0 && wi+1 < len(v.words) {
		w |= v.words[wi+1] << (wordBits - off)
	}
	return w
}

// Rank1 returns the number of 1-bits in positions [0, i), i.e. strictly
// before position i. Rank1(Len()) equals Ones().
func (v *Vector) Rank1(i int) int {
	if i <= 0 {
		return 0
	}
	if i > v.n {
		i = v.n
	}
	sb := i / superBits
	r := v.super[sb]
	w := sb * wordsPer
	for ; (w+1)*wordBits <= i; w++ {
		r += uint64(bits.OnesCount64(v.words[w]))
	}
	if rem := i - w*wordBits; rem > 0 {
		r += uint64(bits.OnesCount64(v.words[w] & (1<<uint(rem) - 1)))
	}
	return int(r)
}

// Rank0 returns the number of 0-bits strictly before position i.
func (v *Vector) Rank0(i int) int {
	if i < 0 {
		return 0
	}
	if i > v.n {
		i = v.n
	}
	return i - v.Rank1(i)
}

// Select1 returns the position of the k-th 1-bit (1-based): the smallest p
// with Rank1(p+1) == k. It returns -1 if there are fewer than k ones.
func (v *Vector) Select1(k int) int {
	if k <= 0 || k > v.ones {
		return -1
	}
	// Binary search over superblocks.
	lo, hi := 0, len(v.super)-1
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if v.super[mid] < uint64(k) {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	rem := k - int(v.super[lo])
	w := lo * wordsPer
	for ; w < len(v.words); w++ {
		c := bits.OnesCount64(v.words[w])
		if c >= rem {
			break
		}
		rem -= c
	}
	return w*wordBits + selectInWord(v.words[w], rem)
}

// Select0 returns the position of the k-th 0-bit (1-based), or -1. Like
// Select1 it binary-searches the superblock directory (zeros before
// superblock i are i*superBits - super[i]) and finishes with one
// word-level select — not a positional binary search over Rank0 calls.
func (v *Vector) Select0(k int) int {
	if k <= 0 || k > v.n-v.ones {
		return -1
	}
	// zerosBefore(i), capped at the vector's end for the final
	// (possibly partial) superblock.
	zerosBefore := func(i int) int {
		bitsBefore := i * superBits
		if bitsBefore > v.n {
			bitsBefore = v.n
		}
		return bitsBefore - int(v.super[i])
	}
	lo, hi := 0, len(v.super)-1
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if zerosBefore(mid) < k {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	rem := k - zerosBefore(lo)
	w := lo * wordsPer
	for ; w < len(v.words); w++ {
		// Zeros in this word, not counting storage bits past the
		// vector's end (they read as 0 but are not part of the vector).
		valid := v.n - w*wordBits
		if valid > wordBits {
			valid = wordBits
		}
		c := valid - bits.OnesCount64(v.words[w])
		if c >= rem {
			break
		}
		rem -= c
	}
	return w*wordBits + selectInWord(^v.words[w], rem)
}

// selectInWord returns the position (0-63) of the k-th set bit (1-based)
// in w. Branchless: a byte-parallel popcount prefix locates the byte,
// a 256-entry table resolves the bit within it — no clear-lowest-bit
// loop.
func selectInWord(w uint64, k int) int {
	// s: byte i holds the popcount of byte i of w.
	s := w - ((w >> 1) & 0x5555555555555555)
	s = (s & 0x3333333333333333) + ((s >> 2) & 0x3333333333333333)
	s = (s + (s >> 4)) & 0x0f0f0f0f0f0f0f0f
	// ps: byte i holds the popcount of bytes 0..i (prefix sums).
	ps := s * l8
	// High bit of byte i of ge is set iff prefix(i) >= k; the byte
	// holding the k-th bit is the first such, i.e. 8 minus their count.
	ge := ((ps | h8) - uint64(k)*l8) & h8
	byteIdx := 8 - int(((ge>>7)*l8)>>56)
	// Rank of the target bit within its byte: k minus the previous
	// byte's prefix (shift in a zero for byte 0).
	prev := int((ps << 8) >> (8 * uint(byteIdx)) & 0xff)
	b := byte(w >> (8 * uint(byteIdx)))
	return 8*byteIdx + int(selByte[b][k-prev-1])
}

// String renders short vectors as 0/1 strings for debugging.
func (v *Vector) String() string {
	if v.n > 256 {
		return fmt.Sprintf("bitvec.Vector(len=%d, ones=%d)", v.n, v.ones)
	}
	buf := make([]byte, v.n)
	for i := 0; i < v.n; i++ {
		if v.Get(i) {
			buf[i] = '1'
		} else {
			buf[i] = '0'
		}
	}
	return string(buf)
}
