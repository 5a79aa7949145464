// Package xmlparse is a small, fast, non-validating XML parser producing
// tree.Documents. It supports the subset of XML the paper's experiments
// need: elements, attributes, character data, CDATA sections, comments,
// processing instructions and the five predefined entities. Namespaces are
// not expanded (prefixed names are kept verbatim), DTDs are skipped.
//
// Attributes are encoded as element children labeled "@name" whose single
// child is a text node with the attribute value — the encoding of
// reference [1] of the paper, which makes the attribute axis a plain
// child-axis step for the automata.
//
// The parser is one iterative byte-level kernel (tokenize.go): it writes
// a stretch of the source straight into the node arrays of a tree.Piece
// without building a string per token, and tree.Join assembles the
// document from the pieces. A large source is cut at '<' bytes into one
// chunk per processor and the chunks are tokenized concurrently; Parse
// below checks that they fit and joins them. DESIGN.md, "Loading", has
// the invariants.
package xmlparse

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"sync"

	"repro/internal/tree"
)

// SyntaxError reports a parse failure with a byte offset.
type SyntaxError struct {
	Offset int
	Msg    string
}

func (e *SyntaxError) Error() string {
	return fmt.Sprintf("xmlparse: offset %d: %s", e.Offset, e.Msg)
}

// chunkBytes is the least source worth a chunk of its own: below it the
// goroutine and the merge cost more than the second processor saves.
const chunkBytes = 1 << 20

// Parse parses a complete XML document from src.
func Parse(src []byte) (*tree.Document, error) {
	k := len(src) / chunkBytes
	if p := runtime.GOMAXPROCS(0); k > p {
		k = p
	}
	return parse(src, k)
}

// ParseString parses a complete XML document from a string.
func ParseString(src string) (*tree.Document, error) {
	return Parse([]byte(src))
}

// parse tokenizes src as up to k chunks and joins the result. Only a
// single chunk sees the source in document order, so only its error is
// the one to report: any failure among several chunks re-runs as one.
func parse(src []byte, k int) (*tree.Document, error) {
	chunks := tokenizeChunks(src, k)
	d, err := assemble(src, chunks)
	if err != nil && len(chunks) > 1 {
		return parse(src, 1)
	}
	return d, err
}

// tokenizeChunks cuts src at the first '<' at or after each 1/k point
// and tokenizes the pieces concurrently, the first on this goroutine.
// A later chunk assumes its '<' starts markup in element content; it is
// kept only if its predecessor, which knows, stopped exactly there. A
// cut inside a comment, CDATA section, processing instruction or
// attribute value fails that test, and what follows the last good chunk
// is tokenized again from where that chunk really ended.
func tokenizeChunks(src []byte, k int) []*chunk {
	starts := []int{0}
	for i := 1; i < k; i++ {
		at := len(src) / k * i
		j := bytes.IndexByte(src[at:], '<')
		if j < 0 {
			break
		}
		if at+j > starts[len(starts)-1] {
			starts = append(starts, at+j)
		}
	}
	chunks := make([]*chunk, len(starts))
	limits := append(starts[1:], len(src))
	var wg sync.WaitGroup
	for i := range chunks {
		chunks[i] = &chunk{start: starts[i], first: i == 0}
		if i > 0 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				chunks[i].tokenize(src, limits[i])
			}()
		}
	}
	chunks[0].tokenize(src, limits[0])
	wg.Wait()
	for i := 1; i < len(chunks); i++ {
		prev := chunks[i-1]
		if prev.err != nil || prev.end == chunks[i].start {
			continue
		}
		chunks = chunks[:i]
		if prev.end < len(src) {
			tail := &chunk{start: prev.end}
			tail.tokenize(src, len(src))
			chunks = append(chunks, tail)
		}
		break
	}
	return chunks
}

// errFit reports chunks that do not fit together: an end tag that does
// not match the element an earlier chunk left open, elements left open
// at the end, or anything but comments, processing instructions and
// white space after the document element. A lone chunk checks all of
// that itself and fails with a SyntaxError instead.
var errFit = errors.New("xmlparse: chunks do not fit together")

// assemble checks that tokenized chunks fit together and joins their
// pieces into the document (tree.Join, which also gives every chunk's
// labels their ids in the document's sorted table, the ids a sequential
// run gives them).
func assemble(src []byte, chunks []*chunk) (*tree.Document, error) {
	for _, c := range chunks {
		if c.err != nil {
			return nil, c.err
		}
	}
	pieces := make([]*tree.Piece, len(chunks))
	var open []string // the names of the elements left open by the chunks so far
	// Once the document element has closed, at afterRoot, no chunk may
	// hold another node or end tag. The first chunk checks what follows
	// by itself.
	rootClosed, afterRoot := false, len(src)
	for i, c := range chunks {
		if rootClosed && (c.piece.Len() > 0 || len(c.under) > 0) {
			return nil, errFit
		}
		for _, u := range c.under {
			if len(open) == 0 || string(src[u.name:u.nameEnd]) != open[len(open)-1] {
				return nil, errFit
			}
			open = open[:len(open)-1]
			if len(open) == 0 {
				if u.nodes != c.piece.Len() {
					return nil, errFit
				}
				rootClosed, afterRoot = true, u.after
			}
		}
		open = append(open, c.piece.Unclosed()...)
		if i == 0 {
			rootClosed = len(open) == 0
		}
		pieces[i] = c.piece
	}
	if !rootClosed || len(open) > 0 || skipMisc(src, afterRoot) != len(src) {
		return nil, errFit
	}
	return tree.Join(pieces)
}
