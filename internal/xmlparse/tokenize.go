package xmlparse

import (
	"bytes"
	"fmt"
	"unicode/utf8"

	"repro/internal/tree"
)

// chunk is one stretch of the source turned into a piece of the
// document. The first chunk of a source starts at the prolog and knows
// when the document element closes; a later one starts at a '<' in
// element content and knows neither its depth nor the elements open
// around it, so the end tags that close those, and the elements it
// leaves open itself (tree.Piece.Unclosed), are kept for assemble to
// match up.
type chunk struct {
	start int
	first bool

	piece *tree.Piece // labelled in the chunk's own ids, which tree.Join maps to the document's

	// end is where tokenizing stopped: the first '<' in content at or
	// past the limit, or len(src).
	end   int
	under []endTag // end tags of elements opened before start
	err   *SyntaxError
}

// endTag is an end tag whose element was opened by an earlier chunk.
type endTag struct {
	name, nameEnd int // the tag's name in the source
	after         int // offset just past the tag
	nodes         int // nodes of the chunk before it
}

// Byte classes of the tokenizer's scanning loops.
const (
	clNameStart = 1 << iota
	clName
	clSpace // the white space allowed inside tags
)

var class = func() (t [256]uint8) {
	for c := 0; c < 256; c++ {
		if c == '_' || c == ':' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c >= 0x80 {
			t[c] = clNameStart | clName
		} else if c == '-' || c == '.' || (c >= '0' && c <= '9') {
			t[c] = clName
		}
	}
	t[' '], t['\t'], t['\n'], t['\r'] = clSpace, clSpace, clSpace, clSpace
	return t
}()

func syntaxErr(off int, format string, args ...any) *SyntaxError {
	return &SyntaxError{Offset: off, Msg: fmt.Sprintf(format, args...)}
}

func skipWS(src []byte, pos int) int {
	for pos < len(src) && class[src[pos]]&clSpace != 0 {
		pos++
	}
	return pos
}

// nameEnd returns the end of the name whose first byte is at pos.
func nameEnd(src []byte, pos int) int {
	for pos++; pos < len(src) && class[src[pos]]&clName != 0; pos++ {
	}
	return pos
}

func hasPrefix(src []byte, pos int, s string) bool {
	return len(src)-pos >= len(s) && string(src[pos:pos+len(s)]) == s
}

// skipMisc consumes white space, comments and processing instructions;
// an unterminated one runs to the end of the source.
func skipMisc(src []byte, pos int) int {
	for {
		pos = skipWS(src, pos)
		var end string
		switch {
		case hasPrefix(src, pos, "<!--"):
			end = "-->"
		case hasPrefix(src, pos, "<?"):
			end = "?>"
		default:
			return pos
		}
		i := bytes.Index(src[pos:], []byte(end))
		if i < 0 {
			return len(src)
		}
		pos += i + len(end)
	}
}

// prolog consumes the XML declaration, comments, processing instructions
// and a DOCTYPE (internal subset included, not interpreted) and returns
// the offset of the document element.
func prolog(src []byte) (int, *SyntaxError) {
	pos := skipWS(src, 0)
	if hasPrefix(src, pos, "<?xml") {
		i := bytes.Index(src[pos:], []byte("?>"))
		if i < 0 {
			return 0, syntaxErr(pos, "unterminated XML declaration")
		}
		pos += i + 2
	}
	pos = skipMisc(src, pos)
	if !hasPrefix(src, pos, "<!DOCTYPE") {
		return pos, nil
	}
	depth := 0
	for pos < len(src) {
		switch src[pos] {
		case '<':
			depth++
		case '>':
			depth--
			if depth == 0 {
				return skipMisc(src, pos+1), nil
			}
		case '[':
			for pos < len(src) && src[pos] != ']' {
				pos++
			}
		}
		pos++
	}
	return 0, syntaxErr(pos, "unterminated DOCTYPE")
}

// blank reports whether text is white space only (Unicode white space,
// as strings.TrimSpace sees it) and therefore not a text node.
func blank(text []byte) bool {
	for i, c := range text {
		if c >= utf8.RuneSelf {
			return len(bytes.TrimSpace(text[i:])) == 0
		}
		if c != ' ' && (c < '\t' || c > '\r') {
			return false
		}
	}
	return true
}

// internCache is a small direct-mapped cache in front of a chunk's label
// table: a document has a few dozen names and repeats them a node apart,
// so most lookups are settled by one string compare where the table's map
// hashes the whole name. An entry is keyed by the name's length and its
// first and last bytes; a name that finds another in its slot goes to the
// table and takes the slot: one lookup in twenty on an XMark document.
// Ids come from the table either way: the chunk's own, in order of first
// occurrence in it, which tree.Join translates into the document's
// sorted table.
type internCache [128]struct {
	name string // as the table holds it; never empty once set
	id   tree.LabelID
}

// intern is names.InternBytes(name) for a name of at least one byte.
func (ic *internCache) intern(names *tree.LabelTable, name []byte) tree.LabelID {
	e := &ic[(len(name)*9+int(name[0])*5+int(name[len(name)-1])*3)%len(ic)]
	if e.name == string(name) {
		return e.id
	}
	e.id = names.InternBytes(name)
	e.name = names.Name(e.id)
	return e.id
}

// tokenize turns src from c.start on into the chunk's piece, stopping at
// the first '<' in element content at or past limit.
func (c *chunk) tokenize(src []byte, limit int) {
	// Every '<' is one tag, and an element takes two, one text node
	// follows at most every other, and attributes come on top: a node per
	// '<' is room for XMark's 0.79, and more grows the piece.
	tags := bytes.Count(src[c.start:limit], []byte{'<'})
	var (
		names = tree.NewLabelTable()
		pc    = tree.NewPiece(names, tags+8, tags/2+8, (limit-c.start)/2)
		cache internCache
		attr  = []byte{'@'} // scratch for "@"+attribute name
		pos   = c.start
		err   *SyntaxError
		// docElem: the document element has not been opened yet, so the
		// '<' at pos can only be its start tag.
		docElem = c.first
	)
	if c.first {
		if pos, err = prolog(src); err == nil && (pos >= len(src) || src[pos] != '<') {
			err = syntaxErr(pos, "expected '<'")
		}
	}

scan:
	for err == nil {
		// src[pos] is a '<' in element content; the text before it is done.
		if pos >= limit && !docElem {
			break
		}
		pc.Reserve(2) // a node for the '<', one for the text after it
		var next byte
		if pos+1 < len(src) {
			next = src[pos+1]
		}
		switch {
		case next == '/' && !docElem:
			p := pos + 2
			depth := pc.Depth()
			if depth > 0 {
				// The common tag: exactly the open element's name, then '>'.
				name := names.Name(pc.Innermost())
				if e := p + len(name); e < len(src) && src[e] == '>' && string(src[p:e]) == name {
					pc.Close()
					pos = e + 1
					break
				}
			}
			if p >= len(src) || class[src[p]]&clNameStart == 0 {
				err = syntaxErr(p, "expected name")
				break scan
			}
			q := nameEnd(src, p)
			if depth > 0 {
				if name := names.Name(pc.Innermost()); string(src[p:q]) != name {
					err = syntaxErr(q, "mismatched end tag </%s>, open element is <%s>", src[p:q], name)
					break scan
				}
			}
			e := skipWS(src, q)
			if e >= len(src) || src[e] != '>' {
				err = syntaxErr(e, "malformed end tag </%s", src[p:q])
				break scan
			}
			pos = e + 1
			if depth == 0 {
				// The element was opened before this chunk: assemble,
				// which knows the chunks before, matches the name.
				c.under = append(c.under, endTag{name: p, nameEnd: q, after: pos, nodes: pc.Len()})
			}
			pc.Close()

		case next == '?' && !docElem:
			i := bytes.Index(src[pos:], []byte("?>"))
			if i < 0 {
				err = syntaxErr(pos, "unterminated processing instruction")
				break scan
			}
			pos += i + 2

		case next == '!' && !docElem && hasPrefix(src, pos, "<!--"):
			i := bytes.Index(src[pos:], []byte("-->"))
			if i < 0 {
				err = syntaxErr(pos, "unterminated comment")
				break scan
			}
			pos += i + 3

		case next == '!' && !docElem && hasPrefix(src, pos, "<![CDATA["):
			p := pos + len("<![CDATA[")
			i := bytes.Index(src[p:], []byte("]]>"))
			if i < 0 {
				err = syntaxErr(p, "unterminated CDATA section")
				break scan
			}
			if i > 0 {
				pc.Text()
				pc.Blob = append(pc.Blob, src[p:p+i]...)
			}
			pos = p + i + 3

		default: // a start tag
			docElem = false
			p := pos + 1
			if p >= len(src) || class[src[p]]&clNameStart == 0 {
				err = syntaxErr(p, "expected name")
				break scan
			}
			q := nameEnd(src, p)
			id := cache.intern(names, src[p:q])
			pc.Open(id)
			selfClosed := false
			for q >= len(src) || src[q] != '>' { // attributes, up to '>' or "/>"
				q = skipWS(src, q)
				if q >= len(src) {
					err = syntaxErr(q, "unterminated start tag <%s", names.Name(id))
					break scan
				}
				if src[q] == '>' {
					break
				}
				if src[q] == '/' {
					if q+1 >= len(src) || src[q+1] != '>' {
						err = syntaxErr(q, "malformed empty-element tag")
						break scan
					}
					selfClosed = true
					q++
					break
				}
				if class[src[q]]&clNameStart == 0 {
					err = syntaxErr(q, "expected name")
					break scan
				}
				a := q
				q = nameEnd(src, a)
				attr = append(attr[:1], src[a:q]...)
				q = skipWS(src, q)
				if q >= len(src) || src[q] != '=' {
					err = syntaxErr(q, "expected '=' after attribute %s", attr[1:])
					break scan
				}
				q = skipWS(src, q+1)
				if q >= len(src) || (src[q] != '"' && src[q] != '\'') {
					err = syntaxErr(q, "expected quoted attribute value")
					break scan
				}
				i := bytes.IndexByte(src[q+1:], src[q])
				if i < 0 {
					err = syntaxErr(len(src), "unterminated attribute value")
					break scan
				}
				pc.Reserve(3) // and two for each attribute
				pc.Open(cache.intern(names, attr))
				pc.Text()
				pc.Blob = appendText(pc.Blob, src[q+1:q+1+i])
				pc.Close()
				q += i + 2
			}
			if selfClosed {
				pc.Close()
			}
			pos = q + 1
		}

		if c.first && pc.Depth() == 0 {
			break // the document element has closed
		}
		// Character data up to the next '<'.
		i := 0
		if pos >= len(src) || src[pos] != '<' {
			if i = bytes.IndexByte(src[pos:], '<'); i < 0 {
				if pc.Depth() > 0 {
					err = syntaxErr(len(src), "missing end tag </%s>", names.Name(pc.Innermost()))
				}
				pos = len(src)
				break
			}
			if text := src[pos : pos+i]; !blank(text) {
				pc.Text()
				pc.Blob = appendText(pc.Blob, text)
			}
		}
		pos += i
	}

	if err == nil && c.first && pc.Depth() == 0 {
		if pos = skipMisc(src, pos); pos != len(src) {
			err = syntaxErr(pos, "trailing content after document element")
		}
	}
	c.piece, c.end, c.err = pc, pos, err
}

var entities = [...]struct {
	name string
	char byte
}{{"&lt;", '<'}, {"&gt;", '>'}, {"&amp;", '&'}, {"&apos;", '\''}, {"&quot;", '"'}}

// appendNamed appends s with the five predefined entities expanded.
func appendNamed(dst, s []byte) []byte {
next:
	for {
		i := bytes.IndexByte(s, '&')
		if i < 0 {
			return append(dst, s...)
		}
		dst, s = append(dst, s[:i]...), s[i:]
		for _, e := range entities {
			if hasPrefix(s, 0, e.name) {
				dst, s = append(dst, e.char), s[len(e.name):]
				continue next
			}
		}
		dst, s = append(dst, '&'), s[1:]
	}
}

// appendText appends character data or an attribute value to the text
// blob, expanding the predefined entities and decimal/hex character
// references; unknown entities are kept verbatim. Text without '&',
// nearly all of it, is one copy from the source.
func appendText(dst, text []byte) []byte {
	if bytes.IndexByte(text, '&') < 0 {
		return append(dst, text...)
	}
	if !bytes.Contains(text, []byte("&#")) {
		return appendNamed(dst, text)
	}
	for i := 0; i < len(text); {
		if text[i] != '&' {
			dst = append(dst, text[i])
			i++
			continue
		}
		semi := bytes.IndexByte(text[i:], ';')
		if semi < 0 {
			dst = append(dst, text[i:]...)
			break
		}
		ent := text[i : i+semi+1]
		format, digits := "", 0
		switch {
		case hasPrefix(ent, 0, "&#x"), hasPrefix(ent, 0, "&#X"):
			format, digits = "%x", 3
		case hasPrefix(ent, 0, "&#"):
			format, digits = "%d", 2
		}
		var r rune
		if format == "" {
			dst = appendNamed(dst, ent)
		} else if _, err := fmt.Sscanf(string(ent[digits:len(ent)-1]), format, &r); err == nil {
			dst = utf8.AppendRune(dst, r)
		} else {
			dst = append(dst, ent...)
		}
		i += semi + 1
	}
	return dst
}
