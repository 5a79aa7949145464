package xpath

import "fmt"

type tokenKind int

const (
	tokEOF tokenKind = iota
	tokSlash
	tokDSlash // //
	tokLBracket
	tokRBracket
	tokLParen
	tokRParen
	tokAxisSep // ::
	tokAt      // @
	tokStar    // *
	tokDot     // .
	tokComma   // ,
	tokString  // quoted string literal
	tokName    // identifier (includes and/or/not; parser disambiguates)
)

func (k tokenKind) String() string {
	switch k {
	case tokEOF:
		return "end of query"
	case tokSlash:
		return "'/'"
	case tokDSlash:
		return "'//'"
	case tokLBracket:
		return "'['"
	case tokRBracket:
		return "']'"
	case tokLParen:
		return "'('"
	case tokRParen:
		return "')'"
	case tokAxisSep:
		return "'::'"
	case tokAt:
		return "'@'"
	case tokStar:
		return "'*'"
	case tokDot:
		return "'.'"
	case tokComma:
		return "','"
	case tokString:
		return "string literal"
	case tokName:
		return "name"
	}
	return "?"
}

type token struct {
	kind tokenKind
	text string
	pos  int
}

// ParseError reports a parse failure with the byte offset in the query.
type ParseError struct {
	Query  string
	Offset int
	Msg    string
}

// quoteWindow is how many bytes of the query on either side of the
// offset an error message quotes: a message is echoed to the client, and
// a query may be a megabyte long.
const quoteWindow = 64

func (e *ParseError) Error() string {
	at := min(max(e.Offset, 0), len(e.Query))
	from, to := max(0, at-quoteWindow), min(len(e.Query), at+quoteWindow)
	before, after := "", ""
	if from > 0 {
		before = "..."
	}
	if to < len(e.Query) {
		after = "..."
	}
	return fmt.Sprintf("xpath: %s%q%s at offset %d: %s", before, e.Query[from:to], after, e.Offset, e.Msg)
}

type lexer struct {
	src string
	pos int
}

func isNameByte(c byte) bool {
	return c == '_' || c == '-' || c == '.' ||
		(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
		(c >= '0' && c <= '9') || c >= 0x80
}

func isNameStartByte(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c >= 0x80
}

func (l *lexer) next() (token, error) {
	for l.pos < len(l.src) && (l.src[l.pos] == ' ' || l.src[l.pos] == '\t' || l.src[l.pos] == '\n') {
		l.pos++
	}
	if l.pos >= len(l.src) {
		return token{kind: tokEOF, pos: l.pos}, nil
	}
	start := l.pos
	c := l.src[l.pos]
	switch c {
	case '/':
		l.pos++
		if l.pos < len(l.src) && l.src[l.pos] == '/' {
			l.pos++
			return token{tokDSlash, "//", start}, nil
		}
		return token{tokSlash, "/", start}, nil
	case '[':
		l.pos++
		return token{tokLBracket, "[", start}, nil
	case ']':
		l.pos++
		return token{tokRBracket, "]", start}, nil
	case '(':
		l.pos++
		return token{tokLParen, "(", start}, nil
	case ')':
		l.pos++
		return token{tokRParen, ")", start}, nil
	case ':':
		if l.pos+1 < len(l.src) && l.src[l.pos+1] == ':' {
			l.pos += 2
			return token{tokAxisSep, "::", start}, nil
		}
		return token{}, &ParseError{l.src, start, "stray ':'"}
	case '@':
		l.pos++
		return token{tokAt, "@", start}, nil
	case '*':
		l.pos++
		return token{tokStar, "*", start}, nil
	case '.':
		l.pos++
		return token{tokDot, ".", start}, nil
	case ',':
		l.pos++
		return token{tokComma, ",", start}, nil
	case '"', '\'':
		quote := c
		l.pos++
		lit := l.pos
		for l.pos < len(l.src) && l.src[l.pos] != quote {
			l.pos++
		}
		if l.pos >= len(l.src) {
			return token{}, &ParseError{l.src, start, "unterminated string literal"}
		}
		text := l.src[lit:l.pos]
		l.pos++
		return token{tokString, text, start}, nil
	}
	if isNameStartByte(c) {
		l.pos++
		for l.pos < len(l.src) && isNameByte(l.src[l.pos]) {
			// A '.' inside a name is allowed by XML, but a trailing
			// ".." or ".//" should not be swallowed; only consume '.'
			// when followed by another name byte.
			if l.src[l.pos] == '.' &&
				(l.pos+1 >= len(l.src) || !isNameByte(l.src[l.pos+1])) {
				break
			}
			l.pos++
		}
		return token{tokName, l.src[start:l.pos], start}, nil
	}
	return token{}, &ParseError{l.src, start, fmt.Sprintf("unexpected character %q", c)}
}
