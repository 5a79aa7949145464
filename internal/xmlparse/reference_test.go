package xmlparse

// The parser this package had before the byte-level kernel, verbatim but
// for the renamed entry point: recursive descent, a string per token. It
// defines what Parse must return, document and error alike, and
// FuzzParseMatchesReference holds the kernel to it. Test-only; being
// recursive it overflows the goroutine stack on a few million levels of
// nesting, so the deep-nesting tests do not go through it.

import (
	"fmt"
	"strings"

	"repro/internal/tree"
)

type parser struct {
	src []byte
	pos int
	b   *tree.Builder
}

// referenceParse parses a complete XML document from src.
func referenceParse(src []byte) (*tree.Document, error) {
	p := &parser{src: src, b: tree.NewBuilder()}
	if err := p.parseProlog(); err != nil {
		return nil, err
	}
	if err := p.parseElement(); err != nil {
		return nil, err
	}
	p.skipMisc()
	if p.pos != len(p.src) {
		return nil, p.errf("trailing content after document element")
	}
	return p.b.Finish()
}

func (p *parser) errf(format string, args ...interface{}) error {
	return &SyntaxError{Offset: p.pos, Msg: fmt.Sprintf(format, args...)}
}

func (p *parser) skipWS() {
	for p.pos < len(p.src) {
		switch p.src[p.pos] {
		case ' ', '\t', '\n', '\r':
			p.pos++
		default:
			return
		}
	}
}

func (p *parser) parseProlog() error {
	p.skipWS()
	// Optional XML declaration.
	if p.hasPrefix("<?xml") {
		end := p.indexFrom("?>")
		if end < 0 {
			return p.errf("unterminated XML declaration")
		}
		p.pos = end + 2
	}
	p.skipMisc()
	// Optional DOCTYPE (skipped, including internal subset).
	if p.hasPrefix("<!DOCTYPE") {
		depth := 0
		for p.pos < len(p.src) {
			switch p.src[p.pos] {
			case '<':
				depth++
			case '>':
				depth--
				if depth == 0 {
					p.pos++
					p.skipMisc()
					return nil
				}
			case '[':
				// Internal subset: skip to matching ].
				for p.pos < len(p.src) && p.src[p.pos] != ']' {
					p.pos++
				}
			}
			p.pos++
		}
		return p.errf("unterminated DOCTYPE")
	}
	return nil
}

// skipMisc consumes whitespace, comments and processing instructions.
func (p *parser) skipMisc() {
	for {
		p.skipWS()
		switch {
		case p.hasPrefix("<!--"):
			end := p.indexFrom("-->")
			if end < 0 {
				p.pos = len(p.src)
				return
			}
			p.pos = end + 3
		case p.hasPrefix("<?"):
			end := p.indexFrom("?>")
			if end < 0 {
				p.pos = len(p.src)
				return
			}
			p.pos = end + 2
		default:
			return
		}
	}
}

func (p *parser) hasPrefix(s string) bool {
	return p.pos+len(s) <= len(p.src) && string(p.src[p.pos:p.pos+len(s)]) == s
}

func (p *parser) indexFrom(s string) int {
	i := strings.Index(string(p.src[p.pos:]), s)
	if i < 0 {
		return -1
	}
	return p.pos + i
}

func isNameStart(c byte) bool {
	return c == '_' || c == ':' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c >= 0x80
}

func isNameChar(c byte) bool {
	return isNameStart(c) || c == '-' || c == '.' || (c >= '0' && c <= '9')
}

func (p *parser) parseName() (string, error) {
	start := p.pos
	if p.pos >= len(p.src) || !isNameStart(p.src[p.pos]) {
		return "", p.errf("expected name")
	}
	p.pos++
	for p.pos < len(p.src) && isNameChar(p.src[p.pos]) {
		p.pos++
	}
	return string(p.src[start:p.pos]), nil
}

func (p *parser) parseElement() error {
	if p.pos >= len(p.src) || p.src[p.pos] != '<' {
		return p.errf("expected '<'")
	}
	p.pos++
	name, err := p.parseName()
	if err != nil {
		return err
	}
	p.b.Open(name)
	// Attributes.
	for {
		p.skipWS()
		if p.pos >= len(p.src) {
			return p.errf("unterminated start tag <%s", name)
		}
		c := p.src[p.pos]
		if c == '>' {
			p.pos++
			break
		}
		if c == '/' {
			if !p.hasPrefix("/>") {
				return p.errf("malformed empty-element tag")
			}
			p.pos += 2
			p.b.Close()
			return nil
		}
		attr, err := p.parseName()
		if err != nil {
			return err
		}
		p.skipWS()
		if p.pos >= len(p.src) || p.src[p.pos] != '=' {
			return p.errf("expected '=' after attribute %s", attr)
		}
		p.pos++
		p.skipWS()
		val, err := p.parseAttValue()
		if err != nil {
			return err
		}
		p.b.Open("@" + attr)
		p.b.Text(val)
		p.b.Close()
	}
	// Content.
	if err := p.parseContent(name); err != nil {
		return err
	}
	p.b.Close()
	return nil
}

func (p *parser) parseAttValue() (string, error) {
	if p.pos >= len(p.src) || (p.src[p.pos] != '"' && p.src[p.pos] != '\'') {
		return "", p.errf("expected quoted attribute value")
	}
	quote := p.src[p.pos]
	p.pos++
	start := p.pos
	for p.pos < len(p.src) && p.src[p.pos] != quote {
		p.pos++
	}
	if p.pos >= len(p.src) {
		return "", p.errf("unterminated attribute value")
	}
	val := decodeEntities(string(p.src[start:p.pos]))
	p.pos++
	return val, nil
}

// parseContent consumes element content up to and including the matching
// end tag </name>.
func (p *parser) parseContent(name string) error {
	textStart := p.pos
	flushText := func(end int) {
		if end > textStart {
			raw := string(p.src[textStart:end])
			if strings.TrimSpace(raw) != "" {
				p.b.Text(decodeEntities(raw))
			}
		}
	}
	for p.pos < len(p.src) {
		if p.src[p.pos] != '<' {
			p.pos++
			continue
		}
		flushText(p.pos)
		switch {
		case p.hasPrefix("</"):
			p.pos += 2
			end, err := p.parseName()
			if err != nil {
				return err
			}
			if end != name {
				return p.errf("mismatched end tag </%s>, open element is <%s>", end, name)
			}
			p.skipWS()
			if p.pos >= len(p.src) || p.src[p.pos] != '>' {
				return p.errf("malformed end tag </%s", end)
			}
			p.pos++
			return nil
		case p.hasPrefix("<!--"):
			end := p.indexFrom("-->")
			if end < 0 {
				return p.errf("unterminated comment")
			}
			p.pos = end + 3
		case p.hasPrefix("<![CDATA["):
			p.pos += len("<![CDATA[")
			end := p.indexFrom("]]>")
			if end < 0 {
				return p.errf("unterminated CDATA section")
			}
			if end > p.pos {
				p.b.Text(string(p.src[p.pos:end]))
			}
			p.pos = end + 3
		case p.hasPrefix("<?"):
			end := p.indexFrom("?>")
			if end < 0 {
				return p.errf("unterminated processing instruction")
			}
			p.pos = end + 2
		default:
			if err := p.parseElement(); err != nil {
				return err
			}
		}
		textStart = p.pos
	}
	return p.errf("missing end tag </%s>", name)
}

var entityReplacer = strings.NewReplacer(
	"&lt;", "<",
	"&gt;", ">",
	"&amp;", "&",
	"&apos;", "'",
	"&quot;", `"`,
)

// decodeEntities expands the five predefined entities and decimal/hex
// character references; unknown entities are kept verbatim.
func decodeEntities(s string) string {
	if !strings.ContainsRune(s, '&') {
		return s
	}
	if !strings.Contains(s, "&#") {
		return entityReplacer.Replace(s)
	}
	var sb strings.Builder
	for i := 0; i < len(s); {
		if s[i] != '&' {
			sb.WriteByte(s[i])
			i++
			continue
		}
		semi := strings.IndexByte(s[i:], ';')
		if semi < 0 {
			sb.WriteString(s[i:])
			break
		}
		ent := s[i : i+semi+1]
		switch {
		case strings.HasPrefix(ent, "&#x"), strings.HasPrefix(ent, "&#X"):
			var r rune
			if _, err := fmt.Sscanf(ent[3:len(ent)-1], "%x", &r); err == nil {
				sb.WriteRune(r)
			} else {
				sb.WriteString(ent)
			}
		case strings.HasPrefix(ent, "&#"):
			var r rune
			if _, err := fmt.Sscanf(ent[2:len(ent)-1], "%d", &r); err == nil {
				sb.WriteRune(r)
			} else {
				sb.WriteString(ent)
			}
		default:
			sb.WriteString(entityReplacer.Replace(ent))
		}
		i += semi + 1
	}
	return sb.String()
}
