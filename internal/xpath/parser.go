package xpath

import "fmt"

// Parse parses a query of the paper's Core XPath fragment and returns its
// AST. Both the explicit syntax (descendant::keyword) and the common
// abbreviations (//a, a, @x, ., .//a) are accepted.
func Parse(query string) (*Path, error) {
	p := &parser{lex: lexer{src: query}}
	if err := p.advance(); err != nil {
		return nil, err
	}
	path, err := p.parsePath(true)
	if err != nil {
		return nil, err
	}
	if p.tok.kind != tokEOF {
		return nil, p.errf("unexpected %s", p.tok.kind)
	}
	return path, nil
}

// MustParse is Parse that panics on error; for tests and fixed query
// tables.
func MustParse(query string) *Path {
	p, err := Parse(query)
	if err != nil {
		panic(err)
	}
	return p
}

type parser struct {
	lex   lexer
	tok   token
	depth int // the predicates, parentheses and not( open around tok
}

// maxNesting bounds how deeply predicates, parentheses and not( may nest.
// The parser recurses once a level, and each level passes through
// parseOr (contains( holds a path, whose predicates do too), so the bound
// there bounds the recursion: a query that fits a request body otherwise
// nests a million levels deep.
const maxNesting = 256

func (p *parser) errf(format string, args ...interface{}) error {
	return &ParseError{p.lex.src, p.tok.pos, fmt.Sprintf(format, args...)}
}

func (p *parser) advance() error {
	t, err := p.lex.next()
	if err != nil {
		return err
	}
	p.tok = t
	return nil
}

func (p *parser) expect(k tokenKind) error {
	if p.tok.kind != k {
		return p.errf("expected %s, found %s", k, p.tok.kind)
	}
	return p.advance()
}

// parsePath parses [ '/' | '//' | '.' ] Step ('/'|'//' Step)*.
func (p *parser) parsePath(topLevel bool) (*Path, error) {
	path := &Path{}
	nextAxis := Child
	switch p.tok.kind {
	case tokSlash:
		path.Absolute = true
		if err := p.advance(); err != nil {
			return nil, err
		}
	case tokDSlash:
		path.Absolute = true
		nextAxis = Descendant
		if err := p.advance(); err != nil {
			return nil, err
		}
	case tokDot:
		// Leading "." — the context node itself. Only meaningful in
		// predicates; at top level it would select the document root,
		// which the fragment does not allow.
		if err := p.advance(); err != nil {
			return nil, err
		}
		switch p.tok.kind {
		case tokSlash:
			if err := p.advance(); err != nil {
				return nil, err
			}
		case tokDSlash:
			nextAxis = Descendant
			if err := p.advance(); err != nil {
				return nil, err
			}
		case tokDot:
			// Leading ".." — a parent step.
			if err := p.advance(); err != nil {
				return nil, err
			}
			path.Steps = append(path.Steps, Step{Axis: Parent, Test: NodeTest{Kind: TestNode}})
			switch p.tok.kind {
			case tokSlash:
				if err := p.advance(); err != nil {
					return nil, err
				}
			case tokDSlash:
				nextAxis = Descendant
				if err := p.advance(); err != nil {
					return nil, err
				}
			default:
				return path, nil // bare ".."
			}
		default:
			// Bare "."; a self step.
			path.Steps = append(path.Steps, Step{Axis: Self, Test: NodeTest{Kind: TestNode}})
			return path, nil
		}
	}
	for {
		step, err := p.parseStep(nextAxis)
		if err != nil {
			return nil, err
		}
		path.Steps = append(path.Steps, *step)
		switch p.tok.kind {
		case tokSlash:
			nextAxis = Child
		case tokDSlash:
			nextAxis = Descendant
		default:
			if len(path.Steps) == 0 {
				return nil, p.errf("empty path")
			}
			return path, nil
		}
		if err := p.advance(); err != nil {
			return nil, err
		}
	}
}

var axisNames = map[string]Axis{
	"child":             Child,
	"descendant":        Descendant,
	"following-sibling": FollowingSibling,
	"attribute":         Attribute,
	"self":              Self,
	"parent":            Parent,
	"ancestor":          Ancestor,
	"ancestor-or-self":  AncestorOrSelf,
}

// parseStep parses Axis '::' NodeTest Pred* with defaultAxis applied when
// no explicit axis is written.
func (p *parser) parseStep(defaultAxis Axis) (*Step, error) {
	step := &Step{Axis: defaultAxis}
	switch p.tok.kind {
	case tokDot:
		// "." (self) or ".." (parent) as a whole step.
		if err := p.advance(); err != nil {
			return nil, err
		}
		if p.tok.kind == tokDot {
			if err := p.advance(); err != nil {
				return nil, err
			}
			step.Axis = Parent
		} else {
			step.Axis = Self
		}
		step.Test = NodeTest{Kind: TestNode}
		return step, nil
	case tokAt:
		step.Axis = Attribute
		if err := p.advance(); err != nil {
			return nil, err
		}
	case tokName:
		if axis, ok := axisNames[p.tok.text]; ok {
			// Lookahead for '::'; a bare element named "child" etc.
			// is legal, so only honor the axis when '::' follows.
			save := p.lex
			saveTok := p.tok
			if err := p.advance(); err != nil {
				return nil, err
			}
			if p.tok.kind == tokAxisSep {
				step.Axis = axis
				if err := p.advance(); err != nil {
					return nil, err
				}
			} else {
				p.lex = save
				p.tok = saveTok
			}
		}
	}
	if err := p.parseNodeTest(step); err != nil {
		return nil, err
	}
	for p.tok.kind == tokLBracket {
		if err := p.advance(); err != nil {
			return nil, err
		}
		pred, err := p.parseOr()
		if err != nil {
			return nil, err
		}
		if err := p.expect(tokRBracket); err != nil {
			return nil, err
		}
		step.Preds = append(step.Preds, pred)
	}
	return step, nil
}

func (p *parser) parseNodeTest(step *Step) error {
	switch p.tok.kind {
	case tokStar:
		step.Test = NodeTest{Kind: TestStar}
		return p.advance()
	case tokName:
		name := p.tok.text
		if err := p.advance(); err != nil {
			return err
		}
		if p.tok.kind == tokLParen && (name == "node" || name == "text") {
			if err := p.advance(); err != nil {
				return err
			}
			if err := p.expect(tokRParen); err != nil {
				return err
			}
			if name == "node" {
				step.Test = NodeTest{Kind: TestNode}
			} else {
				step.Test = NodeTest{Kind: TestText}
			}
			return nil
		}
		if step.Axis == Attribute {
			name = "@" + name
		}
		step.Test = NodeTest{Kind: TestName, Name: name}
		return nil
	default:
		return p.errf("expected node test, found %s", p.tok.kind)
	}
}

// parseOr parses Pred ('or' Pred)* — lowest precedence.
func (p *parser) parseOr() (Pred, error) {
	if p.depth == maxNesting {
		return nil, p.errf("predicates nest deeper than %d levels", maxNesting)
	}
	p.depth++
	defer func() { p.depth-- }()
	left, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.tok.kind == tokName && p.tok.text == "or" {
		if err := p.advance(); err != nil {
			return nil, err
		}
		right, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		left = &Or{Left: left, Right: right}
	}
	return left, nil
}

func (p *parser) parseAnd() (Pred, error) {
	left, err := p.parseUnaryPred()
	if err != nil {
		return nil, err
	}
	for p.tok.kind == tokName && p.tok.text == "and" {
		if err := p.advance(); err != nil {
			return nil, err
		}
		right, err := p.parseUnaryPred()
		if err != nil {
			return nil, err
		}
		left = &And{Left: left, Right: right}
	}
	return left, nil
}

func (p *parser) parseUnaryPred() (Pred, error) {
	switch {
	case p.tok.kind == tokName && p.tok.text == "contains":
		// contains(path, "needle") — or an element named contains.
		save := p.lex
		saveTok := p.tok
		if err := p.advance(); err != nil {
			return nil, err
		}
		if p.tok.kind == tokLParen {
			if err := p.advance(); err != nil {
				return nil, err
			}
			path, err := p.parsePath(false)
			if err != nil {
				return nil, err
			}
			if err := p.expect(tokComma); err != nil {
				return nil, err
			}
			if p.tok.kind != tokString {
				return nil, p.errf("expected string literal, found %s", p.tok.kind)
			}
			needle := p.tok.text
			if err := p.advance(); err != nil {
				return nil, err
			}
			if err := p.expect(tokRParen); err != nil {
				return nil, err
			}
			return &Contains{Path: path, Needle: needle}, nil
		}
		p.lex = save
		p.tok = saveTok
	}
	switch {
	case p.tok.kind == tokName && p.tok.text == "not":
		// "not" must be followed by "(" to be the connective; otherwise
		// it is an element name.
		save := p.lex
		saveTok := p.tok
		if err := p.advance(); err != nil {
			return nil, err
		}
		if p.tok.kind == tokLParen {
			if err := p.advance(); err != nil {
				return nil, err
			}
			inner, err := p.parseOr()
			if err != nil {
				return nil, err
			}
			if err := p.expect(tokRParen); err != nil {
				return nil, err
			}
			return &Not{Inner: inner}, nil
		}
		p.lex = save
		p.tok = saveTok
	case p.tok.kind == tokLParen:
		if err := p.advance(); err != nil {
			return nil, err
		}
		inner, err := p.parseOr()
		if err != nil {
			return nil, err
		}
		if err := p.expect(tokRParen); err != nil {
			return nil, err
		}
		return inner, nil
	}
	path, err := p.parsePath(false)
	if err != nil {
		return nil, err
	}
	return &PathPred{Path: path}, nil
}
