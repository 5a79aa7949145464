// Package repro is a from-scratch Go reproduction of "XPath Whole Query
// Optimization" (Maneth & Nguyen, 2010): an XPath engine that compiles
// forward Core XPath into alternating selecting tree automata and
// evaluates them over an indexed XML document visiting only (an
// approximation of) the query's relevant nodes.
//
// Quick start:
//
//	doc, err := repro.ParseXML([]byte("<r><a><b/></a></r>"))
//	eng := repro.NewEngine(doc)
//	ans, err := eng.Query("//a//b")
//	for _, v := range ans.Nodes {
//	    fmt.Println(doc.Path(v))
//	}
//
// The package is a facade over the internal packages; see README.md for
// usage (including the xpq CLI and the xpqd query daemon) and DESIGN.md
// for the system inventory.
package repro

import (
	"io"
	"os"

	"repro/internal/core"
	"repro/internal/store"
	"repro/internal/tree"
	"repro/internal/xmark"
	"repro/internal/xmlparse"
)

// Document is an immutable XML document tree; node identifiers are
// preorder ranks.
type Document = tree.Document

// NodeID identifies a node by its preorder rank.
type NodeID = tree.NodeID

// Nil is the absent node.
const Nil = tree.Nil

// Engine evaluates XPath queries over one document, choosing among the
// paper's evaluation strategies.
type Engine = core.Engine

// Answer is a query outcome: the selected nodes, the strategy that ran
// and effort counters.
type Answer = core.Answer

// Cursor is a resumable, preorder-sorted view of one answer, returned
// by Engine.EvalCursor; large answers can be consumed in bounded
// memory with Next/NextBatch instead of materializing Answer.Nodes.
type Cursor = core.Cursor

// Strategy selects how a query is executed; see the constants.
type Strategy = core.Strategy

// Evaluation strategies (the series of the paper's Figure 4, plus the
// hybrid run, the deterministic-automaton path and the step-wise
// baseline).
const (
	Auto       = core.Auto
	Naive      = core.Naive
	Jumping    = core.Jumping
	Memoized   = core.Memoized
	Optimized  = core.Optimized
	Hybrid     = core.Hybrid
	TopDownDet = core.TopDownDet
	Stepwise   = core.Stepwise
)

// ParseXML parses an XML document from bytes.
func ParseXML(src []byte) (*Document, error) {
	return xmlparse.Parse(src)
}

// ParseXMLString parses an XML document from a string.
func ParseXMLString(src string) (*Document, error) {
	return xmlparse.ParseString(src)
}

// ParseXMLFile reads and parses an XML file.
func ParseXMLFile(path string) (*Document, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return xmlparse.Parse(data)
}

// ParseStrategy maps a strategy name ("auto", "optimized", ...) to the
// constant; ok is false for unknown names.
func ParseStrategy(name string) (Strategy, bool) {
	return core.ParseStrategy(name)
}

// SaveDocument writes d in the XQO2 resident container, the only binary
// document format: every in-memory array verbatim, checksummed per
// section, with its jumping index alongside, and nothing a query does
// not read.
func SaveDocument(w io.Writer, d *Document) (int64, error) {
	return store.WriteXQO2(w, d)
}

// LoadDocument reads a document saved by SaveDocument. The bytes are
// read to the heap and aliased in place — the same zero-copy open
// LoadDocumentFile runs over a mapping.
func LoadDocument(r io.Reader) (*Document, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	l, err := tree.OpenLayout(data, nil)
	if err != nil {
		return nil, err
	}
	return tree.DocumentFromLayout(l)
}

// SaveDocumentFile writes d to a file in the XQO2 format (opened
// zero-copy by LoadDocumentFile or xpqd -mmap).
func SaveDocumentFile(path string, d *Document) error {
	return store.SaveXQO2File(path, d)
}

// LoadDocumentFile mmaps an XQO2 file and aliases it zero-copy; the
// document pins the mapping for its lifetime.
func LoadDocumentFile(path string) (*Document, error) {
	d, _, _, _, err := store.OpenXQO2(path)
	return d, err
}

// NewEngine builds an engine (and its jumping index) for a document.
func NewEngine(d *Document) *Engine {
	return core.New(d)
}

// GenerateXMark generates a deterministic XMark-like auction document.
// Scale 1.0 has the element counts of the paper's 116MB document, which
// is ≈5.7M nodes; this generator's texts and optional parts are shorter
// and it yields 2 179 229 nodes at 1.0 (1 089 007 at 0.5).
func GenerateXMark(scale float64, seed int64) *Document {
	return xmark.Generate(xmark.Config{Scale: scale, Seed: seed})
}

// NewDocumentBuilder returns a builder for constructing documents
// programmatically (Open/Text/Close events).
func NewDocumentBuilder() *tree.Builder {
	return tree.NewBuilder()
}

// PaperQueries returns the fifteen queries of the paper's Figure 2.
func PaperQueries() []xmark.Query {
	return xmark.Queries()
}
