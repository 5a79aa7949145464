// Package stepwise is a classical step-at-a-time Core XPath evaluator in
// the O(|D|·|Q|) style of Gottlob, Koch & Pichler [6]: each location step
// maps a sorted duplicate-free context node set to the next one, with
// staircase-join-style pruning [9] on the descendant axis. It plays two
// roles in this reproduction:
//
//  1. the comparator engine for the Figure 8 experiment (the paper
//     compares against MonetDB/XQuery, whose pathfinder evaluates these
//     navigational queries in the same step-wise fashion), and
//  2. the independent semantic oracle the automata engines are tested
//     against — it shares no code with them.
package stepwise

import (
	"sort"
	"strings"

	"repro/internal/obsv"
	"repro/internal/tree"
	"repro/internal/xpath"
)

// Options configures the evaluator.
type Options struct {
	// Staircase enables the staircase-join pruning of covered context
	// nodes on the descendant axis (on by default via Default).
	Staircase bool
}

// Default returns the standard configuration.
func Default() Options { return Options{Staircase: true} }

// Result is the evaluation outcome.
type Result struct {
	Selected []tree.NodeID
	// Work counts node inspections (context nodes and scanned
	// candidates) in Visited; the baseline has no index to jump with
	// and no memo tables.
	obsv.Work
}

// Eval evaluates a parsed query over the document.
func Eval(d *tree.Document, p *xpath.Path, opt Options) Result {
	e := &evaluator{d: d, opt: opt}
	ctx := []tree.NodeID{d.Root()}
	out := e.path(ctx, p.Steps)
	return Result{Selected: out, Work: e.work}
}

// EvalString parses and evaluates a query.
func EvalString(d *tree.Document, query string, opt Options) (Result, error) {
	p, err := xpath.Parse(query)
	if err != nil {
		return Result{}, err
	}
	return Eval(d, p, opt), nil
}

type evaluator struct {
	d    *tree.Document
	opt  Options
	work obsv.Work
}

// path maps a context set through all steps.
func (e *evaluator) path(ctx []tree.NodeID, steps []xpath.Step) []tree.NodeID {
	for _, st := range steps {
		ctx = e.step(ctx, st)
		if len(ctx) == 0 {
			return nil
		}
	}
	return ctx
}

// step maps a sorted duplicate-free context through one location step.
func (e *evaluator) step(ctx []tree.NodeID, st xpath.Step) []tree.NodeID {
	var out []tree.NodeID
	switch st.Axis {
	case xpath.Child, xpath.Attribute:
		for _, v := range ctx {
			for c, end := v+1, e.d.LastDesc(v); c <= end; c = e.d.LastDesc(c) + 1 {
				e.work.Visited++
				if e.match(c, st.Test) {
					out = append(out, c)
				}
			}
		}
	case xpath.Descendant:
		covered := tree.NodeID(-1)
		for _, v := range ctx {
			if e.opt.Staircase && v <= covered {
				// Staircase join: v's subtree is inside a previous
				// context node's subtree; its descendants are already
				// collected.
				continue
			}
			end := e.d.LastDesc(v)
			for c := v + 1; c <= end; c++ {
				e.work.Visited++
				if e.match(c, st.Test) {
					out = append(out, c)
				}
			}
			if end > covered {
				covered = end
			}
		}
	case xpath.FollowingSibling:
		for _, v := range ctx {
			for c, end := e.d.LastDesc(v)+1, e.d.BinEnd(v); c <= end; c = e.d.LastDesc(c) + 1 {
				e.work.Visited++
				if e.match(c, st.Test) {
					out = append(out, c)
				}
			}
		}
	case xpath.Self:
		for _, v := range ctx {
			e.work.Visited++
			if e.match(v, st.Test) {
				out = append(out, v)
			}
		}
	case xpath.Parent:
		for _, v := range ctx {
			if p := e.d.Parent(v); p != tree.Nil {
				e.work.Visited++
				if e.match(p, st.Test) {
					out = append(out, p)
				}
			}
		}
	case xpath.Ancestor, xpath.AncestorOrSelf:
		for _, v := range ctx {
			u := v
			if st.Axis == xpath.Ancestor {
				u = e.d.Parent(v)
			}
			for ; u != tree.Nil; u = e.d.Parent(u) {
				e.work.Visited++
				if e.match(u, st.Test) {
					out = append(out, u)
				}
			}
		}
	}
	out = sortDedup(out)
	if len(st.Preds) == 0 {
		return out
	}
	w := 0
	for _, v := range out {
		keep := true
		for _, p := range st.Preds {
			if !e.pred(v, p) {
				keep = false
				break
			}
		}
		if keep {
			out[w] = v
			w++
		}
	}
	return out[:w]
}

// match applies a node test.
func (e *evaluator) match(v tree.NodeID, t xpath.NodeTest) bool {
	l := e.d.Label(v)
	switch t.Kind {
	case xpath.TestName:
		return e.d.LabelName(v) == t.Name
	case xpath.TestStar:
		return l != tree.LabelDoc && l != tree.LabelText && !isAttr(e.d, v)
	case xpath.TestNode:
		return l != tree.LabelDoc && !isAttr(e.d, v)
	case xpath.TestText:
		return l == tree.LabelText
	}
	return false
}

func isAttr(d *tree.Document, v tree.NodeID) bool {
	return strings.HasPrefix(d.LabelName(v), "@")
}

// pred evaluates a predicate at one candidate node.
func (e *evaluator) pred(v tree.NodeID, p xpath.Pred) bool {
	switch q := p.(type) {
	case *xpath.And:
		return e.pred(v, q.Left) && e.pred(v, q.Right)
	case *xpath.Or:
		return e.pred(v, q.Left) || e.pred(v, q.Right)
	case *xpath.Not:
		return !e.pred(v, q.Inner)
	case *xpath.PathPred:
		start := v
		if q.Path.Absolute {
			start = e.d.Root()
		}
		return len(e.path([]tree.NodeID{start}, q.Path.Steps)) > 0
	case *xpath.Contains:
		start := v
		if q.Path.Absolute {
			start = e.d.Root()
		}
		for _, u := range e.path([]tree.NodeID{start}, q.Path.Steps) {
			if strings.Contains(e.textContent(u), q.Needle) {
				return true
			}
		}
		return false
	}
	return false
}

// textContent concatenates the text of u's #text descendants (or u's own
// text for a text node), the string value of the XPath data model.
func (e *evaluator) textContent(u tree.NodeID) string {
	if e.d.Label(u) == tree.LabelText {
		return e.d.Text(u)
	}
	var sb strings.Builder
	for v := u; v <= e.d.LastDesc(u); v++ {
		if e.d.Label(v) == tree.LabelText {
			sb.WriteString(e.d.Text(v))
		}
	}
	return sb.String()
}

func sortDedup(ns []tree.NodeID) []tree.NodeID {
	if len(ns) < 2 {
		return ns
	}
	sorted := true
	for i := 1; i < len(ns); i++ {
		if ns[i-1] > ns[i] {
			sorted = false
			break
		}
	}
	if !sorted {
		sort.Slice(ns, func(i, j int) bool { return ns[i] < ns[j] })
	}
	w := 1
	for i := 1; i < len(ns); i++ {
		if ns[i] != ns[w-1] {
			ns[w] = ns[i]
			w++
		}
	}
	return ns[:w]
}
