package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"

	"repro/internal/service"
	"repro/internal/tree"
	"repro/internal/xmlparse"
)

// patchCycle is the length of each document's patch sequence. The
// sequence inserts, replaces and deletes generated <item> subtrees under
// the region elements and ends with every inserted item deleted again,
// so after patchCycle patches the document is node for node the one the
// run started with: the sequence can be replayed for as long as a run
// lasts, the document stays within a few items of its starting size,
// and the oracle needs only patchCycle states per document.
const patchCycle = 24

// maxLiveItems bounds how many inserted items a document carries at
// once.
const maxLiveItems = 4

// patchPlan is the precomputed write side of a workload. State k of a
// document is the document after k patches (mod patchCycle); state 0 is
// the generated document.
type patchPlan struct {
	bodies [][][]byte // [doc][k]: PATCH body that turns state k into state k+1
	counts [][][]int  // [doc][state][query]: oracle cardinalities
	nodes  [][]int    // [doc][state]: node count
}

// itemXML generates one <item> subtree of roughly forty nodes that
// carries the labels the read queries look for (listitem, keyword,
// emph, mailbox/mail/date), so patches move the answers.
func itemXML(r *rng) string {
	var sb strings.Builder
	text := func() {
		sb.WriteString("<text>")
		for i, n := 0, 1+r.intn(3); i < n; i++ {
			switch r.intn(4) {
			case 0:
				sb.WriteString("some words ")
			case 1:
				sb.WriteString("<keyword>kw</keyword>")
			case 2:
				sb.WriteString("<keyword>kw<emph>nested</emph></keyword>")
			default:
				sb.WriteString("<emph>emphasis</emph>")
			}
		}
		sb.WriteString("</text>")
	}
	sb.WriteString("<item><location>United States</location><quantity>1</quantity>" +
		"<name>patched item</name><payment>Creditcard</payment><description><parlist>")
	for i, n := 0, 1+r.intn(3); i < n; i++ {
		sb.WriteString("<listitem>")
		text()
		sb.WriteString("</listitem>")
	}
	sb.WriteString("</parlist></description><shipping>Will ship internationally</shipping><incategory/><mailbox>")
	for i, n := 0, 1+r.intn(2); i < n; i++ {
		sb.WriteString("<mail><from>sender</from><to>receiver</to>")
		if r.intn(5) > 0 {
			sb.WriteString("<date>07/21/2000</date>")
		}
		text()
		sb.WriteString("</mail>")
	}
	sb.WriteString("</mailbox></item>")
	return sb.String()
}

// marshalPlain is json.Marshal without HTML escaping, so an XML
// fragment travels as a client would send it rather than as \u003c runs.
func marshalPlain(v any) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(v); err != nil {
		return nil, err
	}
	return bytes.TrimRight(buf.Bytes(), "\n"), nil
}

// regionNodes returns the children of /site/regions in d.
func regionNodes(d *tree.Document) ([]tree.NodeID, error) {
	for v := d.FirstChild(d.DocumentElement()); v != tree.Nil; v = d.NextSibling(v) {
		if d.LabelName(v) != "regions" {
			continue
		}
		var out []tree.NodeID
		for c := d.FirstChild(v); c != tree.Nil; c = d.NextSibling(c) {
			out = append(out, c)
		}
		if len(out) > 0 {
			return out, nil
		}
	}
	return nil, fmt.Errorf("document has no /site/regions/* to patch under")
}

// feasible reports whether a cycle with `live` inserted items and
// `left` patches to go can still end with none: every live item needs
// its delete, and a lone last step cannot be an insert.
func feasible(live, left int) bool {
	return live >= 0 && live <= left && !(live == 0 && left == 1)
}

// buildPatchPlan walks every document of c through one patch cycle on
// an in-process shadow (tree.Document.Apply), recording the PATCH body
// of each step and the oracle of each state.
func buildPatchPlan(w *workload, c *corpus, r *rng) (*patchPlan, error) {
	plan := &patchPlan{}
	for di, d0 := range c.docs {
		dr := r.fork(c.ids[di])
		var (
			shadow = d0
			live   []tree.NodeID // roots of the inserted items, in the shadow's current ids
			bodies [][]byte
			counts [][]int
			nodes  []int
		)
		for k := 0; k < patchCycle; k++ {
			cnt, _, err := oracle(w, shadow)
			if err != nil {
				return nil, err
			}
			counts = append(counts, cnt)
			nodes = append(nodes, shadow.NumNodes())

			left := patchCycle - k
			var ops []tree.PatchOp
			if len(live) < maxLiveItems && feasible(len(live)+1, left-1) {
				ops = append(ops, tree.OpInsert)
			}
			if len(live) > 0 && feasible(len(live)-1, left-1) {
				ops = append(ops, tree.OpDelete)
			}
			if len(live) > 0 && feasible(len(live), left-1) {
				ops = append(ops, tree.OpReplace)
			}
			if len(ops) == 0 {
				return nil, fmt.Errorf("patch plan: no feasible step at %d with %d live items", k, len(live))
			}
			pt := tree.Patch{Op: ops[dr.intn(len(ops))], Before: tree.Nil}
			req := service.PatchDocRequest{Op: pt.Op.String()}
			victim := -1
			if pt.Op == tree.OpInsert {
				regions, err := regionNodes(shadow)
				if err != nil {
					return nil, err
				}
				pt.Node = regions[dr.intn(len(regions))]
				// Half the inserts append; the others go before an
				// existing child, so both splice positions are covered.
				if dr.intn(2) == 0 {
					var kids []tree.NodeID
					for v := shadow.FirstChild(pt.Node); v != tree.Nil; v = shadow.NextSibling(v) {
						kids = append(kids, v)
					}
					if len(kids) > 0 {
						pt.Before = kids[dr.intn(len(kids))]
						req.Before = &pt.Before
					}
				}
			} else {
				victim = dr.intn(len(live))
				pt.Node = live[victim]
			}
			req.Node = pt.Node
			if pt.Op != tree.OpDelete {
				req.XML = itemXML(dr)
				frag, err := xmlparse.Parse([]byte(req.XML))
				if err != nil {
					return nil, fmt.Errorf("patch plan: generated fragment: %w", err)
				}
				pt.Frag = frag
			}
			next, dl, err := shadow.Apply(pt)
			if err != nil {
				return nil, fmt.Errorf("patch plan: shadow apply: %w", err)
			}
			// Carry the tracked item roots across the splice.
			shift := tree.NodeID(dl.Inserted - dl.Removed)
			moved := live[:0]
			for i, v := range live {
				switch {
				case i == victim && pt.Op == tree.OpDelete:
					continue
				case i == victim: // replaced in place
				case v >= dl.At:
					v += shift
				}
				moved = append(moved, v)
			}
			live = moved
			if pt.Op == tree.OpInsert {
				live = append(live, dl.At)
			}
			body, err := marshalPlain(req)
			if err != nil {
				return nil, err
			}
			bodies = append(bodies, body)
			shadow = next
		}
		// The cycle must close: same size and same answers as state 0.
		cnt, sums, err := oracle(w, shadow)
		if err != nil {
			return nil, err
		}
		if shadow.NumNodes() != nodes[0] || fmt.Sprint(cnt) != fmt.Sprint(counts[0]) || fmt.Sprint(sums) != fmt.Sprint(c.sums[di]) {
			return nil, fmt.Errorf("patch plan: cycle of %s does not return to the starting document", c.ids[di])
		}
		plan.bodies = append(plan.bodies, bodies)
		plan.counts = append(plan.counts, counts)
		plan.nodes = append(plan.nodes, nodes)
	}
	return plan, nil
}
