package asta

import (
	"repro/internal/index"
	"repro/internal/obsv"
	"repro/internal/tree"
)

// Options selects the evaluation strategy, matching the four series of
// Figure 4: zero value = "Naive Eval."; Jump = "Jumping Eval."; Memo =
// "Memo. Eval."; both = "Opt. Eval.". InfoProp enables the information
// propagation of §4.4 (restricting the states verified in the second
// child using the first child's outcome).
type Options struct {
	Jump     bool
	Memo     bool
	InfoProp bool
}

// Opt returns the fully optimized configuration.
func Opt() Options { return Options{Jump: true, Memo: true, InfoProp: true} }

// Result is the outcome of an ASTA evaluation.
type Result struct {
	// Accepted reports whether some run reaches a top state at the root.
	Accepted bool
	// Selected is A(t): strictly increasing node ids — document order,
	// no duplicates — nil when nothing was selected. It is one block in
	// the Context's arena, which the Context's next evaluation rewinds
	// and refills: a Result of Context.Eval is valid until then (copy
	// what must outlive it), a Result of ASTA.Eval indefinitely, because
	// that Context is its own.
	Selected []tree.NodeID
	// Work is the run's effort, the quantities tabulated in Figure 3:
	// Visited is lines (2)/(3), MemoEntries line (4) — the nodes that
	// paid the |Q| factor; a warm Context re-evaluation derives ~0
	// entries, its lookups show up in MemoHits.
	obsv.Work
}

// Eval runs the automaton over the document with the given options in a
// fresh Context. The index may be nil when Options.Jump is false.
// Repeated evaluations of the same automaton should run one Context
// made by NewContext instead.
func (a *ASTA) Eval(d *tree.Document, ix *index.Index, opt Options) Result {
	return a.NewContext(opt).Eval(d, ix)
}

// Eval runs the Context's automaton over (d, ix). The first run sizes
// the label rows and builds the memo world; later runs reuse it, over
// any document with the automaton's label table — the interned-set
// table, transition rows, recipes and jump analyses persist (pure
// functions of the automaton and options), while the result arena
// rewinds in place and the index cursors are pointed at this run's
// index. A warm run is therefore allocation-free in steady state and
// skips all memo derivation.
//
// Result.Selected lives in the Context's arena: it is valid only until
// the Context's next Eval.
func (c *Context) Eval(d *tree.Document, ix *index.Index) Result {
	e := &c.e
	a := e.a
	e.attach(d, ix)
	defer e.detach()
	var g RSet
	e.evalChild(d.Root(), tree.NodeID(d.NumNodes()-1), a.Top, e.internSet(a.Top), &g)
	res := Result{Work: e.work}
	acc := g.Sat & a.Top
	if acc == 0 {
		return res
	}
	res.Accepted = true
	var all *NodeList
	q := State(0)
	for rest := acc; rest != 0; rest >>= 1 {
		if rest&1 != 0 {
			all = rawConcat(all, g.list(q, &e.arena), &e.arena)
		}
		q++
	}
	res.Selected = collect(all, &e.arena, &e.walkStack)
	return res
}

// transInfo is the memoized outcome of Line 3 of Algorithm 4.1: the
// active transitions for (r, label) and the child state sets r1, r2
// (their interned ids when memoizing or jumping). In memo mode rows
// live in the Context's tiStore under dense ids; the eval_trans recipes
// and r2 restrictions are keyed by that id in the Context-level open
// tables, so a transInfo itself carries no per-row maps.
type transInfo struct {
	trans      []int32
	r1, r2     StateSet
	r1ID, r2ID int32
	// id is the dense tiStore id (-1 for transient rows in non-memo
	// modes, which also disables the recipe/r2 tables).
	id int32
}

type r2entry struct {
	r2   StateSet
	r2ID int32
}

// op is one step of a recipe: how a fired transition contributes to Γ.
type opKind int8

const (
	opMark  opKind = iota // add the current node to Γ(target)
	opLeft                // union Γ1(src) into Γ(target)
	opRight               // union Γ2(src) into Γ(target)
)

type op struct {
	target State
	kind   opKind
	src    State
}

// recipe is the memoized outcome of eval_trans for fixed (active
// transitions, sat1, sat2): the satisfied states and the Γ-building
// operations, which are position-independent (only the node id varies).
type recipe struct {
	sat StateSet
	ops []op
}

// evaluator is the complete evaluation state. It lives inside a Context
// and splits into two lifetimes: memo state (interned sets, transition
// rows, recipes, jump analyses — pure functions of the bound automaton
// and options) survives across warm evaluations, while per-evaluation
// state (document, index, cursor positions, result arena, work counts)
// is set at the start of every run.
type evaluator struct {
	// a and opt are the memo world's binding, fixed when the Context is
	// made. d is the tree being navigated, nil between runs; cur jumps
	// over its index (§4.3) and holds none between runs.
	a   *ASTA
	opt Options
	d   *tree.Document

	// Memo structures: state sets are interned to dense ids via an
	// open-addressed table (when memoizing or jumping); per-set rows are
	// label-indexed slices of transInfo ids for constant-time transition
	// lookup (memoizing), and jumps the per-set jump analyses (jumping).
	setTab    openTable[StateSet, int32]
	sets      []StateSet
	rows      [][]int32
	jumps     []jumpInfo
	jumpsDone []bool
	numLabels int

	// Flat storage behind the memo structures: transInfo rows, their
	// trans slices and label rows, recipes and their op lists. All of
	// it is retained across warm evaluations.
	tis     tiStore
	i32s    sliceArena[int32]
	opsA    sliceArena[op]
	recipes []recipe
	recTab  openTable[recipeKey, int32]
	r2Tab   openTable[r2Key, r2entry]

	arena cellArena
	cur   *index.Cursors
	work  obsv.Work

	// Reusable scratch buffers (valid only within one call frame).
	transBuf  []int32
	opBuf     []op
	srcBuf    []srcRef
	walkStack []*NodeList
	// scratchRec is the transient recipe slot for non-memo modes: it
	// aliases opBuf and is consumed by applyTrans before any further
	// computeRecipe call can clobber it.
	scratchRec recipe
}

// bind makes the evaluator the memo world of (a, opt): the chunk
// sizes of its arenas. It runs once, when the Context is made.
func (e *evaluator) bind(a *ASTA, opt Options) {
	e.a, e.opt = a, opt
	e.i32s.chunkSize = i32Chunk
	e.opsA.chunkSize = opChunk
}

// attach starts a run over (d, ix): the result arena rewinds, work
// restart, and the cursors are pointed at ix, reallocated only when the
// alphabet outgrows them — O(touched) for the cursors, O(arena chunks)
// for the arena, no allocation.
func (e *evaluator) attach(d *tree.Document, ix *index.Index) {
	e.d = d
	if e.opt.Memo && e.numLabels == 0 {
		e.numLabels = d.Names().Size()
	}
	e.arena.reset()
	e.work = obsv.Work{}
	if !e.opt.Jump {
		return
	}
	if e.cur == nil {
		e.cur = ix.NewCursors()
	} else {
		e.cur.Retarget(ix)
	}
}

// detach ends the run: the evaluator lets go of the document and index
// (the answer holds node ids only), so a Context kept warm between
// evaluations keeps no generation of any document alive.
func (e *evaluator) detach() {
	e.d = nil
	if e.cur != nil {
		e.cur.Retarget(nil)
	}
}

// internSet returns the dense id of a state set, registering it on first
// sight, when memoizing or jumping; -1 otherwise.
func (e *evaluator) internSet(r StateSet) int32 {
	if !e.opt.Memo && !e.opt.Jump {
		return -1
	}
	if id, ok := e.setTab.get(r); ok {
		return id
	}
	id := int32(len(e.sets))
	e.setTab.put(r, id)
	e.sets = append(e.sets, r)
	e.rows = append(e.rows, nil)
	e.jumps = append(e.jumps, jumpInfo{})
	e.jumpsDone = append(e.jumpsDone, false)
	return id
}

// eval is Algorithm 4.1 proper: evaluate node v under the incoming state
// set r (with interned id rID when memoizing or jumping, else -1),
// filling out — passed down instead of returned so the (large) result
// sets are not copied through every stack frame. end is the end of v's
// binary subtree (tree.Document.BinEnd), which the recursion carries
// instead of asking the document per node: the left child's is where
// v's own subtree ends, the right sibling exists if that is short of
// end, and shares it.
func (e *evaluator) eval(v, end tree.NodeID, r StateSet, rID int32, out *RSet) {
	e.work.Visited++
	l := e.d.Label(v)
	ti := e.lookupTrans(r, rID, l)
	if len(ti.trans) == 0 {
		return
	}
	var g1, g2 RSet
	last := e.d.LastDesc(v)
	if last > v {
		e.evalChild(v+1, last, ti.r1, ti.r1ID, &g1)
	}
	r2, r2ID := ti.r2, ti.r2ID
	if e.opt.InfoProp {
		r2, r2ID = e.lookupR2(ti, g1.Sat)
	}
	if last < end {
		e.evalChild(last+1, end, r2, r2ID, &g2)
	}
	e.applyTrans(ti, v, &g1, &g2, out)
}

// evalChild evaluates the binary subtree at c, which ends at end, under
// r, applying the relevant-node jumps of §4.3 when enabled. out must be
// empty on entry. A jump lands on a sibling of c, whose binary subtree
// ends where c's does, or below, where the document is asked.
func (e *evaluator) evalChild(c, end tree.NodeID, r StateSet, rID int32, out *RSet) {
	if r == 0 {
		return
	}
	if !e.opt.Jump {
		e.eval(c, end, r, rID, out)
		return
	}
	ji := e.lookupJump(r, rID)
	if ji.kind != jumpNone && ji.essential.Contains(e.d.Label(c)) {
		e.eval(c, end, r, rID, out)
		return
	}
	switch ji.kind {
	case jumpTopMost:
		e.jumpTopMostRegion(c, end, r, rID, ji, out)
	case jumpRightPath:
		e.work.Jumps++
		u := e.cur.Rt(c, ji.essential)
		if u == index.Nil {
			return
		}
		e.eval(u, end, r, rID, out)
	case jumpLeftPath:
		e.work.Jumps++
		u := e.cur.Lt(c, ji.essential)
		if u == index.Nil {
			return
		}
		e.eval(u, e.d.BinEnd(u), r, rID, out)
	default:
		e.eval(c, end, r, rID, out)
	}
}

// jumpTopMostRegion evaluates a skipped region by enumerating its
// top-most essential nodes (dt/ft jumps) and unioning their results —
// sound because every state of the set loops with ↓1 q ∨ ↓2 q on the
// skipped labels. With information propagation, states that are already
// satisfied by an earlier part of the region and cannot mark nodes are
// dropped for the remaining enumeration — the "only one witness" effect
// that makes the Q13-Q15 predicates of Figure 3 nearly free.
func (e *evaluator) jumpTopMostRegion(c, end tree.NodeID, r StateSet, rID int32, ji jumpInfo, out *RSet) {
	ids, _ := ji.essential.Finite() // analyzeSet picks top-most for finite sets only
	e.work.Jumps++
	for after := c; ; {
		u := e.cur.First(ids, after, end)
		if u == tree.Nil {
			return
		}
		var g RSet
		after = e.d.BinEnd(u)
		e.eval(u, after, r, rID, &g)
		out.union(&g, &e.arena)
		if !e.opt.InfoProp {
			continue
		}
		// Drop satisfied, non-marking states: the region's disjunction
		// for them is already true and they carry no result lists.
		pruned := r &^ (out.Sat &^ e.a.marking)
		if pruned == r {
			continue
		}
		if pruned == 0 {
			return
		}
		r = pruned
		rID = e.internSet(r)
		nji := e.lookupJump(r, rID)
		if nji.kind == jumpTopMost {
			if nids, ok := nji.essential.Finite(); ok {
				ids = nids
			}
		}
	}
}

// lookupTrans computes (or recalls) Line 3: active transitions and child
// state sets.
func (e *evaluator) lookupTrans(r StateSet, rID int32, l tree.LabelID) *transInfo {
	if !e.opt.Memo {
		return e.computeTransFor(r, l, false)
	}
	row := e.rows[rID]
	if row == nil {
		row = e.newRow(e.rowLen(l))
		e.rows[rID] = row
	} else if int(l) >= len(row) {
		grown := e.newRow(int(l) + 1)
		copy(grown, row)
		row = grown
		e.rows[rID] = row
	}
	if id := row[l]; id >= 0 {
		e.work.MemoHits++
		return e.tis.at(id)
	}
	ti := e.computeTransFor(r, l, true)
	row[l] = ti.id
	e.work.MemoEntries++
	return ti
}

// rowLen sizes a fresh label row: the document's label universe, or
// past it for out-of-universe labels (defensive; labels normally come
// from the document itself).
func (e *evaluator) rowLen(l tree.LabelID) int {
	n := e.numLabels
	if int(l) >= n {
		n = int(l) + 1
	}
	return n
}

// newRow carves a label row (transInfo ids, -1 = not yet computed) from
// the int32 arena.
func (e *evaluator) newRow(n int) []int32 {
	row := e.i32s.carveFull(n)
	for i := range row {
		row[i] = -1
	}
	return row
}

// computeTransFor evaluates Line 3 from scratch for one label, paying
// the |Q| factor — the naive cost model. With memo set the row is
// stored in the tiStore with its trans slice in the arena; without it
// the row is transient (heap, GC'd with the evaluation). Either way the
// child sets are interned (internSet).
func (e *evaluator) computeTransFor(r StateSet, l tree.LabelID, memo bool) *transInfo {
	var ti *transInfo
	if memo {
		ti = e.tis.new()
	} else {
		ti = &transInfo{id: -1, r1ID: -1, r2ID: -1}
	}
	buf := e.transBuf[:0]
	rest := r
	for q := State(0); rest != 0; q++ {
		if rest&1 != 0 {
			for _, idx := range e.a.byFrom[q] {
				t := &e.a.Trans[idx]
				if t.Guard.Contains(l) {
					buf = append(buf, idx)
					ti.r1 |= t.down1
					ti.r2 |= t.down2
				}
			}
		}
		rest >>= 1
	}
	e.transBuf = buf
	if memo {
		ti.trans = e.i32s.copyOf(buf)
	} else {
		ti.trans = append([]int32(nil), buf...)
	}
	ti.r1ID = e.internSet(ti.r1)
	ti.r2ID = e.internSet(ti.r2)
	return ti
}

// lookupR2 applies information propagation: given the satisfied states
// of the first child, restrict the states verified in the second child
// to those still needed for a transition's value or for carrying marked
// nodes.
func (e *evaluator) lookupR2(ti *transInfo, sat1 StateSet) (StateSet, int32) {
	if ti.id >= 0 {
		k := r2Key{ti: ti.id, s1: sat1}
		if ent, ok := e.r2Tab.get(k); ok {
			e.work.MemoHits++
			return ent.r2, ent.r2ID
		}
		r2 := e.computeR2(ti, sat1)
		ent := r2entry{r2: r2, r2ID: e.internSet(r2)}
		e.r2Tab.put(k, ent)
		e.work.MemoEntries++
		return ent.r2, ent.r2ID
	}
	r2 := e.computeR2(ti, sat1)
	return r2, e.internSet(r2)
}

func (e *evaluator) computeR2(ti *transInfo, sat1 StateSet) StateSet {
	var r2 StateSet
	for _, idx := range ti.trans {
		t := &e.a.Trans[idx]
		tv, need := e.partial(t.Phi, sat1)
		if tv == pF {
			continue // transition cannot fire; its ↓2 moves are dead
		}
		r2 |= need
	}
	return r2
}

// Three-valued logic for partial formula evaluation.
const (
	pF int8 = -1
	pU int8 = 0
	pT int8 = 1
)

// partial evaluates φ knowing only the first child's satisfied states.
// It returns the three-valued outcome and the ↓2 states still needed:
// all undetermined atoms, plus — when the value is already decided — the
// atoms that can still contribute marked nodes (states whose
// sub-automaton selects; existential semantics prunes the rest, which is
// how "only one witness is checked", §4.4).
func (e *evaluator) partial(f *Formula, sat1 StateSet) (int8, StateSet) {
	switch f.Kind {
	case FTrue:
		return pT, 0
	case FFalse:
		return pF, 0
	case FDown:
		if f.Child == 1 {
			if sat1.Has(f.Q) {
				return pT, 0
			}
			return pF, 0
		}
		return pU, StateSet(0).With(f.Q)
	case FNot:
		tv, need := e.partial(f.Left, sat1)
		if tv != pU {
			// Value decided; rule (not) discards marks, so nothing
			// below is needed anymore.
			return -tv, 0
		}
		return pU, need
	case FAnd:
		t1, n1 := e.partial(f.Left, sat1)
		t2, n2 := e.partial(f.Right, sat1)
		switch {
		case t1 == pF || t2 == pF:
			return pF, 0
		case t1 == pT && t2 == pT:
			return pT, (n1 | n2) & e.a.marking
		case t1 == pT:
			return t2, n2 | n1&e.a.marking
		case t2 == pT:
			return t1, n1 | n2&e.a.marking
		default:
			return pU, n1 | n2
		}
	case FOr:
		t1, n1 := e.partial(f.Left, sat1)
		t2, n2 := e.partial(f.Right, sat1)
		switch {
		case t1 == pT || t2 == pT:
			return pT, (n1 | n2) & e.a.marking
		case t1 == pF:
			return t2, n2
		case t2 == pF:
			return t1, n1
		default:
			return pU, n1 | n2
		}
	}
	return pF, 0
}

// applyTrans is eval_trans (Definition C.3): evaluate the active
// transitions' formulas under the children's results and build Γ.
func (e *evaluator) applyTrans(ti *transInfo, v tree.NodeID, g1, g2, out *RSet) {
	var rec *recipe
	if ti.id >= 0 {
		k := recipeKey{ti: ti.id, s1: g1.Sat, s2: g2.Sat}
		if idx, ok := e.recTab.get(k); ok {
			e.work.MemoHits++
			rec = &e.recipes[idx]
		} else {
			rec = e.computeRecipe(ti, g1.Sat, g2.Sat, true)
			e.recTab.put(k, int32(len(e.recipes)-1))
			e.work.MemoEntries++
		}
	} else {
		rec = e.computeRecipe(ti, g1.Sat, g2.Sat, false)
	}
	out.Sat = rec.sat
	for _, o := range rec.ops {
		switch o.kind {
		case opMark:
			out.addNode(o.target, v, &e.arena)
		case opLeft:
			out.add(o.target, g1.list(o.src, &e.arena), &e.arena)
		case opRight:
			out.add(o.target, g2.list(o.src, &e.arena), &e.arena)
		}
	}
}

// computeRecipe evaluates every active transition's formula against the
// satisfied sets and records which result lists flow where. The recipe
// depends only on (active transitions, sat1, sat2) — never on the node —
// which is what makes eval_trans memoizable. With store set the recipe
// is appended to the Context's recipe slice with its ops in the op
// arena (the caller indexes it into the recipe table); otherwise the
// returned recipe aliases the scratch buffers and is transient.
func (e *evaluator) computeRecipe(ti *transInfo, sat1, sat2 StateSet, store bool) *recipe {
	ops := e.opBuf[:0]
	var sat StateSet
	for _, idx := range ti.trans {
		t := &e.a.Trans[idx]
		scratch := e.srcBuf[:0]
		ok := evalFormula(t.Phi, sat1, sat2, &scratch)
		e.srcBuf = scratch
		if !ok {
			continue
		}
		sat = sat.With(t.From)
		if t.Selecting {
			ops = append(ops, op{target: t.From, kind: opMark})
		}
		for _, s := range scratch {
			kind := opLeft
			if s.side == 2 {
				kind = opRight
			}
			ops = append(ops, op{target: t.From, kind: kind, src: s.q})
		}
	}
	e.opBuf = ops
	if store {
		e.recipes = append(e.recipes, recipe{sat: sat, ops: e.opsA.copyOf(ops)})
		return &e.recipes[len(e.recipes)-1]
	}
	e.scratchRec = recipe{sat: sat, ops: ops}
	return &e.scratchRec
}

type srcRef struct {
	side int8
	q    State
}

// evalFormula implements the judgement of Figure 7: it returns the truth
// value and appends to ops the ↓i q atoms that evaluated to true in live
// (non-discarded) positions — exactly the result lists the rules union.
func evalFormula(f *Formula, sat1, sat2 StateSet, ops *[]srcRef) bool {
	switch f.Kind {
	case FTrue:
		return true
	case FFalse:
		return false
	case FDown:
		sat := sat1
		if f.Child == 2 {
			sat = sat2
		}
		if sat.Has(f.Q) {
			*ops = append(*ops, srcRef{f.Child, f.Q})
			return true
		}
		return false
	case FNot:
		// Rule (not): value is inverted, collected lists are dropped.
		mark := len(*ops)
		b := evalFormula(f.Left, sat1, sat2, ops)
		*ops = (*ops)[:mark]
		return !b
	case FAnd:
		mark := len(*ops)
		if !evalFormula(f.Left, sat1, sat2, ops) {
			*ops = (*ops)[:mark]
			return false
		}
		if !evalFormula(f.Right, sat1, sat2, ops) {
			*ops = (*ops)[:mark]
			return false
		}
		return true
	case FOr:
		// Rule (or) unions the lists of all true disjuncts; a false
		// disjunct leaves no ops behind (every false case truncates its
		// own contribution), so no compaction is needed.
		b1 := evalFormula(f.Left, sat1, sat2, ops)
		mid := len(*ops)
		b2 := evalFormula(f.Right, sat1, sat2, ops)
		if !b2 {
			*ops = (*ops)[:mid]
		}
		return b1 || b2
	}
	return false
}
