package asta

// Context is the reusable memory behind an evaluation: every piece of
// scratch Eval would rebuild per call — interned-set tables,
// transition rows and their recipes, jump analyses, the result arena,
// index cursors, append buffers — owned by one value that repeated
// evaluations recycle. The serving layers run the same compiled
// automaton thousands of times; with a warm Context those runs are
// allocation-free and map-free, and the memo world is derived once
// instead of per call.
//
// The memo world is a pure function of (automaton, options) — the
// tables of §4 are derived from the automaton alone; the tree is only
// navigated — so a Context is made for one such pair and runs nothing
// else: it runs its automaton warm over any document that shares the
// automaton's label table. The document and index belong to one run: a
// Context references neither between evaluations, so a pooled Context
// pins no document. A Context must not be used concurrently, and the
// answer block Eval returns is valid only until the Context's next
// evaluation — copy the answer, or keep the Context out of use, for as
// long as it is read.
type Context struct {
	e evaluator
}

// NewContext returns a Context that runs a under opt, with an empty
// memo world; its first Eval builds it.
func (a *ASTA) NewContext(opt Options) *Context {
	c := &Context{}
	c.e.bind(a, opt)
	return c
}

// MemBytes estimates the Context's resident scratch bytes: the arenas
// and tables it would keep alive if pooled. Pools use it to decide
// whether a context that served a huge answer is worth retaining, and
// the serving layer surfaces the pooled total in /stats.
func (c *Context) MemBytes() int64 {
	e := &c.e
	b := e.arena.memBytes() + e.i32s.memBytes() + e.opsA.memBytes() + e.tis.memBytes()
	b += int64(cap(e.sets))*8 + int64(cap(e.rows))*24
	b += int64(cap(e.jumps))*24 + int64(cap(e.jumpsDone))
	b += e.setTab.memBytes(12) + e.recTab.memBytes(28) + e.r2Tab.memBytes(28)
	b += int64(cap(e.recipes)) * 32
	b += int64(cap(e.transBuf))*4 + int64(cap(e.opBuf))*12 + int64(cap(e.srcBuf))*8
	if e.cur != nil {
		b += e.cur.MemBytes()
	}
	return b
}
