package main

import (
	"fmt"
	"os"
	"strconv"
)

// writeLog is the driver's view of a write workload's generations.
// Generations are opaque tokens: the driver learns which document state
// one stands for from the reply to the PATCH that created it (or, for
// the starting generation, from the pre-check), and matches reads to
// states by identity only. Connection 0 is the only writer; reads are
// checked after the phase, when both client goroutines have finished.
type writeLog struct {
	applied []int            // [doc]: patches acknowledged so far
	states  []map[uint64]int // [doc]: generation → state index
}

func newWriteLog(docs int) *writeLog {
	wl := &writeLog{applied: make([]int, docs), states: make([]map[uint64]int, docs)}
	for i := range wl.states {
		wl.states[i] = map[uint64]int{}
	}
	return wl
}

// readObs is one read reply of a write workload, kept until the phase
// ends and its generation can be resolved to a state.
type readObs struct {
	doc, query, limit, page int32
	gen                     uint64
	count, nodes            int32
}

// player walks one connection's request list: it renders each slot
// into wire form, carries continuation tokens from the reply that
// issued them to the slot that resumes them, and checks every reply
// against the oracle. The socket run and the in-process traced replay
// share it, so both issue byte-identical requests.
type player struct {
	w    *workload
	c    *corpus
	list []request
	pos  int
	// tokens[i] is the next token issued by slot i, until its resumer
	// takes it.
	tokens [][]byte
	// cursor is the token the last rendered slot resumed; nil for none.
	cursor []byte
	wl     *writeLog // nil for read-only workloads
	reads  []readObs // unresolved reads of a write workload
	body   []byte    // render buffer
	// stale counts continuations answered 410 on a write workload.
	stale int
	// complaints counts the failures reported on standard error.
	complaints int
}

func newPlayer(w *workload, c *corpus, list []request, wl *writeLog) *player {
	return &player{w: w, c: c, list: list, tokens: make([][]byte, len(list)), wl: wl}
}

// next returns the next slot and its position, cycling.
func (p *player) next() (*request, int) {
	pos := p.pos
	p.pos = (p.pos + 1) % len(p.list)
	return &p.list[pos], pos
}

// render produces the wire form of slot r. ok is false when the slot
// resumes a token that was never issued (the first page already held
// the whole answer): the slot is then skipped, not attempted.
func (p *player) render(r *request) (method, path string, body []byte, ok bool) {
	if r.kind == kindPatch {
		k := p.wl.applied[r.doc] % patchCycle
		return "PATCH", "/docs/" + p.c.ids[r.doc], p.c.plan.bodies[r.doc][k], true
	}
	b := append(p.body[:0], `{"doc":"`...)
	b = append(b, p.c.ids[r.doc]...)
	b = append(b, `","query":`...)
	b = strconv.AppendQuote(b, p.w.queries[r.query])
	if r.limit > 0 {
		b = append(b, `,"limit":`...)
		b = strconv.AppendInt(b, int64(r.limit), 10)
	}
	p.cursor = nil
	if r.from >= 0 {
		p.cursor, p.tokens[r.from] = p.tokens[r.from], nil
		if p.cursor == nil {
			return "", "", nil, false
		}
		b = append(b, `,"cursor":"`...)
		b = append(b, p.cursor...)
		b = append(b, '"')
	}
	b = append(b, '}')
	p.body = b
	path = "/query"
	if r.kind == kindStream {
		path = "/query/stream"
	}
	return "POST", path, b, true
}

// wantNodes is how many node ids the reply to r must carry when the
// full answer has count nodes.
func wantNodes(r *request, count int) int {
	if r.limit == 0 {
		return count
	}
	rest := count - int(r.page)*int(r.limit)
	if rest < 0 {
		rest = 0
	}
	if rest > int(r.limit) {
		rest = int(r.limit)
	}
	return rest
}

// observe checks the reply to slot r (at list position pos) and returns
// the node ids it carried. bad marks a failed operation: a status other
// than 200, an unreadable or truncated body, or an answer that differs
// from the oracle.
func (p *player) observe(r *request, pos int, status int, body []byte) (nodes int, bad bool) {
	if nodes, bad = p.check(r, pos, status, body); bad {
		p.complain("slot %d (kind %d, doc %s, query %d, page %d): status %d, body %.200q", pos, r.kind, p.c.ids[r.doc], r.query, r.page, status, body)
	}
	return nodes, bad
}

func (p *player) check(r *request, pos int, status int, body []byte) (nodes int, bad bool) {
	if status == 410 && r.from >= 0 && p.wl != nil {
		// The first page's generation was patched away between its
		// evaluation and its lease, so the token was stale when issued.
		// The daemon documents 410 as "restart the paged read"; on a
		// write workload that is an answer, not a failure.
		p.stale++
		return 0, false
	}
	if status != 200 {
		return 0, true
	}
	if r.kind == kindPatch {
		gen, n, ok := scanPatchReply(body)
		if !ok {
			return 0, true
		}
		p.wl.applied[r.doc]++
		state := p.wl.applied[r.doc] % patchCycle
		p.wl.states[r.doc][gen] = state
		return 0, n != p.c.plan.nodes[r.doc][state]
	}
	var a answer
	var ok bool
	if r.kind == kindStream {
		a, ok = scanStreamReply(body)
	} else {
		a, ok = scanQueryReply(body)
	}
	if !ok {
		return 0, true
	}
	if r.keep && a.next != nil {
		p.tokens[pos] = append([]byte(nil), a.next...)
	}
	if p.wl != nil {
		// Which state this generation is may not be known yet (the
		// PATCH reply can still be in flight on connection 0).
		p.reads = append(p.reads, readObs{doc: r.doc, query: r.query, limit: r.limit, page: r.page,
			gen: a.gen, count: int32(a.count), nodes: int32(a.nodes)})
		return a.nodes, false
	}
	count := p.c.counts[r.doc][r.query]
	return a.nodes, a.count != count || a.nodes != wantNodes(r, count)
}

// settle resolves the reads kept since the last call against the write
// log and returns how many disagree with the oracle of the generation
// they reported. Call it only while no client goroutine runs.
func (p *player) settle() (failed int) {
	for _, o := range p.reads {
		state, ok := p.wl.states[o.doc][o.gen]
		if !ok {
			failed++
			p.complain("read of %s reports generation %d, which no PATCH reply announced", p.c.ids[o.doc], o.gen)
			continue
		}
		count := p.c.plan.counts[o.doc][state][o.query]
		r := request{limit: o.limit, page: o.page}
		if int(o.count) != count || int(o.nodes) != wantNodes(&r, count) {
			failed++
			p.complain("read of %s query %d page %d in state %d: count %d nodes %d, oracle count %d nodes %d",
				p.c.ids[o.doc], o.query, o.page, state, o.count, o.nodes, count, wantNodes(&r, count))
		}
	}
	p.reads = p.reads[:0]
	return failed
}

// complain reports a failed operation on standard error, the first few
// of a player only: one cause usually fails many requests alike.
func (p *player) complain(format string, args ...any) {
	if p.complaints++; p.complaints <= 5 {
		fmt.Fprintf(os.Stderr, "xpqbench: %s: failed: "+format+"\n", append([]any{p.w.name}, args...)...)
	}
}
