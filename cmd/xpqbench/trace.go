package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"repro/internal/compile"
	"repro/internal/core"
	"repro/internal/index"
	"repro/internal/mmapx"
	"repro/internal/qcache"
	"repro/internal/service"
	"repro/internal/shard"
	"repro/internal/store"
	"repro/internal/tree"
	"repro/internal/xmlparse"
	"repro/internal/xpath"
)

// The traced run. No file of the program is edited to trace it: the
// benchmark loads the workload's corpus into the same packages the
// daemon is made of, in this process, and replays the request list on
// one goroutine, calling into each layer's public functions itself and
// recording a span around every call. A request is executed once per
// level — through the HTTP handler, then through Service.Eval or
// Stream, then through an engine of the benchmark's own — and a span's
// parent is the span of the enclosing level for the same request id, so
// a layer's self time is its span minus the spans that name it as
// parent. Fixed probes on the corpus's first document cover the layers
// a request list does not reach on every workload (forced strategies,
// cold compilation, the write path, the resident format).

// span is one timed call into a layer.
type span struct {
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"` // since the trace began
	EndNS   int64  `json:"end_ns"`
	Parent  int32  `json:"parent"` // index of the enclosing span; -1 for none
	Req     int32  `json:"req"`    // request id; -1 for probe spans
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now(), spans: make([]span, 0, 1<<16)} }

func (t *tracer) begin(name string, parent, req int32) int32 {
	t.spans = append(t.spans, span{Name: name, Parent: parent, Req: req, StartNS: int64(time.Since(t.t0))})
	return int32(len(t.spans) - 1)
}

func (t *tracer) end(id int32) time.Duration {
	s := &t.spans[id]
	s.EndNS = int64(time.Since(t.t0))
	return time.Duration(s.EndNS - s.StartNS)
}

// timed records fn as one span and returns its duration.
func (t *tracer) timed(name string, parent, req int32, fn func()) time.Duration {
	id := t.begin(name, parent, req)
	fn()
	return t.end(id)
}

// durations returns, in microseconds, the length of every request span
// (Req >= 0; probe spans are left out) called name.
func (t *tracer) durations(name string) []float64 {
	var out []float64
	for i := range t.spans {
		if s := &t.spans[i]; s.Name == name && s.Req >= 0 {
			out = append(out, us(time.Duration(s.EndNS-s.StartNS)))
		}
	}
	return out
}

// nested returns, in microseconds, the length and the self time of
// every request span called name that has children; the self time is
// the length minus the lengths of the spans that name it as parent.
// Spans without children (calls the replay did not look inside) are
// left out.
func (t *tracer) nested(name string) (total, self []float64) {
	inner := make([]int64, len(t.spans))
	parent := make([]bool, len(t.spans))
	for i := range t.spans {
		if s := &t.spans[i]; s.Parent >= 0 {
			inner[s.Parent] += s.EndNS - s.StartNS
			parent[s.Parent] = true
		}
	}
	for i := range t.spans {
		if s := &t.spans[i]; s.Name == name && s.Req >= 0 && parent[i] {
			d := s.EndNS - s.StartNS
			total = append(total, us(time.Duration(d)))
			self = append(self, us(time.Duration(d-inner[i])))
		}
	}
	return total, self
}

// write saves the spans as one JSON document.
func (t *tracer) write(path, workload string, seed int64) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	err = enc.Encode(struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Spans    []span `json:"spans"`
	}{workload, seed, t.spans})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// us converts a duration to microseconds.
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// memWriter is the in-process http.ResponseWriter: it keeps status and
// body for the player to check.
type memWriter struct {
	hdr    http.Header
	status int
	buf    bytes.Buffer
}

func (m *memWriter) Header() http.Header         { return m.hdr }
func (m *memWriter) WriteHeader(code int)        { m.status = code }
func (m *memWriter) Write(p []byte) (int, error) { return m.buf.Write(p) }
func (m *memWriter) reset() {
	m.hdr, m.status = http.Header{}, 200
	m.buf.Reset()
}

// inproc is the daemon's stack assembled in this process.
type inproc struct {
	st      *shard.Store
	svc     *service.Service
	handler http.Handler
}

// loadInproc loads corp the way xpqd's preload does, with the flags the
// socket run gives the daemon.
func loadInproc(w *workload, corp *corpus) (*inproc, error) {
	st := shard.NewStore(4)
	for i, id := range corp.ids {
		var err error
		if w.mapped {
			_, err = st.LoadMapped(id, corp.paths[i])
		} else {
			_, err = st.LoadXMLFile(id, corp.paths[i])
		}
		if err != nil {
			return nil, err
		}
	}
	opts := service.Options{Workers: 2}
	if w.mapped {
		st.SetResidentBudget(corp.fileBytes / 4)
	}
	if w.cursorTTL != "" {
		ttl, err := time.ParseDuration(w.cursorTTL)
		if err != nil {
			return nil, err
		}
		opts.CursorTTL = ttl
	}
	svc := service.New(st, opts)
	return &inproc{st: st, svc: svc, handler: service.NewHandler(svc, service.HandlerOptions{StreamChunk: bulkChunk})}, nil
}

// ownEngines are the benchmark's own engines over the service's current
// handles: a patched document gets a fresh (cold) engine, as in the
// service.
type ownEngines struct {
	st    *shard.Store
	cache *qcache.Cache
	byDoc map[string]ownEngine
}

type ownEngine struct {
	h   *store.Handle
	eng *core.Engine
}

func (oe *ownEngines) get(id string) (*core.Engine, error) {
	h, ok := oe.st.Get(id)
	if !ok {
		return nil, fmt.Errorf("trace: document %q is not resident", id)
	}
	if e, ok := oe.byDoc[id]; ok && e.h == h {
		return e.eng, nil
	}
	eng := core.NewWithIndex(h.Doc, h.Index, oe.cache, id+"\x00"+h.Gen.String()+"\x00")
	oe.byDoc[id] = ownEngine{h: h, eng: eng}
	return eng, nil
}

// evalParts is one evaluation through an engine, split where the
// service splits it.
type evalParts struct {
	eval, count, drain time.Duration
	nodes              []tree.NodeID // the drained ids, valid until the next call
	counters           [4]int        // visited, jumps, memo hits, memo entries
	total              int           // full cardinality
}

// evalDrain evaluates query with strategy s on eng, reads the
// cardinality and drains up to want ids (everything when want <= 0) in
// chunks of bulkChunk: three sibling spans under parent.
func evalDrain(tr *tracer, eng *core.Engine, query string, s core.Strategy, want int, label string, parent, req int32, buf *[]tree.NodeID) (evalParts, error) {
	var p evalParts
	id := tr.begin(label, parent, req)
	cur, err := eng.EvalCursor(query, s)
	p.eval = tr.end(id)
	if err != nil {
		return p, err
	}
	defer cur.Close()
	p.count = tr.timed("core.cursor.count", parent, req, func() { p.total = cur.Count() })
	if want <= 0 || want > p.total {
		want = p.total
	}
	if cap(*buf) < want {
		*buf = make([]tree.NodeID, want)
	}
	out := (*buf)[:want]
	p.drain = tr.timed("core.cursor.nextbatch", parent, req, func() {
		for got := 0; got < want; {
			n := cur.NextBatch(out[got:min(got+bulkChunk, want)])
			if n == 0 {
				out = out[:got]
				break
			}
			got += n
		}
	})
	p.nodes = out
	p.counters = [4]int{cur.Visited(), cur.Jumps(), cur.MemoHits(), cur.MemoEntries()}
	return p, nil
}

// encodeReply times the JSON encoding the serving layer does for one
// reply carrying nodes: one Response for /query, header + chunks +
// trailer for a stream.
func encodeReply(tr *tracer, kind reqKind, doc, query string, nodes []tree.NodeID, parent, req int32) time.Duration {
	enc := json.NewEncoder(io.Discard)
	enc.SetEscapeHTML(false)
	return tr.timed("service.encode", parent, req, func() {
		if kind != kindStream {
			_ = enc.Encode(service.Response{Doc: doc, Query: query, Strategy: "optimized", Count: len(nodes), Nodes: nodes})
			return
		}
		_ = enc.Encode(service.StreamHeader{Doc: doc, Query: query, Strategy: "optimized", Count: len(nodes)})
		chunks := 0
		for i := 0; i < len(nodes); i += bulkChunk {
			_ = enc.Encode(service.StreamChunk{Nodes: nodes[i:min(i+bulkChunk, len(nodes))]})
			chunks++
		}
		_ = enc.Encode(service.StreamTrailer{Done: true, Chunks: chunks, Nodes: len(nodes)})
	})
}

// nsBatch is how many calls one span of a nanosecond-scale function
// covers, so the clock reads do not dominate the measurement.
const nsBatch = 64

// replayStats is what the traced replay yields besides its spans.
type replayStats struct {
	requests, reads, failed int
	drained, bodyBytes      int64 // node ids drained by the own engines; bytes the handler wrote for reads
}

// replay executes the request lists on one goroutine for at most budget
// or limit requests, alternating between the two connections' lists.
// Per read it records:
//
//	http.handler                         the request through service.NewHandler
//	├─ service.eval | service.stream     the same request through the Service
//	│  ├─ core.evalcursor.auto           Engine.EvalCursor on an engine of the benchmark's own
//	│  ├─ core.cursor.count              Cursor.Count
//	│  ├─ core.cursor.nextbatch          Cursor.NextBatch until the page is full
//	│  └─ service.encode                 (streams) header, chunks and trailer as JSON
//	└─ service.encode                    (/query) the Response as JSON
//	shard.route.x64, qcache.getorcompile.x64   64 calls each, outside the tree
//
// A PATCH is one childless http.handler span: the write path's layers
// are measured by the patch probe.
func replay(tr *tracer, w *workload, corp *corpus, ip *inproc, players []*player, budget time.Duration, limit int) (*replayStats, error) {
	rs := &replayStats{}
	rw := &memWriter{}
	engines := &ownEngines{st: ip.st, cache: qcache.New(256), byDoc: map[string]ownEngine{}}
	router := ip.st.Router()
	hitCache := qcache.New(256)
	var buf []tree.NodeID
	start := time.Now()
	for n := 0; n < limit && time.Since(start) < budget; n++ {
		pl := players[n%len(players)]
		r, pos := pl.next()
		method, path, body, ok := pl.render(r)
		if !ok {
			continue
		}
		req := int32(n)
		rs.requests++

		// Building the request stays outside the span: a socket client
		// pays for that on its own side.
		hreq, err := http.NewRequest(method, path, bytes.NewReader(body))
		if err != nil {
			return nil, err
		}
		rw.reset()
		hs := tr.begin("http.handler", -1, req)
		ip.handler.ServeHTTP(rw, hreq)
		tr.end(hs)
		if _, bad := pl.observe(r, pos, rw.status, rw.buf.Bytes()); bad {
			rs.failed++
		}
		if r.kind == kindPatch {
			continue
		}
		rs.reads++
		rs.bodyBytes += int64(rw.buf.Len())
		id, query := corp.ids[r.doc], w.queries[r.query]

		sreq := service.Request{Doc: id, Query: query, Limit: int(r.limit), Cursor: string(pl.cursor)}
		var ss int32
		if r.kind == kindStream {
			ss = tr.begin("service.stream", hs, req)
			if pre := ip.svc.Stream(io.Discard, sreq, bulkChunk); pre != nil {
				rs.failed++
			}
		} else {
			ss = tr.begin("service.eval", hs, req)
			if resp := ip.svc.Eval(sreq); resp.Err != "" {
				rs.failed++
			}
		}
		tr.end(ss)

		// Routing and a compiled-query cache hit are nanosecond-scale,
		// so one span covers nsBatch calls.
		tr.timed("shard.route.x64", -1, req, func() {
			for i := 0; i < nsBatch; i++ {
				_ = router.Shard(id)
			}
		})
		key := id + "\x00" + query
		tr.timed("qcache.getorcompile.x64", -1, req, func() {
			for i := 0; i < nsBatch; i++ {
				_, _, _ = hitCache.GetOrCompile(key, func() (any, error) { return query, nil })
			}
		})

		eng, err := engines.get(id)
		if err != nil {
			return nil, err
		}
		parts, err := evalDrain(tr, eng, query, core.Auto, wantNodes(r, corp.counts[r.doc][r.query]), "core.evalcursor.auto", ss, req, &buf)
		if err != nil {
			return nil, fmt.Errorf("trace: %q on %s: %w", query, id, err)
		}
		rs.drained += int64(len(parts.nodes))
		encodeParent := hs
		if r.kind == kindStream {
			encodeParent = ss // Stream encodes inside the service call
		}
		encodeReply(tr, r.kind, id, query, parts.nodes, encodeParent, req)
	}
	return rs, nil
}

// untraced replays reads through the handler with a bare clock pair
// and nothing else, for the tracing overhead.
func untraced(ip *inproc, players []*player, budget time.Duration, limit int) ([]float64, error) {
	rw := &memWriter{}
	var out []float64
	start := time.Now()
	for n := 0; n < limit && time.Since(start) < budget; n++ {
		pl := players[n%len(players)]
		r, pos := pl.next()
		method, path, body, ok := pl.render(r)
		if !ok {
			continue
		}
		hreq, err := http.NewRequest(method, path, bytes.NewReader(body))
		if err != nil {
			return nil, err
		}
		rw.reset()
		t0 := time.Now()
		ip.handler.ServeHTTP(rw, hreq)
		d := time.Since(t0)
		pl.observe(r, pos, rw.status, rw.buf.Bytes())
		if r.kind != kindPatch {
			out = append(out, us(d))
		}
	}
	return out, nil
}

// repeat runs fn up to maxReps times, stopping early once budget is
// spent, and returns the median duration in microseconds.
func repeat(maxReps int, budget time.Duration, fn func() time.Duration) float64 {
	var ds []float64
	start := time.Now()
	for i := 0; i < maxReps; i++ {
		ds = append(ds, us(fn()))
		if time.Since(start) > budget {
			break
		}
	}
	return median(ds)
}

func sum(vs []float64) float64 {
	s := 0.0
	for _, v := range vs {
		s += v
	}
	return s
}

// mean of vs; 0 when empty.
func mean(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	return sum(vs) / float64(len(vs))
}

// probeQueries measures, per distinct query of w on the first
// document: parsing, compilation, a cold evaluation, every forced
// strategy, a cursor seek, and a whole stream through the service.
func probeQueries(tr *tracer, w *workload, corp *corpus, ip *inproc, l *report) error {
	// The engines of the probes run on the generated first document, not
	// on whatever generation the replay's patches left resident, so the
	// counts repeat exactly from run to run.
	id := corp.ids[0]
	h := struct {
		Doc   *tree.Document
		Index *index.Index
	}{corp.docs[0], index.New(corp.docs[0])}
	const reps = 3
	budget := 400 * time.Millisecond
	var parse, asta, tdsta, cold, seek, streamSelf []float64
	byStrategy := map[core.Strategy][]float64{}
	var visited, jumps, memoHits, memoEntries, results float64
	warm := core.NewWithIndex(h.Doc, h.Index, qcache.New(256), "warm\x00")
	var buf []tree.NodeID
	for _, query := range w.queries {
		var p *xpath.Path
		var perr error
		parse = append(parse, repeat(reps, budget, func() time.Duration {
			return tr.timed("xpath.parse", -1, -1, func() { p, perr = xpath.Parse(query) })
		}))
		if perr != nil {
			return perr
		}
		asta = append(asta, repeat(reps, budget, func() time.Duration {
			return tr.timed("compile.toasta", -1, -1, func() { _, _ = compile.ToASTA(p, h.Doc.Names()) })
		}))
		// Not every query is in the deterministic fragment.
		if _, err := compile.ToTDSTA(p, h.Doc.Names()); err == nil {
			tdsta = append(tdsta, repeat(reps, budget, func() time.Duration {
				return tr.timed("compile.totdsta", -1, -1, func() { _, _ = compile.ToTDSTA(p, h.Doc.Names()) })
			}))
		}
		cold = append(cold, repeat(3, budget, func() time.Duration {
			eng := core.NewWithIndex(h.Doc, h.Index, qcache.New(16), "cold\x00")
			parts, _ := evalDrain(tr, eng, query, core.Auto, 1, "core.evalcursor.cold", -1, -1, &buf)
			return parts.eval
		}))

		// Forced strategies. The asta.* counts come from one Optimized
		// run on a fresh engine: for a fixed strategy, document and
		// query they repeat exactly.
		fresh := core.NewWithIndex(h.Doc, h.Index, qcache.New(16), "fresh\x00")
		parts, err := evalDrain(tr, fresh, query, core.Optimized, 1, "core.evalcursor.optimized.first", -1, -1, &buf)
		if err != nil {
			return err
		}
		visited += float64(parts.counters[0])
		jumps += float64(parts.counters[1])
		memoHits += float64(parts.counters[2])
		memoEntries += float64(parts.counters[3])
		results += float64(parts.total)
		for _, s := range []core.Strategy{core.Optimized, core.Hybrid, core.TopDownDet, core.Stepwise} {
			if _, err := evalDrain(tr, warm, query, s, 1, "core.evalcursor."+s.String()+".warmup", -1, -1, &buf); err != nil {
				continue // the strategy does not support this query
			}
			byStrategy[s] = append(byStrategy[s], repeat(reps, budget, func() time.Duration {
				parts, _ := evalDrain(tr, warm, query, s, 1, "core.evalcursor."+s.String(), -1, -1, &buf)
				return parts.eval + parts.count
			}))
		}

		// Seek to the middle of the answer, as a resumed page does.
		all, err := evalDrain(tr, warm, query, core.Optimized, 0, "core.evalcursor.optimized.all", -1, -1, &buf)
		if err != nil {
			return err
		}
		if len(all.nodes) >= 2 {
			mid := all.nodes[len(all.nodes)/2]
			seek = append(seek, repeat(reps, budget, func() time.Duration {
				cur, err := warm.EvalCursor(query, core.Optimized)
				if err != nil {
					return 0
				}
				defer cur.Close()
				return tr.timed("core.cursor.seekpast", -1, -1, func() { cur.SeekPast(mid) })
			}))
		}

		// A whole stream through the service, minus the engine's work
		// and the encoding, is what Stream itself costs.
		streamSelf = append(streamSelf, repeat(3, budget, func() time.Duration {
			ss := tr.begin("service.stream", -1, -1)
			ip.svc.Stream(io.Discard, service.Request{Doc: id, Query: query}, bulkChunk)
			total := tr.end(ss)
			parts, err := evalDrain(tr, warm, query, core.Auto, 0, "core.evalcursor.auto", ss, -1, &buf)
			if err != nil {
				return 0
			}
			enc := encodeReply(tr, kindStream, id, query, parts.nodes, ss, -1)
			return total - parts.eval - parts.count - parts.drain - enc
		}))
	}
	l.set("xpath.parse_us", mean(parse))
	l.set("compile.asta_us", mean(asta))
	l.set("compile.tdsta_us", mean(tdsta))
	l.set("core.evalcursor_cold_us", mean(cold))
	l.set("core.evalcursor_us.optimized", mean(byStrategy[core.Optimized]))
	l.set("core.evalcursor_us.hybrid", mean(byStrategy[core.Hybrid]))
	l.set("core.evalcursor_us.topdowndet", mean(byStrategy[core.TopDownDet]))
	l.set("core.evalcursor_us.stepwise", mean(byStrategy[core.Stepwise]))
	l.set("core.cursor_seekpast_us", mean(seek))
	l.set("service.stream_self_us", mean(streamSelf))
	l.set("asta.visited_per_result", ratio(visited, results))
	l.set("asta.visited_share", ratio(visited, float64(len(w.queries))*float64(h.Doc.NumNodes())))
	l.set("asta.jumps_per_req", ratio(jumps, float64(len(w.queries))))
	l.set("asta.memo_hit_ratio", ratio(memoHits, memoHits+memoEntries))
	return nil
}

// probeService measures EvalBatch of eight and the cost of explain mode
// on the first plain reads of the request list.
func probeService(tr *tracer, w *workload, corp *corpus, ip *inproc, list []request, l *report) {
	var reqs []service.Request
	for _, r := range list {
		if r.kind == kindQuery && r.from < 0 {
			reqs = append(reqs, service.Request{Doc: corp.ids[r.doc], Query: w.queries[r.query], Limit: int(r.limit)})
		}
		if len(reqs) == 64 {
			break
		}
	}
	if len(reqs) < 8 {
		return
	}
	l.set("service.batch8_us", repeat(9, time.Second, func() time.Duration {
		return tr.timed("service.evalbatch8", -1, -1, func() { ip.svc.EvalBatch(reqs[:8]) })
	}))
	// Explain on and off for the same request, back to back; the metric
	// is the median of the per-request ratios, so neither drift nor the
	// spread of query costs enters it.
	var ratios []float64
	for _, req := range reqs {
		plain := tr.timed("service.eval", -1, -1, func() { ip.svc.Eval(req) })
		req.Explain = true
		explained := tr.timed("service.eval.explain", -1, -1, func() { ip.svc.Eval(req) })
		ratios = append(ratios, ratio(float64(explained), float64(plain)))
	}
	l.set("obsv.explain_overhead_ratio", median(ratios))
}

// probeFormat measures, on the first document: XML parsing, index
// construction, the succinct view, the resident format's save and
// mapped open, and the bytes per node of tree and index at rest (which
// is also their resident size: mapped sections are used in place).
func probeFormat(tr *tracer, w *workload, corp *corpus, dir string, l *report) error {
	d0 := corp.docs[0]
	var text []byte
	if w.mapped {
		text = []byte(d0.XMLString())
	} else {
		var err error
		if text, err = os.ReadFile(corp.paths[0]); err != nil {
			return err
		}
	}
	budget := 500 * time.Millisecond
	var parsed *tree.Document
	var perr error
	parseUS := repeat(3, budget, func() time.Duration {
		return tr.timed("xmlparse.parse", -1, -1, func() { parsed, perr = xmlparse.Parse(text) })
	})
	if perr != nil {
		return perr
	}
	l.set("xmlparse.parse_mb_per_s", ratio(float64(len(text))/(1<<20), parseUS/1e6))
	var ix *index.Index
	l.set("index.new_ms", repeat(3, budget, func() time.Duration {
		return tr.timed("index.new", -1, -1, func() { ix = index.New(parsed) })
	})/1e3)
	var succ *tree.Succinct
	l.set("tree.succinct_build_ms", repeat(3, budget, func() time.Duration {
		return tr.timed("tree.newsuccinct", -1, -1, func() { succ = tree.NewSuccinct(parsed) })
	})/1e3)

	treeLayout, indexLayout := tree.NewLayoutWriter(), tree.NewLayoutWriter()
	tree.AddDocumentSections(treeLayout, parsed, succ)
	index.AddSections(indexLayout, ix)
	treeBytes, err := treeLayout.WriteTo(io.Discard)
	if err != nil {
		return err
	}
	indexBytes, err := indexLayout.WriteTo(io.Discard)
	if err != nil {
		return err
	}
	n := float64(parsed.NumNodes())
	l.set("tree.bytes_per_node", float64(treeBytes)/n)
	l.set("index.bytes_per_node", float64(indexBytes)/n)

	path := filepath.Join(dir, "probe.xqo2")
	var serr error
	l.set("store.savexqo2_ms", repeat(3, budget, func() time.Duration {
		return tr.timed("store.savexqo2file", -1, -1, func() { serr = store.SaveXQO2File(path, parsed) })
	})/1e3)
	if serr != nil {
		return serr
	}
	var oerr error
	l.set("store.openxqo2_us", repeat(5, budget, func() time.Duration {
		var m *mmapx.Mapping
		d := tr.timed("store.openxqo2", -1, -1, func() { _, _, _, m, oerr = store.OpenXQO2(path) })
		if m != nil {
			m.Close() // the reassembled document is dropped with it
		}
		return d
	}))
	return oerr
}

// probePatch measures the write path on the first document: a generated
// item is inserted, replaced and deleted three times over, each step
// once through Service.PatchDoc, once through store.Patch, and once
// through each pure function beneath.
func probePatch(tr *tracer, corp *corpus, r *rng, l *report) error {
	d0 := corp.docs[0]
	const id = "probe"
	ss := shard.NewStore(1)
	if _, err := ss.Add(id, d0, store.SourceDirect); err != nil {
		return err
	}
	svc := service.New(ss, service.Options{Workers: 1})
	ps := store.New()
	h, err := ps.Add(id, d0, store.SourceDirect)
	if err != nil {
		return err
	}
	h.Succinct() // build the view once, so every patch splices it forward
	regions, err := regionNodes(d0)
	if err != nil {
		return err
	}
	var patchDoc, storePatch, fragment, treeApply, indexApply, splice []float64
	item := tree.Nil
	for step := 0; step < 9; step++ {
		req := service.PatchDocRequest{Node: item}
		switch step % 3 {
		case 0:
			req.Op, req.Node, req.XML = "insert", regions[0], itemXML(r)
		case 1:
			req.Op, req.XML = "replace", itemXML(r)
		default:
			req.Op = "delete"
		}
		op, _ := tree.ParsePatchOp(req.Op)
		pt := tree.Patch{Op: op, Node: req.Node, Before: tree.Nil}
		outer := tr.begin("service.patchdoc", -1, -1)
		_, err := svc.PatchDoc(id, req)
		pd := tr.end(outer)
		if err != nil {
			return fmt.Errorf("patch probe: %w", err)
		}
		var fd time.Duration
		if req.XML != "" {
			var perr error
			fd = tr.timed("xmlparse.parse.fragment", outer, -1, func() { pt.Frag, perr = xmlparse.Parse([]byte(req.XML)) })
			if perr != nil {
				return perr
			}
			fragment = append(fragment, us(fd))
		}
		cur, _ := ps.Get(id)
		var next *tree.Document
		var dl *tree.Delta
		treeApply = append(treeApply, us(tr.timed("tree.document.apply", outer, -1, func() { next, dl, err = cur.Doc.Apply(pt) })))
		if err != nil {
			return fmt.Errorf("patch probe: %w", err)
		}
		indexApply = append(indexApply, us(tr.timed("index.apply", outer, -1, func() { index.Apply(cur.Index, next, dl) })))
		old := cur.Succinct()
		splice = append(splice, us(tr.timed("tree.splicesuccinct", outer, -1, func() { tree.SpliceSuccinct(old, next, dl) })))
		var sd time.Duration
		sd = tr.timed("store.patch", outer, -1, func() { _, err = ps.Patch(id, store.NoGen, pt) })
		if err != nil {
			return fmt.Errorf("patch probe: %w", err)
		}
		storePatch = append(storePatch, us(sd))
		patchDoc = append(patchDoc, us(pd-sd-fd))
		item = dl.At
	}
	l.set("service.patchdoc_self_us", median(patchDoc))
	l.set("store.patch_us", median(storePatch))
	l.set("xmlparse.fragment_us", median(fragment))
	l.set("tree.apply_us", median(treeApply))
	l.set("index.apply_us", median(indexApply))
	l.set("tree.succinct_splice_us", median(splice))
	return nil
}

// traceBudget bounds the in-process part of a traced run.
type traceBudget struct {
	replay, untraced time.Duration
	requests         int
}

// runTrace is the traced run of w: a short socket run for the metrics
// that only the daemon's own counters give (source S), then the
// in-process replay and probes (source T). It returns every per-layer
// metric.
func runTrace(w *workload, cfg runConfig, tb traceBudget) (*outcome, error) {
	in, err := generate(w, cfg)
	if err != nil {
		return nil, err
	}
	defer cfg.jan.removeDir(in.tmp)
	corp, lists := in.corp, in.lists
	once := *w
	once.setupReps = 1
	out, err := runSocket(&once, cfg, corp, lists)
	if err != nil {
		return nil, err
	}

	fmt.Fprintf(cfg.progress, "%s: in-process traced replay\n", w.name)
	ip, err := loadInproc(w, corp)
	if err != nil {
		return nil, err
	}
	var wl *writeLog
	if w.writes {
		wl = newWriteLog(w.docs)
		// Learn the starting generations as the pre-check does.
		for d, id := range corp.ids {
			resp := ip.svc.Eval(service.Request{Doc: id, Query: w.queries[0], Limit: 1})
			if resp.Err != "" {
				return nil, fmt.Errorf("trace: %s", resp.Err)
			}
			// String is the sanctioned way out of an opaque generation;
			// the driver keeps the wire form's number for identity only.
			gen, err := strconv.ParseUint(resp.Gen.String(), 10, 64)
			if err != nil {
				return nil, err
			}
			wl.states[d][gen] = 0
		}
	}
	players := []*player{newPlayer(w, corp, lists[0], wl), newPlayer(w, corp, lists[1], wl)}
	tr := newTracer()
	rs, err := replay(tr, w, corp, ip, players, tb.replay, tb.requests)
	if err != nil {
		return nil, err
	}
	bare, err := untraced(ip, players, tb.untraced, tb.requests)
	if err != nil {
		return nil, err
	}
	for _, pl := range players {
		if pl.wl != nil {
			rs.failed += pl.settle()
		}
	}
	out.attempted += rs.requests
	out.failed += rs.failed

	// Reads only: a PATCH has no children in the trace, so nested leaves
	// it out. Shares are of the time reads spent in the handler.
	handler, handlerSelf := tr.nested("http.handler")
	_, evalSelf := tr.nested("service.eval")
	evalAuto := tr.durations("core.evalcursor.auto")
	drain, encode := sum(tr.durations("core.cursor.nextbatch")), sum(tr.durations("service.encode"))
	l := out.layers
	l.set("net.socket_self_us", out.openP50*1e6-median(tr.durations("http.handler")))
	l.set("http.handler_us", median(handler))
	l.set("http.handler_self_us", median(handlerSelf))
	l.set("service.eval_self_us", median(evalSelf))
	l.set("service.encode_us", median(tr.durations("service.encode")))
	l.set("service.encode_bytes_per_req", ratio(float64(rs.bodyBytes), float64(rs.reads)))
	l.set("shard.route_ns", median(tr.durations("shard.route.x64"))*1e3/nsBatch)
	l.set("qcache.getorcompile_hit_ns", median(tr.durations("qcache.getorcompile.x64"))*1e3/nsBatch)
	l.set("core.evalcursor_us.auto", median(evalAuto))
	l.set("core.evalcursor_share", ratio(sum(evalAuto), sum(handler)))
	l.set("core.cursor_drain_ns_per_node", ratio(drain*1e3, float64(rs.drained)))
	l.set("service.encode_drain_share", ratio(encode+drain, sum(handler)))
	l.set("bench.trace_overhead_ratio", ratio(median(handler), median(bare)))

	if err := probeQueries(tr, w, corp, ip, l); err != nil {
		return nil, err
	}
	probeService(tr, w, corp, ip, lists[0], l)
	if err := probeFormat(tr, w, corp, in.tmp, l); err != nil {
		return nil, err
	}
	if err := probePatch(tr, corp, in.rng.fork("probe"), l); err != nil {
		return nil, err
	}
	// Every per-layer metric is reported on every workload; one that
	// has nothing to measure there (write latency without writes) is 0.
	for _, d := range perLayer {
		if _, ok := l.values[d.name]; !ok {
			l.set(d.name, 0)
		}
	}
	path := filepath.Join(cfg.outDir, w.name+".trace.json")
	if err := tr.write(path, w.name, cfg.seed); err != nil {
		return nil, err
	}
	fmt.Fprintf(cfg.progress, "%s: %d spans written to %s\n", w.name, len(tr.spans), path)
	return out, nil
}
