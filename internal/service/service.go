// Package service is the long-lived query-serving layer over the
// engine: one document store, one compiled-query LRU, one context pool
// and one set of metrics, shared by every request. It is the
// amortization layer the paper's
// whole-query optimization assumes — compile once, evaluate many times
// — extended across many resident documents and concurrent clients.
package service

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/obsv"
	"repro/internal/qcache"
	"repro/internal/shard"
	"repro/internal/store"
	"repro/internal/tree"
	"repro/internal/xmlparse"
)

// ErrNoDocument is wrapped by Eval errors for queries against ids not
// resident in the store; the HTTP layer maps it to 404.
var ErrNoDocument = errors.New("no such document")

// DefaultCacheSize is the compiled-query LRU's entry bound when Options
// does not choose one. It is what four 256-entry partitions held
// between them. One 256-entry LRU let point-lookup's automata churn
// while each of its 256 documents had a label table of its own; they
// now share one, and compile each query once (DESIGN.md "One
// partition").
const DefaultCacheSize = 1024

// Options configures a Service.
type Options struct {
	// CacheSize bounds the compiled-query LRU (entries); <= 0 means
	// DefaultCacheSize.
	CacheSize int
	// Workers sizes the batch worker pool; <= 0 means GOMAXPROCS.
	Workers int
	// SlowQuery is the flight recorder's slow-query threshold: queries
	// at or above it are flagged in /debug/queries and logged at Warn.
	// 0 disables slow flagging.
	SlowQuery time.Duration
	// Logger receives structured query logs (slow queries at Warn,
	// per-query records at Debug); nil means slog.Default().
	Logger *slog.Logger
	// CursorTTL bounds how long an unredeemed continuation token keeps
	// its document generation alive (the MVCC lease horizon); <= 0 means
	// DefaultCursorTTL.
	CursorTTL time.Duration
}

// DefaultCursorTTL is the continuation-token lease lifetime when
// Options does not choose one: long enough for an interactive page
// loop, short enough that abandoned tokens don't pin retired
// generations indefinitely.
const DefaultCursorTTL = 60 * time.Second

// Service serves queries over the documents resident in its store,
// keeping the warm state of those documents — each piece under what it
// is a function of, so that no patch, retirement or eviction has to
// purge any of it. All methods are safe for concurrent use.
type Service struct {
	store *store.Store
	// cache holds compiled automata under their label table's id, pool
	// accounts the warm contexts parked on them (see core.Engine).
	cache *qcache.Cache
	pool  *core.Pool

	metrics   metrics
	workers   int
	flight    *obsv.Flight
	logger    *slog.Logger
	started   time.Time
	cursorTTL time.Duration
	// allocs0 is the process's cumulative heap-allocation count when
	// the service was built; /stats reports the delta per query as the
	// observed steady-state allocs/op.
	allocs0 uint64
}

// heapAllocObjects reads the runtime's cumulative heap allocation
// counter (objects, not bytes), process wide.
func heapAllocObjects() uint64 {
	n, _ := runtimeUint64("/gc/heap/allocs:objects")
	return n
}

// New builds a service around a (possibly pre-populated) store.
func New(ss *shard.Store, opts Options) *Service {
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	logger := opts.Logger
	if logger == nil {
		logger = slog.Default()
	}
	ttl := opts.CursorTTL
	if ttl <= 0 {
		ttl = DefaultCursorTTL
	}
	size := opts.CacheSize
	if size <= 0 {
		size = DefaultCacheSize
	}
	return &Service{
		store:     ss.Store,
		cache:     qcache.New(size),
		pool:      new(core.Pool),
		workers:   workers,
		flight:    obsv.NewFlight(obsv.DefaultFlightRecords, opts.SlowQuery),
		logger:    logger,
		started:   time.Now(),
		cursorTTL: ttl,
		allocs0:   heapAllocObjects(),
	}
}

// Store exposes the underlying document store (loads may bypass the
// service; engines attach lazily at first query).
func (s *Service) Store() *store.Store { return s.store }

// Flight exposes the always-on query flight recorder (the /debug/queries
// data source).
func (s *Service) Flight() *obsv.Flight { return s.flight }

// engine returns an engine over one generation of a resident document:
// the handle's tree and index bound to the service's cache and pool.
func (s *Service) engine(h *store.Handle) *core.Engine {
	return core.NewShared(h.Doc, h.Index, s.cache, s.pool)
}

// EvictDoc removes a document from the store. Nothing else is swept: its
// automata and their warm contexts are keyed by its label table, which
// every document with the same names shares. They stay warm for those,
// or go cold and leave by the LRU. It reports whether the document was
// resident.
func (s *Service) EvictDoc(docID string) bool {
	return s.store.Evict(docID)
}

// PatchDocRequest is one subtree mutation of a resident document (the
// body of PATCH /docs/{id}).
type PatchDocRequest struct {
	// Op is "insert", "delete" or "replace".
	Op string `json:"op"`
	// Node is the patch target: the subtree root to delete or replace,
	// or the parent element receiving an insert.
	Node tree.NodeID `json:"node"`
	// Before (insert only) is the existing child of Node the fragment is
	// inserted before; omitted appends after the last child.
	Before *tree.NodeID `json:"before,omitempty"`
	// XML is the grafted fragment (insert/replace): one element.
	XML string `json:"xml,omitempty"`
	// BaseGen, when non-zero, makes the patch conditional: it applies
	// only while BaseGen is still the latest generation (optimistic
	// concurrency; HTTP 409 on conflict).
	BaseGen store.Gen `json:"base_gen,omitzero"`
}

// PatchDoc applies one subtree mutation, publishing a new MVCC
// generation of the document with incrementally maintained indexes.
// Readers of older generations (open cursors, asof queries) are
// untouched. Returns the new generation's stats.
func (s *Service) PatchDoc(docID string, req PatchDocRequest) (store.Stats, error) {
	op, ok := tree.ParsePatchOp(req.Op)
	if !ok {
		return store.Stats{}, fmt.Errorf("service: unknown patch op %q (want insert, delete or replace)", req.Op)
	}
	pt := tree.Patch{Op: op, Node: req.Node, Before: tree.Nil}
	if req.Before != nil {
		pt.Before = *req.Before
	}
	if req.XML != "" {
		frag, err := xmlparse.Parse([]byte(req.XML))
		if err != nil {
			return store.Stats{}, fmt.Errorf("service: parsing patch fragment: %w", err)
		}
		pt.Frag = frag
	}
	h, err := s.store.Patch(docID, req.BaseGen, pt)
	if err != nil {
		return store.Stats{}, err
	}
	return h.Stats, nil
}

// Request is one query against one resident document.
type Request struct {
	// Doc is the document id in the store.
	Doc string `json:"doc"`
	// Query is the XPath text.
	Query string `json:"query"`
	// Strategy names an execution strategy; empty means auto.
	Strategy string `json:"strategy,omitempty"`
	// Paths asks for the label path of each selected node.
	Paths bool `json:"paths,omitempty"`
	// Limit caps the returned node list (0 = all remaining); Count
	// always reports the full cardinality. When the limit cuts the
	// answer short the Response carries a continuation token in Next.
	Limit int `json:"limit,omitempty"`
	// Cursor resumes a paged answer: the opaque Next token of the
	// previous page. The token pins the document generation, and holds a
	// store lease on that generation, so the page loop keeps reading the
	// tree it started on even while the document is patched underneath
	// it. The resume fails with a stale-cursor error (HTTP 410) only once
	// the pinned generation is actually gone — garbage-collected after
	// the lease expired, evicted, reloaded, or the daemon restarted.
	Cursor string `json:"cursor,omitempty"`
	// AsOf pins the query to one MVCC generation of the document (a Gen
	// from an earlier response) instead of the latest — time travel
	// across patches, for as long as that generation stays live. Zero
	// means latest. The HTTP layer also sets it from ?asof=.
	AsOf store.Gen `json:"asof,omitzero"`
	// Explain asks for an EXPLAIN-ANALYZE-style profile of this query:
	// the Response (or stream trailer) carries a span tree with
	// per-phase timings and engine counters. The HTTP layer also sets
	// it from ?explain=1.
	Explain bool `json:"explain,omitempty"`
	// RequestID tags the query in logs, flight records and explain
	// profiles. The HTTP layer fills it (X-Request-Id or generated);
	// it never comes from the request body.
	RequestID string `json:"-"`
}

// Response is the outcome of one Request.
type Response struct {
	Doc      string `json:"doc"`
	Query    string `json:"query"`
	Strategy string `json:"strategy,omitempty"`
	// Gen is the MVCC generation the answer was computed against; pass
	// it back as AsOf to keep reading this exact tree across patches.
	Gen store.Gen `json:"gen,omitzero"`
	// Count is the full answer cardinality, even when Nodes is truncated.
	Count int           `json:"count"`
	Nodes []tree.NodeID `json:"nodes"`
	Paths []string      `json:"paths,omitempty"`
	// Visited counts nodes touched by the run — the paper's measure of
	// how little of the document the optimized evaluation looks at.
	Visited   int    `json:"visited"`
	ElapsedUS int64  `json:"elapsed_us"`
	Err       string `json:"error,omitempty"`
	// Next is the opaque continuation token for the next page; empty
	// when the answer is exhausted.
	Next string `json:"next,omitempty"`
	// Explain is the span-tree profile, present when the request asked
	// for one.
	Explain *obsv.Profile `json:"explain,omitempty"`
	// outcome is how the request ended, an obsv.Outcome* value set where
	// the ending is classified. statusFor, the metrics, the flight
	// record and the log line all read it.
	outcome string
}

// evalState is one request in flight: prepare fills it, Eval or Stream
// reads the answer through it, deliver settles it.
type evalState struct {
	// resp accumulates the outcome; on failure resp.Err is set and cur
	// is nil.
	resp Response
	cur  *core.Cursor
	// h is the pinned generation the answer is read from; nil once
	// unpin has dropped the pin (or before prepare took it).
	h *store.Handle
	// fromCursor marks a resumed request: on successful consumption the
	// incoming token's lease on resp.Gen is redeemed.
	fromCursor bool
	// sent and last are the nodes delivered so far and the final one of
	// them — where a successor token resumes.
	sent int
	last tree.NodeID
	// streamed marks a Stream request, and tally is what its body
	// delivered; finish counts it.
	streamed bool
	tally    streamTally
	timer    timer
	// tr is non-nil for explained requests; root is its open
	// whole-request span.
	tr   *obsv.Trace
	root int8
}

// prepare runs the shared front half of Eval and Stream into st:
// strategy parsing, cursor-token validation (the document must match;
// the token's generation becomes the target), generation-pinned handle
// lookup, engine lookup, evaluation, and seeking to the resume
// position. On failure it reports false, st.resp.Err and its outcome
// are set and nothing is pinned; on success resp carries
// Gen/Strategy/Count/Visited and st holds a store pin on resp.Gen,
// which deliver releases. The pin is recorded in st.h as soon as it is
// taken, so a panic past that point still finds it (contain).
func (s *Service) prepare(st *evalState, req Request) bool {
	st.resp = Response{Doc: req.Doc, Query: req.Query, outcome: obsv.OutcomeOK}
	st.timer = startTimer()
	if req.Explain {
		// The trace is pooled and its methods are nil-safe, so the
		// non-explain path pays one nil check per phase.
		st.tr = obsv.NewTrace()
		st.root = st.tr.Begin(obsv.SpanQuery)
	}
	// fail is every error exit: spans still open are settled by Profile.
	fail := func(outcome, format string, args ...any) bool {
		st.resp.outcome, st.resp.Err = outcome, fmt.Sprintf(format, args...)
		return false
	}
	strat, ok := core.ParseStrategy(req.Strategy)
	if !ok {
		return fail(obsv.OutcomeError, "unknown strategy %q", req.Strategy)
	}
	// The target generation: the cursor token's, an explicit asof, or
	// zero for latest.
	tgen := req.AsOf
	var after tree.NodeID
	if req.Cursor != "" {
		sp := st.tr.Begin(obsv.SpanCursor)
		cdoc, cgen, clast, err := decodeCursor(req.Cursor)
		switch {
		case errors.Is(err, errEarlierCursor):
			return fail(obsv.OutcomeStaleCursor, "%v", err)
		case err != nil:
			return fail(obsv.OutcomeError, "%v", err)
		case cdoc != req.Doc:
			return fail(obsv.OutcomeError, "cursor is for document %q, not %q", cdoc, req.Doc)
		case req.AsOf != store.NoGen && req.AsOf != cgen:
			return fail(obsv.OutcomeError, "cursor pins generation %s but the request asks asof %s", cgen, req.AsOf)
		}
		tgen, after = cgen, clast
		st.fromCursor = true
		st.tr.End(sp)
	}
	sp := st.tr.Begin(obsv.SpanEngine)
	// The pin is taken with the lookup and held until deliver has placed
	// the successor token's lease: a PATCH landing while this request
	// runs cannot retire the generation the token will name.
	h, err := s.store.Acquire(req.Doc, tgen)
	if err != nil {
		st.tr.End(sp)
		switch {
		case errors.Is(err, store.ErrNotFound):
			return fail(obsv.OutcomeNotFound, "service: %v: %q", ErrNoDocument, req.Doc)
		case st.fromCursor:
			return fail(obsv.OutcomeStaleCursor, "stale cursor: generation %s of document %q is gone (patched away, evicted, or the cursor lease expired)", tgen, req.Doc)
		}
		return fail(obsv.OutcomeStaleCursor, "generation %s of document %q is gone (no live cursor or lease kept it)", tgen, req.Doc)
	}
	st.h = h
	eng := s.engine(h)
	st.tr.End(sp)
	st.resp.Gen = h.Gen
	cur, err := eng.EvalCursorTrace(req.Query, strat, st.tr)
	if err != nil {
		s.unpin(st, time.Time{}, false)
		st.resp.ElapsedUS = st.timer.elapsedMicros()
		return fail(obsv.OutcomeError, "%v", err)
	}
	st.cur = cur
	if st.fromCursor {
		sp = st.tr.Begin(obsv.SpanSeek)
		cur.SeekPast(after)
		st.tr.End(sp)
	}
	st.resp.Strategy = cur.Run().Strategy
	st.resp.Count = cur.Count()
	st.resp.Visited = cur.Visited()
	return true
}

// unpin drops the pin prepare took, if it is still held, settling the
// request's cursor leases with it (store.Release).
func (s *Service) unpin(st *evalState, lease time.Time, redeem bool) {
	if st.h != nil {
		s.store.Release(st.h.ID, st.h.Gen, lease, redeem)
		st.h = nil
	}
}

// contain is where a panic in one request stops, so that it costs that
// request and nothing else: not the process, not the other members of
// a /batch, not the generation the request pinned. Eval and Stream
// defer it. It drops the pin, logs the panic value and stack at Error
// under the request id, writes the one flight record, with outcome
// panic and the run the request got as far as, and only then turns the
// response into a generic failure (HTTP 500); finish also releases the
// pooled trace. A context the evaluator had checked out when it
// panicked is not parked again: the GC takes it.
func (s *Service) contain(st *evalState, req *Request, v any) {
	s.unpin(st, time.Time{}, false)
	s.logger.LogAttrs(context.Background(), slog.LevelError, "query panicked",
		slog.String("req_id", req.RequestID),
		slog.String("doc", req.Doc),
		slog.String("query", req.Query),
		slog.String("panic", fmt.Sprint(v)),
		slog.String("stack", string(debug.Stack())),
	)
	st.resp.outcome, st.resp.Err = obsv.OutcomePanic, fmt.Sprintf("panic: %v", v)
	s.finish(st, req)
	st.resp = Response{Doc: req.Doc, Query: req.Query, Err: "internal error", outcome: obsv.OutcomePanic}
}

// explain settles the request trace into its Profile and releases the
// trace; nil for non-explained requests. Runs once, after every phase
// span has ended (the stream path calls it before the trailer write so
// the profile travels in-band).
func (s *Service) explain(st *evalState, req *Request) *obsv.Profile {
	if st.tr == nil {
		return nil
	}
	c := obsv.Counters{Selected: st.resp.Count}
	if cur := st.cur; cur != nil {
		c.Run, c.AutoShape = cur.Run(), cur.AutoShape()
	}
	st.tr.End(st.root)
	p := st.tr.Profile(req.RequestID, c)
	obsv.ReleaseTrace(st.tr)
	st.tr = nil
	return p
}

// finish closes out one request, whatever its outcome: the query
// metrics, a flight-recorder entry and a structured log line — slow
// queries at Warn, everything else at Debug. A request whose engine ran
// and whose answer went out, whole or until the client left, counts as
// a query; any other ending as an error.
func (s *Service) finish(st *evalState, req *Request) {
	resp := &st.resp
	if st.tr != nil {
		// The profile was never delivered (e.g. the stream aborted
		// before the trailer); don't leak the pooled trace.
		obsv.ReleaseTrace(st.tr)
		st.tr = nil
	}
	elapsed := resp.ElapsedUS
	if elapsed == 0 {
		elapsed = st.timer.elapsedMicros()
	}
	rec := obsv.Record{
		Time:      st.timer.start,
		RequestID: req.RequestID,
		Doc:       req.Doc,
		Query:     req.Query,
		Outcome:   resp.outcome,
		Err:       resp.Err,
		ElapsedUS: elapsed,
		Sent:      st.sent,
		Count:     resp.Count,
		Streamed:  st.streamed,
	}
	if st.cur != nil {
		rec.Run = st.cur.Run()
	}
	switch resp.outcome {
	case obsv.OutcomeOK, obsv.OutcomeAborted:
		s.metrics.record(rec.Strategy, elapsed, rec.Visited, rec.Count)
		if st.streamed {
			s.metrics.recordStream(st.tally, st.sent)
		}
	default:
		s.metrics.recordError()
	}
	slow := s.flight.Add(&rec)
	level := slog.LevelDebug
	msg := "query"
	if slow {
		level, msg = slog.LevelWarn, "slow query"
	}
	if !s.logger.Enabled(context.Background(), level) {
		return
	}
	s.logger.LogAttrs(context.Background(), level, msg,
		slog.String("req_id", req.RequestID),
		slog.String("doc", req.Doc),
		slog.String("query", req.Query),
		slog.String("strategy", rec.Strategy),
		slog.String("outcome", rec.Outcome),
		slog.String("err", rec.Err),
		slog.Int64("elapsed_us", elapsed),
		slog.Int("sent", st.sent),
		slog.Int("count", rec.Count),
		slog.Int("visited", rec.Visited),
		slog.Bool("qcache_hit", rec.QCacheHit),
		slog.Bool("ctx_pool_hit", rec.CtxPoolHit),
		slog.Bool("streamed", st.streamed),
	)
}

// deliver is the one back half of Eval and Stream, run once the page or
// stream body is out (or could not be): settle, then finish.
func (s *Service) deliver(st *evalState, req *Request) {
	s.settle(st, req)
	s.finish(st, req)
}

// settle is deliver's first half: page cut → successor token and its
// lease → redeem the incoming token → drop the pin → explain profile.
// Stream runs it before its trailer, which carries the token and the
// profile, and finishes only once the trailer is out, so a panic in that
// write is the request's one record. Three endings share it:
//
//   - prepare failed (st.cur is nil): nothing is pinned; the outcome is
//     the error's class.
//   - the stream lost its client (outcome aborted): the evaluation ran,
//     so it counts as a query, but no token is issued and the incoming
//     one is not redeemed — the client may retry it until its lease
//     expires.
//   - delivered: a non-empty remainder means the answer was cut short,
//     so a resumption token pinned to the generation goes out. Its
//     lease is placed, the consumed token's lease is redeemed and the
//     pin dropped in one store critical section (store.Release) — the
//     pin held since prepare's lookup is what guarantees the generation
//     is still there to lease.
func (s *Service) settle(st *evalState, req *Request) {
	resp := &st.resp
	aborted := resp.outcome == obsv.OutcomeAborted
	if st.cur != nil {
		var lease time.Time
		if st.cur.Remaining() > 0 && st.sent > 0 && !aborted {
			resp.Next = encodeCursor(req.Doc, resp.Gen, st.last)
			lease = time.Now().Add(s.cursorTTL)
		}
		s.unpin(st, lease, st.fromCursor && !aborted)
		resp.ElapsedUS = st.timer.elapsedMicros()
	}
	if !aborted {
		resp.Explain = s.explain(st, req)
	}
}

// Eval evaluates one request, returning at most Limit nodes (all
// remaining when Limit <= 0) from the resume position, plus a Next
// token when the answer has more pages. A panic while it runs is
// contained: the response is a generic 500-class failure.
func (s *Service) Eval(req Request) (out Response) {
	var st evalState
	defer func() {
		if v := recover(); v != nil {
			s.contain(&st, &req, v)
			out = st.resp
		}
	}()
	if !s.prepare(&st, req) {
		s.deliver(&st, &req)
		return st.resp
	}
	resp := &st.resp
	sp := st.tr.Begin(obsv.SpanPage)
	// The page is a window of the cursor's answer, which the cursor owns.
	n := req.Limit
	if n <= 0 {
		n = st.cur.Remaining()
	}
	nodes := st.cur.Take(n)
	if nodes == nil {
		nodes = []tree.NodeID{} // an empty page encodes as [], not null
	}
	if len(nodes) > 0 {
		st.last = nodes[len(nodes)-1]
	}
	st.sent = len(nodes)
	resp.Nodes = nodes
	if req.Paths {
		resp.Paths = make([]string, len(nodes))
		for i, v := range nodes {
			resp.Paths[i] = st.h.Doc.Path(v)
		}
	}
	st.tr.End(sp)
	s.deliver(&st, &req)
	return st.resp
}

// EvalBatch fans the requests across the worker pool and returns the
// responses in request order. Individual failures land in the matching
// Response.Err, panics included (Eval contains them); the batch itself
// never fails.
func (s *Service) EvalBatch(reqs []Request) []Response {
	out := make([]Response, len(reqs))
	if len(reqs) == 0 {
		return out
	}
	workers := s.workers
	if workers > len(reqs) {
		workers = len(reqs)
	}
	if workers <= 1 {
		for i, r := range reqs {
			out[i] = s.Eval(r)
		}
		return out
	}
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				out[i] = s.Eval(reqs[i])
			}
		}()
	}
	for i := range reqs {
		idx <- i
	}
	close(idx)
	wg.Wait()
	return out
}

// Stats is a point-in-time snapshot of the service.
type Stats struct {
	Documents []store.Stats `json:"documents"`
	// DocBytes estimates the resident bytes of the documents plus their
	// jumping indexes and their label tables, each table once however
	// many documents share it; ResidentBytes adds the compiled-query
	// cache.
	DocBytes      int64        `json:"doc_bytes"`
	ResidentBytes int64        `json:"resident_bytes"`
	Cache         qcache.Stats `json:"cache"`
	CacheHitRate  float64      `json:"cache_hit_rate"`
	Queries       QueryStats   `json:"queries"`
	// Pool is the evaluation-context pool: hit rate is the fraction of
	// queries served by a warm, allocation-free context, ArenaBytes the
	// scratch memory the parked contexts keep resident.
	Pool        core.PoolStats `json:"ctx_pool"`
	PoolHitRate float64        `json:"ctx_pool_hit_rate"`
	// Auto is what cmd/xpqbench reads from when Auto re-measured engines
	// at run time. It routes by the query alone now and explores
	// nothing, so the rate is 0.
	Auto struct {
		ExplorationRate float64 `json:"exploration_rate"`
	} `json:"auto"`
	// MVCC reports the generation chains: live and pinned generations,
	// patches applied, generations retired. Taking the snapshot sweeps
	// expired cursor leases, so stats/metrics scraping doubles as the
	// lease janitor.
	MVCC store.MVCCStats `json:"mvcc"`
	// Mapped reports the mmap-backed documents: the bytes of the files
	// behind the generations the store holds, and a map-fault count
	// that reads 0 (kept for cmd/xpqbench).
	Mapped store.MappedStats `json:"mapped"`
	// HeapAllocObjects is the process's cumulative heap allocations
	// since the service started; AllocsPerQuery divides it by the
	// query total — the observed (process-wide, so conservative)
	// steady-state allocs/op. Warm context pooling should hold this
	// near the floor set by response assembly rather than evaluation.
	HeapAllocObjects uint64  `json:"heap_alloc_objects"`
	AllocsPerQuery   float64 `json:"allocs_per_query_estimate"`
	// Shards is the store as cmd/xpqbench reads it, from when it was
	// partitioned and requests took an engine-table lock: one entry,
	// repeating DocBytes, and lock fields that are 0 — nothing waits.
	Shards [1]struct {
		DocBytes        int64  `json:"doc_bytes"`
		LockWaitTotalNS int64  `json:"lock_wait_total_ns"`
		LockAcquires    uint64 `json:"lock_acquires"`
	} `json:"shards"`
}

// Stats snapshots the store, cache, pool and query counters.
func (s *Service) Stats() Stats {
	out := Stats{
		Documents: s.store.List(),
		Cache:     s.cache.Stats(),
		Queries:   s.metrics.snapshot(),
		Pool:      s.pool.Stats(),
		MVCC:      s.store.MVCC(),
		Mapped:    s.store.Mapped(),
	}
	out.DocBytes = store.DocBytes(out.Documents)
	out.ResidentBytes = out.DocBytes + out.Cache.SizeBytes
	out.CacheHitRate = out.Cache.HitRate()
	out.PoolHitRate = out.Pool.HitRate()
	if now := heapAllocObjects(); now > s.allocs0 {
		out.HeapAllocObjects = now - s.allocs0
		if out.Queries.Total > 0 {
			out.AllocsPerQuery = float64(out.HeapAllocObjects) / float64(out.Queries.Total)
		}
	}
	out.Shards[0].DocBytes = out.DocBytes
	return out
}
