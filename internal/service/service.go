// Package service is the long-lived query-serving layer over the
// engine: one document store, one compiled-query LRU, one context pool,
// one table of per-document Auto selectors and one set of metrics,
// shared by every request. It is the amortization layer the paper's
// whole-query optimization assumes — compile once, evaluate many times
// — extended across many resident documents and concurrent clients.
package service

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"runtime"
	"sync"
	"sync/atomic"
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
// between them; one 256-entry LRU let point-lookup's automata churn
// (DESIGN.md "One partition").
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

	// engines holds what is kept per resident document, the Auto
	// selector, by document id and for one load incarnation
	// (store.Handle.Epoch): it survives every patch and starts over when
	// the id is evicted and loaded again. An entry references no
	// document, so one left behind by an eviction that bypassed EvictDoc
	// pins nothing.
	mu      sync.Mutex
	engines map[string]docEngine
	// retiredAuto holds the counters of selectors dropped from the table
	// (dropEngine), so no counter derived from them ever decreases. It
	// starts with the selector's config, which a service without
	// documents reports from it.
	retiredAuto core.SelectorStats

	// Lock-wait accounting for mu: how long engine lookups queued behind
	// other requests, surfaced in /stats.
	lockWaitNS    atomic.Int64
	lockWaitMaxNS atomic.Int64
	lockAcquires  atomic.Uint64

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

// docEngine is the per-document part of an engine; the rest belongs to
// the service or to the generation queried.
type docEngine struct {
	epoch uint64
	auto  *core.Selector
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
		store:       ss.Store,
		cache:       qcache.New(size),
		pool:        new(core.Pool),
		engines:     make(map[string]docEngine),
		retiredAuto: core.SelectorStats{Adaptive: core.DefaultAutoConfig().Adaptive},
		workers:     workers,
		flight:      obsv.NewFlight(obsv.DefaultFlightRecords, opts.SlowQuery),
		logger:      logger,
		started:     time.Now(),
		cursorTTL:   ttl,
		allocs0:     heapAllocObjects(),
	}
}

// Store exposes the underlying document store (loads may bypass the
// service; engines attach lazily at first query).
func (s *Service) Store() *store.Store { return s.store }

// Flight exposes the always-on query flight recorder (the /debug/queries
// data source).
func (s *Service) Flight() *obsv.Flight { return s.flight }

// lock acquires the engine-table mutex, accounting the wait.
func (s *Service) lock() {
	start := time.Now()
	s.mu.Lock()
	w := time.Since(start).Nanoseconds()
	s.lockAcquires.Add(1)
	s.lockWaitNS.Add(w)
	for {
		cur := s.lockWaitMaxNS.Load()
		if w <= cur || s.lockWaitMaxNS.CompareAndSwap(cur, w) {
			return
		}
	}
}

// engine returns an engine over one generation of a resident document:
// the handle's tree and index bound to the service's cache and pool and
// to the document's selector, which is created at the first query of a
// load incarnation. (A reader that outlived its document's eviction and
// reload uses the reload's selector; its one observation is noise.)
func (s *Service) engine(h *store.Handle) *core.Engine {
	s.lock()
	ent, ok := s.engines[h.ID]
	if !ok || ent.epoch < h.Epoch {
		s.dropEngine(h.ID)
		ent = docEngine{epoch: h.Epoch, auto: core.NewSelector(core.DefaultAutoConfig())}
		s.engines[h.ID] = ent
	}
	s.mu.Unlock()
	return core.NewShared(h.Doc, h.Index, s.cache, s.pool, ent.auto)
}

// dropEngine removes a document's selector from the table, first
// folding its counters into the retired totals. The caller holds s.mu.
func (s *Service) dropEngine(docID string) {
	if ent, ok := s.engines[docID]; ok {
		ent.auto.Stats().Counters().AddTo(&s.retiredAuto)
		delete(s.engines, docID)
	}
}

// EvictDoc removes a document from the store, and its selector with it.
// Nothing else is swept: its automata and their warm contexts are keyed
// by its label table, which no later document can share, so they go
// cold and leave by the LRU. It reports whether the document was
// resident.
func (s *Service) EvictDoc(docID string) bool {
	ok := s.store.Evict(docID)
	s.lock()
	s.dropEngine(docID)
	s.mu.Unlock()
	return ok
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
	BaseGen store.Gen `json:"base_gen,omitempty"`
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
	AsOf store.Gen `json:"asof,omitempty"`
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
	Gen store.Gen `json:"gen,omitempty"`
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
	// notFound / staleCursor distinguish error classes for the HTTP
	// status mapping (404 / 410) without parsing Err text.
	notFound    bool
	staleCursor bool
}

// evalState is one request in flight: prepare fills it, Eval or Stream
// reads the answer through it, deliver settles it.
type evalState struct {
	// resp accumulates the outcome; on failure resp.Err is set and cur
	// is nil.
	resp Response
	cur  *core.Cursor
	// h is the pinned generation the answer is read from.
	h *store.Handle
	// fromCursor marks a resumed request: on successful consumption the
	// incoming token's lease on resp.Gen is redeemed.
	fromCursor bool
	// sent and last are the nodes delivered so far and the final one of
	// them — where a successor token resumes.
	sent     int
	last     tree.NodeID
	streamed bool
	timer    timer
	// tr is non-nil for explained requests; root is its open
	// whole-request span.
	tr   *obsv.Trace
	root int8
}

// prepare runs the shared front half of Eval and Stream: strategy
// parsing, cursor-token validation (the document must match; the
// token's generation becomes the target), generation-pinned handle
// lookup, engine lookup, evaluation, and seeking to the resume
// position. On failure the returned state's resp.Err is set (and the
// error counted); on success resp carries Gen/Strategy/Count/Visited and
// the state holds a store pin on resp.Gen, which deliver releases.
func (s *Service) prepare(req Request) evalState {
	st := evalState{resp: Response{Doc: req.Doc, Query: req.Query}, timer: startTimer()}
	if req.Explain {
		// The trace is pooled and its methods are nil-safe, so the
		// non-explain path pays one nil check per phase.
		st.tr = obsv.NewTrace(true)
		st.root = st.tr.Begin(obsv.SpanQuery)
	}
	// fail is every error exit: spans still open are settled by Profile.
	fail := func(format string, args ...any) evalState {
		st.resp.Err = fmt.Sprintf(format, args...)
		s.metrics.recordError()
		return st
	}
	strat, ok := core.ParseStrategy(req.Strategy)
	if !ok {
		return fail("unknown strategy %q", req.Strategy)
	}
	// The target generation: the cursor token's, an explicit asof, or
	// zero for latest.
	tgen := req.AsOf
	var after tree.NodeID
	if req.Cursor != "" {
		sp := st.tr.Begin(obsv.SpanCursor)
		cdoc, cgen, clast, err := decodeCursor(req.Cursor)
		switch {
		case err != nil:
			st.resp.staleCursor = errors.Is(err, errEarlierCursor)
			return fail("%v", err)
		case cdoc != req.Doc:
			return fail("cursor is for document %q, not %q", cdoc, req.Doc)
		case req.AsOf != 0 && req.AsOf != cgen:
			return fail("cursor pins generation %d but the request asks asof %d", cgen, req.AsOf)
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
			st.resp.notFound = true
			return fail("service: %v: %q", ErrNoDocument, req.Doc)
		case st.fromCursor:
			st.resp.staleCursor = true
			return fail("stale cursor: generation %d of document %q is gone (patched away, evicted, or the cursor lease expired)", tgen, req.Doc)
		}
		st.resp.staleCursor = true
		return fail("generation %d of document %q is gone (no live cursor or lease kept it)", tgen, req.Doc)
	}
	eng := s.engine(h)
	st.tr.End(sp)
	st.resp.Gen = h.Gen
	cur, err := eng.EvalCursorTrace(req.Query, strat, st.tr)
	if err != nil {
		s.store.Release(req.Doc, h.Gen, time.Time{}, false)
		st.resp.ElapsedUS = st.timer.elapsedMicros()
		return fail("%v", err)
	}
	if st.fromCursor {
		sp = st.tr.Begin(obsv.SpanSeek)
		cur.SeekPast(after)
		st.tr.End(sp)
	}
	st.resp.Strategy = cur.Strategy().String()
	st.resp.Count = cur.Count()
	st.resp.Visited = cur.Visited()
	st.cur, st.h = cur, h
	return st
}

// outcomeOf classifies a finished response for the flight recorder.
func outcomeOf(resp *Response) string {
	switch {
	case resp.notFound:
		return obsv.OutcomeNotFound
	case resp.staleCursor:
		return obsv.OutcomeStaleCursor
	case resp.Err != "":
		return obsv.OutcomeError
	}
	return obsv.OutcomeOK
}

// explain settles the request trace into its Profile and releases the
// trace; nil for non-explained requests. Runs once, after every phase
// span has ended (the stream path calls it before the trailer write so
// the profile travels in-band).
func (s *Service) explain(st *evalState, req *Request) *obsv.Profile {
	if st.tr == nil {
		return nil
	}
	resp := &st.resp
	c := &st.tr.C
	c.Strategy = resp.Strategy
	c.Selected = resp.Count
	if cur := st.cur; cur != nil {
		c.Work = cur.Work()
		c.QCacheHit = cur.QCacheHit()
		c.CtxPoolHit = cur.CtxPoolHit()
		c.AutoShape = cur.AutoShape()
		c.AutoReason = cur.AutoReason()
	}
	st.tr.End(st.root)
	p := st.tr.Profile(req.RequestID)
	obsv.ReleaseTrace(st.tr)
	st.tr = nil
	return p
}

// finish closes out one request's observability: a flight-recorder
// entry on every exit path (success, client error, stream abort) and a
// structured log line — slow queries at Warn, everything else at Debug.
// outcome/errText may override the response classification (stream
// aborts: the evaluation succeeded but the client went away).
func (s *Service) finish(st *evalState, req *Request, outcome, errText string) {
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
	if errText == "" {
		errText = resp.Err
	}
	rec := obsv.Record{
		Time:      st.timer.start,
		RequestID: req.RequestID,
		Doc:       req.Doc,
		Query:     req.Query,
		Strategy:  resp.Strategy,
		Outcome:   outcome,
		Err:       errText,
		ElapsedUS: elapsed,
		Sent:      st.sent,
		Count:     resp.Count,
		Streamed:  st.streamed,
	}
	if cur := st.cur; cur != nil {
		rec.Work = cur.Work()
		rec.QCacheHit = cur.QCacheHit()
		rec.CtxPoolHit = cur.CtxPoolHit()
		rec.AutoReason = cur.AutoReason()
	}
	slow := s.flight.Add(rec)
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
		slog.String("strategy", resp.Strategy),
		slog.String("outcome", outcome),
		slog.String("err", errText),
		slog.Int64("elapsed_us", elapsed),
		slog.Int("sent", st.sent),
		slog.Int("count", resp.Count),
		slog.Int("visited", resp.Visited),
		slog.Bool("qcache_hit", rec.QCacheHit),
		slog.Bool("ctx_pool_hit", rec.CtxPoolHit),
		slog.Bool("streamed", st.streamed),
	)
}

// deliver is the one back half of Eval and Stream, run once the page or
// stream body is out (or could not be): page cut → successor token and
// its lease → redeem the incoming token → drop the pin → query metrics →
// explain profile → flight record and log. Three endings share it:
//
//   - prepare failed (st.cur is nil): nothing is pinned or counted as
//     a query; the outcome is the response's error class.
//   - the stream lost its client (abortErr set): the evaluation ran, so
//     it counts as a query, but no token is issued and the incoming one
//     is not redeemed — the client may retry it until its lease expires.
//   - delivered: a non-empty remainder means the answer was cut short,
//     so a resumption token pinned to the generation goes out. Its
//     lease is placed, the consumed token's lease is redeemed and the
//     pin dropped in one store critical section (store.Release) — the
//     pin held since prepare's lookup is what guarantees the generation
//     is still there to lease.
func (s *Service) deliver(st *evalState, req *Request, abortErr string) {
	resp := &st.resp
	outcome := outcomeOf(resp)
	if st.cur != nil {
		var lease time.Time
		if abortErr != "" {
			outcome = obsv.OutcomeAborted
		} else if _, more := st.cur.Next(); more && st.sent > 0 {
			resp.Next = encodeCursor(req.Doc, resp.Gen, st.last)
			lease = time.Now().Add(s.cursorTTL)
		}
		s.store.Release(req.Doc, resp.Gen, lease, st.fromCursor && abortErr == "")
		resp.ElapsedUS = st.timer.elapsedMicros()
		s.metrics.record(st.cur.Strategy(), resp.ElapsedUS, resp.Visited, resp.Count)
	}
	if abortErr == "" {
		resp.Explain = s.explain(st, req)
	}
	s.finish(st, req, outcome, abortErr)
}

// Eval evaluates one request, returning at most Limit nodes (all
// remaining when Limit <= 0) from the resume position, plus a Next
// token when the answer has more pages.
func (s *Service) Eval(req Request) Response {
	st := s.prepare(req)
	if st.cur == nil {
		s.deliver(&st, &req, "")
		return st.resp
	}
	// Return the evaluation context to its pool even when the page
	// limit leaves the cursor unexhausted — the next request for this
	// query wants the warm context, not the GC.
	defer st.cur.Close()
	resp := &st.resp
	sp := st.tr.Begin(obsv.SpanPage)
	limit := req.Limit
	if limit <= 0 {
		limit = resp.Count
	}
	// The page is a copy: the cursor's answer lives in an evaluation
	// arena that serves another run as soon as the cursor is closed.
	nodes := make([]tree.NodeID, min(limit, resp.Count))
	nodes = nodes[:st.cur.NextBatch(nodes)]
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
	s.deliver(&st, &req, "")
	return st.resp
}

// EvalBatch fans the requests across the worker pool and returns the
// responses in request order. Individual failures land in the matching
// Response.Err; the batch itself never fails.
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
	// jumping indexes; ResidentBytes adds the compiled-query cache.
	DocBytes      int64 `json:"doc_bytes"`
	ResidentBytes int64 `json:"resident_bytes"`
	// Engines counts the documents with a live Auto selector.
	Engines      int          `json:"engines"`
	Cache        qcache.Stats `json:"cache"`
	CacheHitRate float64      `json:"cache_hit_rate"`
	// Lock-wait tells how long requests queued for the engine table. The
	// total is the exact sum behind the mean (the Prometheus exporter
	// needs it).
	LockWaitTotalNS int64      `json:"lock_wait_total_ns"`
	LockWaitMeanNS  int64      `json:"lock_wait_mean_ns"`
	LockWaitMaxNS   int64      `json:"lock_wait_max_ns"`
	LockAcquires    uint64     `json:"lock_acquires"`
	Queries         QueryStats `json:"queries"`
	// Pool is the evaluation-context pool: hit rate is the fraction of
	// queries served by a warm, allocation-free context, ArenaBytes the
	// scratch memory the parked contexts keep resident.
	Pool        core.PoolStats `json:"ctx_pool"`
	PoolHitRate float64        `json:"ctx_pool_hit_rate"`
	// Auto aggregates the observed-latency Auto selectors of the
	// documents: shapes tracked, wins per strategy, exploration rate,
	// estimate error, and the most-decided shapes with their
	// per-candidate estimates and winner reasons.
	Auto core.SelectorStats `json:"auto"`
	// MVCC reports the generation chains: live and pinned generations,
	// patches applied, generations retired. Taking the snapshot sweeps
	// expired cursor leases, so stats/metrics scraping doubles as the
	// lease janitor.
	MVCC store.MVCCStats `json:"mvcc"`
	// Mapped reports the mmap-backed documents: total mapped bytes, the
	// charged (presumed-OS-resident) subset under the resident budget,
	// and map faults (touches that re-heated a released mapping).
	Mapped store.MappedStats `json:"mapped"`
	// HeapAllocObjects is the process's cumulative heap allocations
	// since the service started; AllocsPerQuery divides it by the
	// query total — the observed (process-wide, so conservative)
	// steady-state allocs/op. Warm context pooling should hold this
	// near the floor set by response assembly rather than evaluation.
	HeapAllocObjects uint64  `json:"heap_alloc_objects"`
	AllocsPerQuery   float64 `json:"allocs_per_query_estimate"`
	// Shards is the store as cmd/xpqbench reads it, from when it was
	// partitioned: one entry, repeating three of the numbers above.
	Shards [1]struct {
		DocBytes        int64  `json:"doc_bytes"`
		LockWaitTotalNS int64  `json:"lock_wait_total_ns"`
		LockAcquires    uint64 `json:"lock_acquires"`
	} `json:"shards"`
}

// selectorStats is indirect so a test can park a snapshot inside a
// selector and show that requests do not wait for it.
var selectorStats = (*core.Selector).Stats

// Stats snapshots the store, cache, pool, selectors and query counters.
func (s *Service) Stats() Stats {
	out := Stats{
		Documents:       s.store.List(),
		Cache:           s.cache.Stats(),
		LockWaitTotalNS: s.lockWaitNS.Load(),
		LockWaitMaxNS:   s.lockWaitMaxNS.Load(),
		LockAcquires:    s.lockAcquires.Load(),
		Queries:         s.metrics.snapshot(),
		Pool:            s.pool.Stats(),
		MVCC:            s.store.MVCC(),
		Mapped:          s.store.Mapped(),
	}
	for _, d := range out.Documents {
		out.DocBytes += d.MemBytes
	}
	out.ResidentBytes = out.DocBytes + out.Cache.SizeBytes
	out.CacheHitRate = out.Cache.HitRate()
	out.PoolHitRate = out.Pool.HitRate()
	if out.LockAcquires > 0 {
		out.LockWaitMeanNS = out.LockWaitTotalNS / int64(out.LockAcquires)
	}
	// Every request takes s.mu, so it is held only to copy pointers; the
	// snapshots (a lock and an allocation per shape) come after.
	s.lock()
	s.retiredAuto.AddTo(&out.Auto)
	autos := make([]*core.Selector, 0, len(s.engines))
	for _, ent := range s.engines {
		autos = append(autos, ent.auto)
	}
	s.mu.Unlock()
	out.Engines = len(autos)
	for _, auto := range autos {
		selectorStats(auto).AddTo(&out.Auto)
	}
	out.Auto.Finalize()
	if now := heapAllocObjects(); now > s.allocs0 {
		out.HeapAllocObjects = now - s.allocs0
		if out.Queries.Total > 0 {
			out.AllocsPerQuery = float64(out.HeapAllocObjects) / float64(out.Queries.Total)
		}
	}
	sh := &out.Shards[0]
	sh.DocBytes, sh.LockWaitTotalNS, sh.LockAcquires = out.DocBytes, out.LockWaitTotalNS, out.LockAcquires
	return out
}
