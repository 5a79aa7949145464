// Package obsv is the observability substrate of the serving layers:
// a span recorder (per-query EXPLAIN-ANALYZE profiles), a ring-buffer
// flight recorder of recent queries with a slow-query threshold, and a
// dependency-free Prometheus text exposition writer. It is a leaf
// package — nothing here imports the engine — so every layer from the
// evaluator to the HTTP front end can record into it without import
// cycles.
//
// The design constraint is the warm path: repeated evaluation is
// allocation-free, and instrumentation must not give that back. Three
// rules enforce it:
//
//   - only an explained request has a Trace, a fixed-size value made
//     for that request alone; starting a span is two stores and one
//     clock read;
//   - every Trace method is nil-safe, so the engine call paths carry a
//     possibly-nil *Trace instead of branching at every site;
//   - the flight recorder writes one fixed-size record into a
//     preallocated ring slot under a mutex whose critical section is a
//     struct copy.
//
// So an unexplained request reads no clock per span and allocates
// nothing here; an explained one allocates its Trace and, once, its
// Profile.
package obsv

import "time"

// Span names used across the serving layers. Constants rather than an
// enum so profiles are self-describing JSON; the fixed set keeps the
// explain output stable for tools.
const (
	SpanQuery   = "query"   // whole request, root span
	SpanEngine  = "engine"  // generation pin, engine binding
	SpanCursor  = "cursor"  // continuation-token decode + validation
	SpanParse   = "parse"   // XPath text -> AST
	SpanSelect  = "select"  // Auto's route (the query's fragment)
	SpanCompile = "compile" // qcache lookup / automaton compilation
	SpanRun     = "run"     // automaton / baseline evaluation proper
	SpanSeek    = "seek"    // SeekPast to the resume position
	SpanPage    = "page"    // materializing one page (Eval)
	SpanStream  = "stream"  // NDJSON header+chunks+trailer (Stream)
)

// maxSpans bounds the spans one Trace can hold; the request pipeline
// produces at most ~10. Overflow is silently dropped (the profile
// stays truncated-but-valid) rather than allocated.
const maxSpans = 16

// span is one recorded phase: a name and a time. start is relative to
// the trace origin. What ran, and why Auto chose it, is the profile's
// Counters, not span text.
type span struct {
	name   string
	parent int8
	start  time.Duration
	dur    time.Duration
}

// Work is what one engine run did, in the units every engine counts:
// the one record the evaluators fill and the cursor, the explain
// profile and the flight record carry. It lives here, in the leaf
// package, so the evaluators can fill it without importing the layers
// that read it.
type Work struct {
	// Visited counts the nodes the run touched.
	Visited int `json:"visited"`
	// Jumps counts index jumps: the TDSTA's and the ASTA's skip
	// decisions (each a top-most region, an Lt or an Rt) and the hybrid
	// run's occurrence rows and searches in them. The step-wise baseline
	// never jumps.
	Jumps int `json:"jumps"`
	// MemoEntries counts configurations newly memoized and MemoHits the
	// constant-time memo lookups served (ASTA only: a warm context
	// derives ~0 entries and serves hits).
	MemoEntries int `json:"memo_entries"`
	MemoHits    int `json:"memo_hits"`
}

// Run is what one request's evaluation did and how it was served: the
// one record the cursor fills, the explain profile's counters extend and
// the flight record embeds.
type Run struct {
	// Strategy is the engine that ran (never auto).
	Strategy string `json:"strategy,omitempty"`
	Work
	// QCacheHit: the compiled automaton came from the query cache.
	// CtxPoolHit: the evaluation ran in a warm pooled context.
	QCacheHit  bool `json:"qcache_hit"`
	CtxPoolHit bool `json:"ctx_pool_hit"`
	// AutoReason is why Auto took its route (label-chain,
	// tdsta-fragment, asta, outside-automata); empty for forced
	// strategies.
	AutoReason string `json:"auto_reason,omitempty"`
}

// Counters are the engine-effort numbers of an explain profile: what the
// evaluation did, as opposed to how long its phases took.
type Counters struct {
	Run
	Selected int `json:"selected"`
	// AutoShape is an Auto-routed query's canonical shape; empty for
	// forced strategies.
	AutoShape string `json:"auto_shape,omitempty"`
}

// Trace records one explained request's span tree; NewTrace makes one
// per request. Not safe for concurrent use (one trace belongs to one
// request). All methods are nil-safe no-ops, so call sites thread a
// possibly-nil *Trace unconditionally and an unexplained request
// records nothing.
type Trace struct {
	origin time.Time
	n      int8
	open   int8 // innermost open span, -1 at top level
	spans  [maxSpans]span
}

// NewTrace returns an empty trace whose origin is now.
func NewTrace() *Trace {
	return &Trace{origin: time.Now(), open: -1}
}

// Begin opens a span nested under the innermost open span and returns
// its id for End. On a nil trace or span overflow it returns -1 (End
// ignores it) without reading the clock.
func (tr *Trace) Begin(name string) int8 {
	if tr == nil || int(tr.n) >= maxSpans {
		return -1
	}
	id := tr.n
	tr.n++
	tr.spans[id] = span{name: name, parent: tr.open, start: time.Since(tr.origin)}
	tr.open = id
	return id
}

// End closes the span returned by Begin. Ending out of order closes
// the inner spans too (their durations stop with the outer one).
func (tr *Trace) End(id int8) {
	if tr == nil || id < 0 || id >= tr.n {
		return
	}
	now := time.Since(tr.origin)
	for tr.open >= id {
		s := &tr.spans[tr.open]
		if s.dur == 0 {
			s.dur = now - s.start
		}
		tr.open = s.parent
	}
}

// Span is one node of an explain profile's span tree. Durations are
// microseconds (matching the service's elapsed_us convention); StartUS
// is relative to the trace origin.
type Span struct {
	Name     string `json:"name"`
	StartUS  int64  `json:"start_us"`
	DurUS    int64  `json:"dur_us"`
	Children []Span `json:"children,omitempty"`
}

// Profile is the JSON form of a completed trace: the span tree plus
// the engine counters — the payload of ?explain=1.
type Profile struct {
	RequestID string   `json:"request_id,omitempty"`
	Spans     []Span   `json:"spans"`
	Counters  Counters `json:"counters"`
}

// Profile materializes the trace and the request's counters into its
// JSON form. It allocates (the only method here that does) and is meant
// to run once per explained request, after every span has ended. Safe
// on nil (returns nil).
func (tr *Trace) Profile(requestID string, c Counters) *Profile {
	if tr == nil {
		return nil
	}
	tr.End(0) // settle any span left open by an error path
	p := &Profile{RequestID: requestID, Counters: c}
	p.Spans = tr.children(-1)
	return p
}

// children builds the subtree of spans whose parent is id.
func (tr *Trace) children(id int8) []Span {
	var out []Span
	for i := int8(0); i < tr.n; i++ {
		s := &tr.spans[i]
		if s.parent != id {
			continue
		}
		out = append(out, Span{
			Name:     s.name,
			StartUS:  s.start.Microseconds(),
			DurUS:    s.dur.Microseconds(),
			Children: tr.children(i),
		})
	}
	return out
}
