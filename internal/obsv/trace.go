// Package obsv is the observability substrate of the serving layers:
// a pooled, allocation-free span recorder (per-query EXPLAIN-ANALYZE
// profiles), a ring-buffer flight recorder of recent queries with a
// slow-query threshold, and a dependency-free Prometheus text
// exposition writer. It is a leaf package — nothing here imports the
// engine — so every layer from the evaluator to the HTTP front end can
// record into it without import cycles.
//
// The design constraint is the warm path: PR 5 made repeated
// evaluation allocation-free, and instrumentation must not give that
// back. Three rules enforce it:
//
//   - a Trace is a fixed-size value reused through a sync.Pool; starting
//     a span is two stores and (only in detail mode) one clock read;
//   - every Trace method is nil-safe, so the engine call paths carry a
//     possibly-nil *Trace instead of branching at every site;
//   - the flight recorder writes one fixed-size record into a
//     preallocated ring slot under a mutex whose critical section is a
//     struct copy.
//
// Only the explain path (detail mode) reads the clock per span and
// only Profile — built once per explained request — allocates.
package obsv

import (
	"sync"
	"time"
)

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

// span is one recorded phase. start is relative to the trace origin.
// detail is an optional annotation (Annotate): run spans carry the
// strategy that ran and whether it succeeded, the select span carries
// Auto's route.
type span struct {
	name   string
	detail string
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

// Counters are the engine-effort numbers lifted into a trace: what the
// evaluation did, as opposed to how long its phases took. They ride on
// the Trace so the explain profile and the flight record read one
// place.
type Counters struct {
	Strategy string `json:"strategy,omitempty"`
	Work
	Selected int `json:"selected"`
	// QCacheHit: the compiled automaton came from the query cache.
	// CtxPoolHit: the evaluation ran in a warm pooled context.
	QCacheHit  bool `json:"qcache_hit"`
	CtxPoolHit bool `json:"ctx_pool_hit"`
	// AutoShape/AutoReason attribute an Auto-routed query: its
	// canonical shape and why it took its route (label-chain,
	// tdsta-fragment, asta, outside-automata). Empty for forced
	// strategies.
	AutoShape  string `json:"auto_shape,omitempty"`
	AutoReason string `json:"auto_reason,omitempty"`
}

// Trace records one request's span tree and counters. The zero value
// is ready; Reset recycles it. Not safe for concurrent use (one trace
// belongs to one request). All methods are nil-safe no-ops so call
// sites thread a possibly-nil *Trace unconditionally.
type Trace struct {
	// C is filled by the layers as they learn things; exported so
	// lifting a counter is a store, not a call.
	C Counters

	detail bool
	origin time.Time
	n      int8
	open   int8 // innermost open span, -1 at top level
	spans  [maxSpans]span
}

var tracePool = sync.Pool{New: func() any { return new(Trace) }}

// NewTrace checks a reset Trace out of the package pool. detail
// enables per-span clock reads (the explain path); without it spans
// record structure only and Begin/End never touch the clock. Return
// the trace with ReleaseTrace once nothing references it.
func NewTrace(detail bool) *Trace {
	tr := tracePool.Get().(*Trace)
	tr.Reset(detail)
	return tr
}

// ReleaseTrace parks a trace for reuse. Safe on nil.
func ReleaseTrace(tr *Trace) {
	if tr != nil {
		tracePool.Put(tr)
	}
}

// Reset clears the trace in place and stamps a new origin.
func (tr *Trace) Reset(detail bool) {
	if tr == nil {
		return
	}
	tr.C = Counters{}
	tr.detail = detail
	tr.n = 0
	tr.open = -1
	if detail {
		tr.origin = time.Now()
	} else {
		tr.origin = time.Time{}
	}
}

// Detail reports whether the trace records span timings (explain
// mode).
func (tr *Trace) Detail() bool { return tr != nil && tr.detail }

// Begin opens a span nested under the innermost open span and returns
// its id for End. On a nil trace, a non-detail trace, or span
// overflow it returns -1 (End ignores it) without reading the clock.
func (tr *Trace) Begin(name string) int8 {
	if tr == nil || !tr.detail || int(tr.n) >= maxSpans {
		return -1
	}
	id := tr.n
	tr.n++
	tr.spans[id] = span{name: name, parent: tr.open, start: time.Since(tr.origin)}
	tr.open = id
	return id
}

// Annotate attaches a detail string to the span returned by Begin
// (before or after End). The engine passes precomputed constants on the
// hot path, so annotating allocates nothing; nil traces and overflowed
// span ids are no-ops.
func (tr *Trace) Annotate(id int8, detail string) {
	if tr == nil || id < 0 || id >= tr.n {
		return
	}
	tr.spans[id].detail = detail
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
	Name string `json:"name"`
	// Detail disambiguates same-named spans: run spans carry
	// "strategy=<name> outcome=ok|failed", the select span carries
	// Auto's shape, route and reason.
	Detail   string `json:"detail,omitempty"`
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

// Profile materializes the trace into its JSON form. It allocates (the
// only method here that does) and is meant to run once per explained
// request, after every span has ended. Safe on nil (returns nil).
func (tr *Trace) Profile(requestID string) *Profile {
	if tr == nil || !tr.detail {
		return nil
	}
	tr.End(0) // settle any span left open by an error path
	p := &Profile{RequestID: requestID, Counters: tr.C}
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
			Detail:   s.detail,
			StartUS:  s.start.Microseconds(),
			DurUS:    s.dur.Microseconds(),
			Children: tr.children(i),
		})
	}
	return out
}
