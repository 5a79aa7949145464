package obsv

import (
	"sync"
	"sync/atomic"
	"time"
)

// Outcome classifies how a query ended; the flight recorder and the
// abort-cause metrics share the vocabulary.
const (
	OutcomeOK          = "ok"
	OutcomeError       = "error"
	OutcomeNotFound    = "not_found"
	OutcomeStaleCursor = "stale_cursor"
	// OutcomeAborted: the client went away mid-stream; Err says during
	// which write (header or chunk).
	OutcomeAborted = "aborted"
)

// Record is one flight-recorder entry: everything needed to answer
// "what was that query and why was it slow" without a debugger. The
// string fields alias the request's strings (no copies); the struct is
// copied whole into a preallocated ring slot.
type Record struct {
	// Seq is the global admission number (monotonic, assigned by Add);
	// Time is the request start.
	Seq       uint64    `json:"seq"`
	Time      time.Time `json:"time"`
	RequestID string    `json:"request_id,omitempty"`
	Doc       string    `json:"doc"`
	Query     string    `json:"query"`
	Strategy  string    `json:"strategy,omitempty"`
	Outcome   string    `json:"outcome"`
	Err       string    `json:"error,omitempty"`
	ElapsedUS int64     `json:"elapsed_us"`
	// Count is the full answer cardinality, Sent how many nodes were
	// actually delivered (paging and aborts make them differ).
	Sent  int `json:"sent"`
	Count int `json:"count"`
	// Engine counters for the slow-query post-mortem: a slow query
	// with CtxPoolHit=false rebuilt its scratch world; one with low
	// MemoHits ran cold automaton-wise.
	Work
	QCacheHit  bool `json:"qcache_hit"`
	CtxPoolHit bool `json:"ctx_pool_hit"`
	// AutoReason is why the Auto selector routed the query to Strategy
	// (cold-heuristic, probe, explore, min EWMA latency, short-circuit);
	// empty for forced strategies.
	AutoReason string `json:"auto_reason,omitempty"`
	Streamed   bool   `json:"streamed,omitempty"`
	Slow       bool   `json:"slow,omitempty"`
}

// Flight is the always-on flight recorder: a fixed ring of the last N
// query records plus cheap aggregate counters. Add is designed for the
// hot path — one mutex-guarded struct copy; snapshots pay the copying.
// All methods are safe for concurrent use and nil-safe, so an
// unconfigured recorder costs one branch.
type Flight struct {
	slowNS atomic.Int64

	total   atomic.Uint64
	slow    atomic.Uint64
	aborted atomic.Uint64

	mu   sync.Mutex
	ring []Record
	next uint64 // ring admission count; next%len(ring) is the slot
}

// DefaultFlightRecords is the ring size when the creator does not
// choose one.
const DefaultFlightRecords = 256

// NewFlight builds a recorder holding the last n records (n <= 0 means
// DefaultFlightRecords). Queries at or above slow are flagged Slow;
// slow <= 0 disables the flag.
func NewFlight(n int, slow time.Duration) *Flight {
	if n <= 0 {
		n = DefaultFlightRecords
	}
	f := &Flight{ring: make([]Record, n)}
	f.slowNS.Store(int64(slow))
	return f
}

// SlowThreshold returns the current slow-query threshold (0 =
// disabled).
func (f *Flight) SlowThreshold() time.Duration {
	if f == nil {
		return 0
	}
	return time.Duration(f.slowNS.Load())
}

// SetSlowThreshold adjusts the threshold at runtime (tests, admin
// endpoints).
func (f *Flight) SetSlowThreshold(d time.Duration) {
	if f != nil {
		f.slowNS.Store(int64(d))
	}
}

// Add admits one record, stamping Seq and the Slow flag, and reports
// whether the query was slow (the caller decides whether to log it).
// Safe on nil (reports false).
func (f *Flight) Add(r Record) bool {
	if f == nil {
		return false
	}
	slowNS := f.slowNS.Load()
	r.Slow = slowNS > 0 && r.ElapsedUS*1000 >= slowNS
	f.total.Add(1)
	if r.Slow {
		f.slow.Add(1)
	}
	if r.Outcome == OutcomeAborted {
		f.aborted.Add(1)
	}
	f.mu.Lock()
	r.Seq = f.next
	f.ring[f.next%uint64(len(f.ring))] = r
	f.next++
	f.mu.Unlock()
	return r.Slow
}

// FlightStats is the snapshot form served at /debug/queries.
type FlightStats struct {
	// Total/Slow/Aborted count every record ever admitted, not just
	// those still resident in the ring.
	Total           uint64 `json:"total"`
	Slow            uint64 `json:"slow"`
	Aborted         uint64 `json:"aborted"`
	SlowThresholdMS int64  `json:"slow_threshold_ms"`
	Capacity        int    `json:"capacity"`
	// Records is newest-first.
	Records []Record `json:"records"`
}

// Snapshot copies out the most recent records (newest first), at most
// limit of them (limit <= 0 means all resident). slowOnly filters to
// flagged records. Safe on nil (returns an empty snapshot).
func (f *Flight) Snapshot(limit int, slowOnly bool) FlightStats {
	if f == nil {
		return FlightStats{}
	}
	out := FlightStats{
		Total:           f.total.Load(),
		Slow:            f.slow.Load(),
		Aborted:         f.aborted.Load(),
		SlowThresholdMS: f.SlowThreshold().Milliseconds(),
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	out.Capacity = len(f.ring)
	n := f.next
	resident := n
	if resident > uint64(len(f.ring)) {
		resident = uint64(len(f.ring))
	}
	if limit <= 0 || uint64(limit) > resident {
		limit = int(resident)
	}
	out.Records = make([]Record, 0, limit)
	for i := uint64(0); i < resident && len(out.Records) < limit; i++ {
		r := f.ring[(n-1-i)%uint64(len(f.ring))]
		if slowOnly && !r.Slow {
			continue
		}
		out.Records = append(out.Records, r)
	}
	return out
}

// Counts returns the lifetime admission counters (total, slow,
// aborted) without touching the ring; the /metrics exporter reads
// these. Safe on nil.
func (f *Flight) Counts() (total, slow, aborted uint64) {
	if f == nil {
		return 0, 0, 0
	}
	return f.total.Load(), f.slow.Load(), f.aborted.Load()
}
