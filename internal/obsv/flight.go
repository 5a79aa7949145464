package obsv

import (
	"sync"
	"time"
)

// Outcome classifies how a query ended: the service sets one per
// request, and the HTTP status, the metrics, the flight record and the
// log line all read it.
const (
	OutcomeOK          = "ok"
	OutcomeError       = "error"
	OutcomeNotFound    = "not_found"
	OutcomeStaleCursor = "stale_cursor"
	// OutcomeAborted: the client went away mid-stream; Err says during
	// which write (header or chunk).
	OutcomeAborted = "aborted"
	// OutcomePanic: evaluation or delivery panicked; the service
	// contained it at the request (the log line has the stack).
	OutcomePanic = "panic"
)

// Record is one flight-recorder entry: everything needed to answer
// "what was that query and why was it slow" without a debugger. The
// string fields alias the request's strings (no copies); Add copies the
// struct once, into a preallocated ring slot.
type Record struct {
	// Seq is the global admission number (monotonic, assigned by Add);
	// Time is the request start.
	Seq       uint64    `json:"seq"`
	Time      time.Time `json:"time"`
	RequestID string    `json:"request_id,omitempty"`
	Doc       string    `json:"doc"`
	Query     string    `json:"query"`
	Outcome   string    `json:"outcome"`
	Err       string    `json:"error,omitempty"`
	ElapsedUS int64     `json:"elapsed_us"`
	// Count is the full answer cardinality, Sent how many nodes were
	// actually delivered (paging and aborts make them differ).
	Sent  int `json:"sent"`
	Count int `json:"count"`
	// Run is the evaluation, for the slow-query post-mortem: a slow
	// query with CtxPoolHit=false rebuilt its scratch world; one with
	// low MemoHits ran cold automaton-wise. Empty when no engine ran.
	Run
	Streamed bool `json:"streamed,omitempty"`
	Slow     bool `json:"slow,omitempty"`
}

// Flight is the always-on flight recorder: a fixed ring of the last N
// query records. It keeps records, not counts: how many queries were
// slow or aborted is counted where every other query number is, in the
// service's /stats. Add is designed for the hot path — one lock, one
// struct copy; snapshots pay the copying. All methods are safe for
// concurrent use.
type Flight struct {
	threshold time.Duration // slow-query threshold, fixed by NewFlight

	mu   sync.Mutex
	ring []Record
	next uint64 // every admission, ever; next%len(ring) is the slot
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
	return &Flight{threshold: slow, ring: make([]Record, n)}
}

// Add admits a copy of r, stamping the copy's Seq and Slow flag, and
// reports whether the query was slow (the caller counts and logs it);
// r itself is not written.
func (f *Flight) Add(r *Record) bool {
	slow := f.threshold > 0 && r.ElapsedUS*1000 >= int64(f.threshold)
	f.mu.Lock()
	slot := &f.ring[f.next%uint64(len(f.ring))]
	*slot = *r
	slot.Seq, slot.Slow = f.next, slow
	f.next++
	f.mu.Unlock()
	return slow
}

// FlightStats is the snapshot form served at /debug/queries.
type FlightStats struct {
	// Total counts every record ever admitted, not just those still
	// resident in the ring: the newest record's Seq plus one.
	Total           uint64 `json:"total"`
	SlowThresholdMS int64  `json:"slow_threshold_ms"`
	Capacity        int    `json:"capacity"`
	// Records is newest-first.
	Records []Record `json:"records"`
}

// Snapshot copies out the most recent records (newest first), at most
// limit of them (limit <= 0 means all resident). slowOnly filters to
// flagged records.
func (f *Flight) Snapshot(limit int, slowOnly bool) FlightStats {
	out := FlightStats{SlowThresholdMS: f.threshold.Milliseconds()}
	f.mu.Lock()
	defer f.mu.Unlock()
	out.Total, out.Capacity = f.next, len(f.ring)
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
