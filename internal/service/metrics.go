package service

import (
	"maps"
	"slices"
	"sync"
	"time"

	"repro/internal/obsv"
)

// latencyBuckets are the histogram upper bounds in microseconds
// (100µs … 1s, then +Inf).
var latencyBuckets = []int64{100, 500, 1_000, 5_000, 10_000, 50_000, 100_000, 500_000, 1_000_000}

// metrics accumulates the service's query counters straight into the
// struct /stats serves, so a QueryStats or StreamStats field is the one
// declaration of a query-side metric (prometheus.go holds the rule). A
// plain mutex keeps the histogram and counters mutually consistent;
// query latencies dwarf the critical section.
type metrics struct {
	mu sync.Mutex
	qs QueryStats
}

// abortCause says which write the client abandoned; recorded so the
// abort metrics (and flight records) can distinguish a reader that
// never got data from one that stopped mid-answer.
type abortCause uint8

const (
	abortNone abortCause = iota
	abortHeaderWrite
	abortChunkWrite
)

func (c abortCause) String() string {
	switch c {
	case abortHeaderWrite:
		return "header_write"
	case abortChunkWrite:
		return "chunk_write"
	}
	return "none"
}

// streamTally is what one stream's body delivered: which write, if
// any, the client abandoned, the chunk lines that went out, and the
// latencies of the first byte and of the chunk writes
// (encode+write+flush).
type streamTally struct {
	abort                               abortCause
	chunks                              int
	firstByteUS, chunkSumUS, chunkMaxUS int64
}

// record counts one finished request from its flight record r, the one
// value the ring and the log line also read. A request whose engine ran
// and whose answer went out, whole or until the client left, counts as
// a query of its strategy; any other ending as an error. A streamed
// query also counts its stream, t being what the body delivered:
// completed and aborted streams both count their chunks and nodes, but
// only completed streams feed the first-byte/chunk-write latency
// aggregates — a broken pipe's stalled final write measures the
// client's death, not the server's latency.
func (m *metrics) record(r *obsv.Record, t *streamTally) {
	m.mu.Lock()
	defer m.mu.Unlock()
	q := &m.qs
	q.Total++
	if r.Slow {
		q.Slow++
	}
	if r.Outcome != obsv.OutcomeOK && r.Outcome != obsv.OutcomeAborted {
		q.Errors++
		return
	}
	if q.ByStrategy == nil {
		q.ByStrategy = make(map[string]uint64)
		q.Latency = newLatencyHistogram()
	}
	q.VisitedNodes += uint64(r.Visited)
	q.SelectedNodes += uint64(r.Count)
	q.ByStrategy[r.Strategy]++
	i := 0
	for i < len(latencyBuckets) && r.ElapsedUS > latencyBuckets[i] {
		i++
	}
	q.Latency[i].Count++
	q.LatencySumUS += r.ElapsedUS
	q.LatencyMaxUS = max(q.LatencyMaxUS, r.ElapsedUS)
	if !r.Streamed {
		return
	}
	st := &q.Streaming
	st.Streams++
	st.Chunks += uint64(t.chunks)
	st.Nodes += uint64(r.Sent)
	switch t.abort {
	case abortHeaderWrite:
		st.Aborted++
		st.AbortedHeaderWrite++
	case abortChunkWrite:
		st.Aborted++
		st.AbortedChunkWrite++
	default:
		st.Completed++
		st.completedChunks += uint64(t.chunks)
		st.FirstByteSumUS += t.firstByteUS
		st.FirstByteMaxUS = max(st.FirstByteMaxUS, t.firstByteUS)
		st.ChunkWriteSumUS += t.chunkSumUS
		st.ChunkWriteMaxUS = max(st.ChunkWriteMaxUS, t.chunkMaxUS)
	}
}

// LatencyBucket is one histogram bin: count of queries with latency
// <= LEMicros (the last bucket has LEMicros == 0, meaning +Inf).
type LatencyBucket struct {
	LEMicros int64  `json:"le_us,omitempty"`
	Count    uint64 `json:"count"`
}

// QueryStats is the cumulative query-side picture.
type QueryStats struct {
	Total  uint64 `json:"total"`
	Errors uint64 `json:"errors"`
	// Slow counts the requests, whatever their ending, at or above the
	// slow-query threshold: the records the flight recorder flags.
	Slow uint64 `json:"slow"`
	// VisitedNodes sums the nodes touched across all successful runs.
	VisitedNodes  uint64            `json:"visited_nodes"`
	SelectedNodes uint64            `json:"selected_nodes"`
	ByStrategy    map[string]uint64 `json:"by_strategy,omitempty"`
	Latency       []LatencyBucket   `json:"latency_histogram,omitempty"`
	// LatencySumUS is the raw sum behind the mean; the Prometheus
	// exporter needs it (histogram _sum must be exact, not
	// mean*count).
	LatencySumUS  int64       `json:"latency_sum_us"`
	LatencyMeanUS int64       `json:"latency_mean_us"`
	LatencyMaxUS  int64       `json:"latency_max_us"`
	Streaming     StreamStats `json:"streaming"`
}

// StreamStats is the cumulative streaming picture: how many NDJSON
// streams ran, how quickly their first byte went out, and how long
// chunk writes take (the chunk-write latency is the backpressure
// signal: slow readers show up here, not in server memory).
type StreamStats struct {
	// Streams counts every stream whose header went out; Completed
	// and Aborted split it by ending (completed = trailer delivered,
	// aborted = client gone mid-stream), with the aborted side broken
	// down by which write failed. Latency aggregates cover completed
	// streams only, so broken pipes don't pollute them.
	Streams            uint64 `json:"streams"`
	Completed          uint64 `json:"completed"`
	Aborted            uint64 `json:"aborted"`
	AbortedHeaderWrite uint64 `json:"aborted_header_write,omitempty"`
	AbortedChunkWrite  uint64 `json:"aborted_chunk_write,omitempty"`
	Chunks             uint64 `json:"chunks"`
	Nodes              uint64 `json:"nodes"`
	FirstByteSumUS     int64  `json:"first_byte_sum_us"`
	FirstByteMeanUS    int64  `json:"first_byte_mean_us"`
	FirstByteMaxUS     int64  `json:"first_byte_max_us"`
	ChunkWriteSumUS    int64  `json:"chunk_write_sum_us"`
	ChunkWriteMean     int64  `json:"chunk_write_mean_us"`
	ChunkWriteMaxUS    int64  `json:"chunk_write_max_us"`
	// completedChunks counts the chunks of completed streams: the
	// denominator of ChunkWriteMean (Chunks includes aborted streams').
	completedChunks uint64
}

// snapshot copies the counters and derives the means.
func (m *metrics) snapshot() QueryStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	qs := m.qs
	qs.ByStrategy = maps.Clone(qs.ByStrategy)
	qs.Latency = slices.Clone(qs.Latency)
	qs.setMeans()
	return qs
}

// newLatencyHistogram returns the empty histogram: one bin per
// latencyBuckets bound plus the overflow bin.
func newLatencyHistogram() []LatencyBucket {
	h := make([]LatencyBucket, len(latencyBuckets)+1)
	for i, le := range latencyBuckets {
		h[i].LEMicros = le
	}
	return h
}

// setMeans derives the three means from the exact sums and counts.
func (q *QueryStats) setMeans() {
	if n := q.Total - q.Errors; n > 0 {
		q.LatencyMeanUS = q.LatencySumUS / int64(n)
	}
	st := &q.Streaming
	if st.Completed > 0 {
		st.FirstByteMeanUS = st.FirstByteSumUS / int64(st.Completed)
	}
	if st.completedChunks > 0 {
		st.ChunkWriteMean = st.ChunkWriteSumUS / int64(st.completedChunks)
	}
}

// timer wraps the monotonic clock; a named type keeps time usage in one
// place for tests.
type timer struct{ start time.Time }

func startTimer() timer { return timer{start: time.Now()} }

func (t timer) elapsedMicros() int64 { return time.Since(t.start).Microseconds() }
