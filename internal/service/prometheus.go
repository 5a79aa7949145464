package service

import (
	"io"
	"maps"
	"runtime"
	runtimemetrics "runtime/metrics"
	"slices"
	"time"

	"repro/internal/obsv"
)

// The /metrics endpoint: the numbers /stats serves as JSON, in the
// Prometheus text exposition format (written by hand — see
// internal/obsv/prom.go — so the daemon stays free of client-library
// dependencies). A metric is declared once: the exported stats structs
// are where a number is collected and what /stats prints, and the
// families table is the whole of /metrics — a row is the family's name,
// type, help text and the getter that reads it out of a stats struct.
// The contract tests beside the promFamilies golden hold the two
// together (DESIGN.md "Observability").
//
// Exact sums (latency, first-byte, chunk-write) back every
// mean /stats reports, and durations are seconds per Prometheus
// convention (the JSON API keeps its microseconds).

// family is one row of the exposition. Exactly one getter is set.
type family struct {
	name, typ, help string
	// stat reads one sample out of the Stats snapshot.
	stat func(*Stats) float64
	// byLabel yields one sample per map key, under the label named
	// label; keys are emitted sorted so a page is deterministic.
	label   string
	byLabel func(*Stats) map[string]uint64
	// hist yields the histogram: the bins over latencyBuckets and their
	// exact sum in microseconds.
	hist func(*Stats) ([]LatencyBucket, int64)
	// live reads a number no Stats field holds — the uptime and the Go
	// runtime's — so nothing else counts it; false omits the family.
	live func(*Service) (float64, bool)
}

const (
	counter = obsv.TypeCounter
	gauge   = obsv.TypeGauge
)

var families = []family{
	{name: "xpqd_queries_total", typ: counter, help: "Queries handled, including errors.", stat: func(st *Stats) float64 { return float64(st.Queries.Total) }},
	{name: "xpqd_query_errors_total", typ: counter, help: "Queries that failed (parse errors, unknown documents, stale cursors).", stat: func(st *Stats) float64 { return float64(st.Queries.Errors) }},
	{name: "xpqd_slow_queries_total", typ: counter, help: "Queries at or above the slow-query threshold.", stat: func(st *Stats) float64 { return float64(st.Queries.Slow) }},
	{name: "xpqd_visited_nodes_total", typ: counter, help: "Nodes touched by successful evaluations.", stat: func(st *Stats) float64 { return float64(st.Queries.VisitedNodes) }},
	{name: "xpqd_selected_nodes_total", typ: counter, help: "Nodes selected by successful evaluations.", stat: func(st *Stats) float64 { return float64(st.Queries.SelectedNodes) }},
	{name: "xpqd_queries_by_strategy_total", typ: counter, help: "Successful queries by execution strategy.", label: "strategy", byLabel: func(st *Stats) map[string]uint64 { return st.Queries.ByStrategy }},
	{name: "xpqd_query_duration_seconds", typ: obsv.TypeHistogram, help: "End-to-end query latency (successful queries).", hist: func(st *Stats) ([]LatencyBucket, int64) { return st.Queries.Latency, st.Queries.LatencySumUS }},
	{name: "xpqd_query_duration_max_seconds", typ: gauge, help: "Worst query latency observed.", stat: func(st *Stats) float64 { return float64(st.Queries.LatencyMaxUS) / 1e6 }},

	// Streaming: completed and aborted streams are separate counters
	// (aborts carry their cause), and the latency sums cover completed
	// streams only — mirroring StreamStats.
	{name: "xpqd_streams_completed_total", typ: counter, help: "NDJSON streams that delivered their trailer.", stat: func(st *Stats) float64 { return float64(st.Queries.Streaming.Completed) }},
	{name: "xpqd_streams_aborted_total", typ: counter, help: "NDJSON streams cut short by the client, by failed write.", label: "cause", byLabel: func(st *Stats) map[string]uint64 {
		return map[string]uint64{
			abortHeaderWrite.String(): st.Queries.Streaming.AbortedHeaderWrite,
			abortChunkWrite.String():  st.Queries.Streaming.AbortedChunkWrite,
		}
	}},
	{name: "xpqd_stream_chunks_total", typ: counter, help: "NDJSON chunk lines written (completed and aborted streams).", stat: func(st *Stats) float64 { return float64(st.Queries.Streaming.Chunks) }},
	{name: "xpqd_stream_nodes_total", typ: counter, help: "Answer nodes delivered over streams.", stat: func(st *Stats) float64 { return float64(st.Queries.Streaming.Nodes) }},
	{name: "xpqd_stream_first_byte_seconds_total", typ: counter, help: "Summed time to first byte, completed streams only.", stat: func(st *Stats) float64 { return float64(st.Queries.Streaming.FirstByteSumUS) / 1e6 }},
	{name: "xpqd_stream_first_byte_max_seconds", typ: gauge, help: "Worst time to first byte.", stat: func(st *Stats) float64 { return float64(st.Queries.Streaming.FirstByteMaxUS) / 1e6 }},
	{name: "xpqd_stream_chunk_write_seconds_total", typ: counter, help: "Summed chunk encode+write+flush time, completed streams only.", stat: func(st *Stats) float64 { return float64(st.Queries.Streaming.ChunkWriteSumUS) / 1e6 }},
	{name: "xpqd_stream_chunk_write_max_seconds", typ: gauge, help: "Worst single chunk write.", stat: func(st *Stats) float64 { return float64(st.Queries.Streaming.ChunkWriteMaxUS) / 1e6 }},

	// Compiled-query cache.
	{name: "xpqd_qcache_entries", typ: gauge, help: "Compiled queries resident in the query cache.", stat: func(st *Stats) float64 { return float64(st.Cache.Size) }},
	{name: "xpqd_qcache_capacity", typ: gauge, help: "Query cache entry capacity.", stat: func(st *Stats) float64 { return float64(st.Cache.Capacity) }},
	{name: "xpqd_qcache_bytes", typ: gauge, help: "Estimated bytes of cached compiled automata.", stat: func(st *Stats) float64 { return float64(st.Cache.SizeBytes) }},
	{name: "xpqd_qcache_hits_total", typ: counter, help: "Query cache hits.", stat: func(st *Stats) float64 { return float64(st.Cache.Hits) }},
	{name: "xpqd_qcache_misses_total", typ: counter, help: "Query cache misses (compilations).", stat: func(st *Stats) float64 { return float64(st.Cache.Misses) }},
	{name: "xpqd_qcache_evictions_total", typ: counter, help: "Query cache evictions.", stat: func(st *Stats) float64 { return float64(st.Cache.Evictions) }},

	// Evaluation-context pool.
	{name: "xpqd_ctx_pool_hits_total", typ: counter, help: "Evaluations served by a warm pooled context.", stat: func(st *Stats) float64 { return float64(st.Pool.Hits) }},
	{name: "xpqd_ctx_pool_misses_total", typ: counter, help: "Cold context checkouts (a context was constructed).", stat: func(st *Stats) float64 { return float64(st.Pool.Misses) }},
	{name: "xpqd_ctx_pool_guard_trips_total", typ: counter, help: "Cached automata found compiled for another label table than the evaluated document's.", stat: func(st *Stats) float64 { return float64(st.Pool.GuardTrips) }},
	{name: "xpqd_ctx_pool_drops_total", typ: counter, help: "Contexts discarded instead of pooled.", stat: func(st *Stats) float64 { return float64(st.Pool.Drops) }},
	{name: "xpqd_ctx_pool_resident", typ: gauge, help: "Contexts currently parked in the pool.", stat: func(st *Stats) float64 { return float64(st.Pool.Resident) }},
	{name: "xpqd_ctx_pool_arena_bytes", typ: gauge, help: "Scratch bytes kept warm by pooled contexts.", stat: func(st *Stats) float64 { return float64(st.Pool.ArenaBytes) }},

	// MVCC generation chains.
	{name: "xpqd_mvcc_generations_live", typ: gauge, help: "Readable document generations resident.", stat: func(st *Stats) float64 { return float64(st.MVCC.LiveGenerations) }},
	{name: "xpqd_mvcc_generations_pinned", typ: gauge, help: "Superseded generations kept alive by cursor leases or by queries still running on them (the latest is never counted).", stat: func(st *Stats) float64 { return float64(st.MVCC.PinnedGenerations) }},
	{name: "xpqd_mvcc_patches_total", typ: counter, help: "Subtree patches applied.", stat: func(st *Stats) float64 { return float64(st.MVCC.Patches) }},
	{name: "xpqd_mvcc_generations_retired_total", typ: counter, help: "Generations garbage-collected after their readers drained.", stat: func(st *Stats) float64 { return float64(st.MVCC.Retired) }},

	// Mapped (mmap-backed) documents.
	{name: "xpqd_store_mapped_bytes", typ: gauge, help: "Bytes of mmap-backed document files.", stat: func(st *Stats) float64 { return float64(st.Mapped.MappedBytes) }},

	// Residency.
	{name: "xpqd_documents", typ: gauge, help: "Documents resident.", stat: func(st *Stats) float64 { return float64(len(st.Documents)) }},
	{name: "xpqd_doc_bytes", typ: gauge, help: "Resident bytes of documents plus jumping indexes.", stat: func(st *Stats) float64 { return float64(st.DocBytes) }},
	{name: "xpqd_resident_bytes", typ: gauge, help: "Documents, indexes and cached automata resident.", stat: func(st *Stats) float64 { return float64(st.ResidentBytes) }},
	{name: "xpqd_heap_alloc_objects_total", typ: counter, help: "Heap objects allocated process-wide since the service started.", stat: func(st *Stats) float64 { return float64(st.HeapAllocObjects) }},

	{name: "xpqd_uptime_seconds", typ: gauge, help: "Seconds since the service was constructed.", live: func(s *Service) (float64, bool) { return time.Since(s.started).Seconds(), true }},

	// Go runtime, via runtime/metrics (no stop-the-world read).
	{name: "go_goroutines", typ: gauge, help: "Live goroutines.", live: func(*Service) (float64, bool) { return float64(runtime.NumGoroutine()), true }},
	{name: "go_heap_objects_bytes", typ: gauge, help: "Bytes of heap objects marked live by the last GC.", live: func(*Service) (float64, bool) {
		v, ok := runtimeUint64("/gc/heap/live:bytes")
		return float64(v), ok
	}},
	{name: "go_gc_cycles_total", typ: counter, help: "Completed GC cycles.", live: func(*Service) (float64, bool) {
		v, ok := runtimeUint64("/gc/cycles/total:gc-cycles")
		return float64(v), ok
	}},
}

// runtimeUint64 reads one uint64 runtime/metrics sample — cheap, no
// stop-the-world; false when this Go version does not export it.
func runtimeUint64(name string) (uint64, bool) {
	s := []runtimemetrics.Sample{{Name: name}}
	runtimemetrics.Read(s)
	if s[0].Value.Kind() != runtimemetrics.KindUint64 {
		return 0, false
	}
	return s[0].Value.Uint64(), true
}

// WriteMetrics writes one Prometheus exposition of the service's
// metrics to w: the families table over one Stats snapshot.
func (s *Service) WriteMetrics(w io.Writer) error {
	st := s.Stats()
	return s.writeFamilies(w, &st)
}

// writeFamilies walks the table: each family's header, then the
// samples its getter yields.
func (s *Service) writeFamilies(w io.Writer, st *Stats) error {
	p := obsv.NewPromWriter(w)
	// Histogram bounds in seconds, converted once from the service's
	// microsecond bucket bounds (the overflow bin becomes +Inf).
	bounds := make([]float64, len(latencyBuckets))
	for i, us := range latencyBuckets {
		bounds[i] = float64(us) / 1e6
	}
	for _, f := range families {
		switch {
		case f.live != nil:
			if v, ok := f.live(s); ok {
				p.Family(f.name, f.help, f.typ)
				p.Sample(f.name, v)
			}
		case f.stat != nil:
			p.Family(f.name, f.help, f.typ)
			p.Sample(f.name, f.stat(st))
		case f.byLabel != nil:
			p.Family(f.name, f.help, f.typ)
			m := f.byLabel(st)
			for _, k := range slices.Sorted(maps.Keys(m)) {
				p.Sample(f.name, float64(m[k]), f.label, k)
			}
		case f.hist != nil:
			p.Family(f.name, f.help, f.typ)
			bins, sumUS := f.hist(st)
			counts := make([]uint64, len(bins))
			for j, b := range bins {
				counts[j] = b.Count
			}
			p.Histogram(f.name, bounds, counts, float64(sumUS)/1e6)
		}
	}
	return p.Flush()
}
