package service

import (
	"io"
	"runtime"
	runtimemetrics "runtime/metrics"
	"strconv"
	"time"

	"repro/internal/obsv"
)

// The /metrics endpoint: the same numbers /stats serves as JSON,
// re-expressed in the Prometheus text exposition format (written by
// hand — see internal/obsv/prom.go — so the daemon stays free of
// client-library dependencies). Per-shard series carry a shard label;
// PromQL sums them, so no aggregate duplicates are exported. Exact
// sums (latency, first-byte, chunk-write, lock-wait) back every mean
// /stats reports, and durations are seconds per Prometheus convention
// (the JSON API keeps its microseconds).

// WriteMetrics writes one Prometheus exposition of the service's
// metrics to w: per-shard query counters and latency histograms,
// streaming counters split by completion/abort cause, compiled-query
// cache and context-pool counters, resident-byte gauges, flight
// recorder totals, and Go runtime gauges.
func (s *Service) WriteMetrics(w io.Writer) error {
	st := s.Stats()
	p := obsv.NewPromWriter(w)

	// Histogram bounds in seconds, converted once from the service's
	// microsecond bucket bounds (the overflow bin becomes +Inf).
	bounds := make([]float64, len(latencyBuckets))
	for i, us := range latencyBuckets {
		bounds[i] = float64(us) / 1e6
	}

	p.Family("xpqd_queries_total", "Queries handled, including errors.", obsv.TypeCounter)
	eachShard(p, st, "xpqd_queries_total", func(ss *ShardStats) float64 { return float64(ss.Queries.Total) })
	p.Family("xpqd_query_errors_total", "Queries that failed (parse errors, unknown documents, stale cursors).", obsv.TypeCounter)
	eachShard(p, st, "xpqd_query_errors_total", func(ss *ShardStats) float64 { return float64(ss.Queries.Errors) })
	p.Family("xpqd_visited_nodes_total", "Nodes touched by successful evaluations.", obsv.TypeCounter)
	eachShard(p, st, "xpqd_visited_nodes_total", func(ss *ShardStats) float64 { return float64(ss.Queries.VisitedNodes) })
	p.Family("xpqd_selected_nodes_total", "Nodes selected by successful evaluations.", obsv.TypeCounter)
	eachShard(p, st, "xpqd_selected_nodes_total", func(ss *ShardStats) float64 { return float64(ss.Queries.SelectedNodes) })

	p.Family("xpqd_queries_by_strategy_total", "Successful queries by execution strategy.", obsv.TypeCounter)
	for i := range st.Shards {
		ss := &st.Shards[i]
		for strat, n := range ss.Queries.ByStrategy {
			p.Sample("xpqd_queries_by_strategy_total", float64(n),
				"shard", shardLabel(ss.Shard), "strategy", strat)
		}
	}

	p.Family("xpqd_query_duration_seconds", "End-to-end query latency (successful queries).", obsv.TypeHistogram)
	for i := range st.Shards {
		ss := &st.Shards[i]
		counts := make([]uint64, len(ss.Queries.Latency))
		for j, b := range ss.Queries.Latency {
			counts[j] = b.Count
		}
		p.Histogram("xpqd_query_duration_seconds", bounds, counts,
			float64(ss.Queries.LatencySumUS)/1e6, "shard", shardLabel(ss.Shard))
	}
	p.Family("xpqd_query_duration_max_seconds", "Worst query latency observed.", obsv.TypeGauge)
	eachShard(p, st, "xpqd_query_duration_max_seconds", func(ss *ShardStats) float64 { return float64(ss.Queries.LatencyMaxUS) / 1e6 })

	// Streaming: completed and aborted streams are separate counters
	// (aborts carry their cause), and the latency sums cover completed
	// streams only — mirroring StreamStats.
	p.Family("xpqd_streams_completed_total", "NDJSON streams that delivered their trailer.", obsv.TypeCounter)
	eachShard(p, st, "xpqd_streams_completed_total", func(ss *ShardStats) float64 { return float64(ss.Queries.Streaming.Completed) })
	p.Family("xpqd_streams_aborted_total", "NDJSON streams cut short by the client, by failed write.", obsv.TypeCounter)
	for i := range st.Shards {
		ss := &st.Shards[i]
		p.Sample("xpqd_streams_aborted_total", float64(ss.Queries.Streaming.AbortedHeaderWrite),
			"shard", shardLabel(ss.Shard), "cause", abortHeaderWrite.String())
		p.Sample("xpqd_streams_aborted_total", float64(ss.Queries.Streaming.AbortedChunkWrite),
			"shard", shardLabel(ss.Shard), "cause", abortChunkWrite.String())
	}
	p.Family("xpqd_stream_chunks_total", "NDJSON chunk lines written (completed and aborted streams).", obsv.TypeCounter)
	eachShard(p, st, "xpqd_stream_chunks_total", func(ss *ShardStats) float64 { return float64(ss.Queries.Streaming.Chunks) })
	p.Family("xpqd_stream_nodes_total", "Answer nodes delivered over streams.", obsv.TypeCounter)
	eachShard(p, st, "xpqd_stream_nodes_total", func(ss *ShardStats) float64 { return float64(ss.Queries.Streaming.Nodes) })
	p.Family("xpqd_stream_first_byte_seconds_total", "Summed time to first byte, completed streams only.", obsv.TypeCounter)
	eachShard(p, st, "xpqd_stream_first_byte_seconds_total", func(ss *ShardStats) float64 { return float64(ss.Queries.Streaming.FirstByteSumUS) / 1e6 })
	p.Family("xpqd_stream_first_byte_max_seconds", "Worst time to first byte.", obsv.TypeGauge)
	eachShard(p, st, "xpqd_stream_first_byte_max_seconds", func(ss *ShardStats) float64 { return float64(ss.Queries.Streaming.FirstByteMaxUS) / 1e6 })
	p.Family("xpqd_stream_chunk_write_seconds_total", "Summed chunk encode+write+flush time, completed streams only.", obsv.TypeCounter)
	eachShard(p, st, "xpqd_stream_chunk_write_seconds_total", func(ss *ShardStats) float64 { return float64(ss.Queries.Streaming.ChunkWriteSumUS) / 1e6 })
	p.Family("xpqd_stream_chunk_write_max_seconds", "Worst single chunk write.", obsv.TypeGauge)
	eachShard(p, st, "xpqd_stream_chunk_write_max_seconds", func(ss *ShardStats) float64 { return float64(ss.Queries.Streaming.ChunkWriteMaxUS) / 1e6 })

	// Compiled-query cache, per shard.
	p.Family("xpqd_qcache_entries", "Compiled automata resident in the query cache.", obsv.TypeGauge)
	eachShard(p, st, "xpqd_qcache_entries", func(ss *ShardStats) float64 { return float64(ss.Cache.Size) })
	p.Family("xpqd_qcache_capacity", "Query cache entry capacity.", obsv.TypeGauge)
	eachShard(p, st, "xpqd_qcache_capacity", func(ss *ShardStats) float64 { return float64(ss.Cache.Capacity) })
	p.Family("xpqd_qcache_bytes", "Estimated bytes of cached compiled automata.", obsv.TypeGauge)
	eachShard(p, st, "xpqd_qcache_bytes", func(ss *ShardStats) float64 { return float64(ss.Cache.SizeBytes) })
	p.Family("xpqd_qcache_hits_total", "Query cache hits.", obsv.TypeCounter)
	eachShard(p, st, "xpqd_qcache_hits_total", func(ss *ShardStats) float64 { return float64(ss.Cache.Hits) })
	p.Family("xpqd_qcache_misses_total", "Query cache misses (compilations).", obsv.TypeCounter)
	eachShard(p, st, "xpqd_qcache_misses_total", func(ss *ShardStats) float64 { return float64(ss.Cache.Misses) })
	p.Family("xpqd_qcache_evictions_total", "Query cache evictions.", obsv.TypeCounter)
	eachShard(p, st, "xpqd_qcache_evictions_total", func(ss *ShardStats) float64 { return float64(ss.Cache.Evictions) })

	// Evaluation-context pool, per shard.
	p.Family("xpqd_ctx_pool_hits_total", "Evaluations served by a warm pooled context.", obsv.TypeCounter)
	eachShard(p, st, "xpqd_ctx_pool_hits_total", func(ss *ShardStats) float64 { return float64(ss.Pool.Hits) })
	p.Family("xpqd_ctx_pool_misses_total", "Cold context checkouts (fresh or guard-reset).", obsv.TypeCounter)
	eachShard(p, st, "xpqd_ctx_pool_misses_total", func(ss *ShardStats) float64 { return float64(ss.Pool.Misses) })
	p.Family("xpqd_ctx_pool_guard_trips_total", "Generation-guard resets on checkout.", obsv.TypeCounter)
	eachShard(p, st, "xpqd_ctx_pool_guard_trips_total", func(ss *ShardStats) float64 { return float64(ss.Pool.GuardTrips) })
	p.Family("xpqd_ctx_pool_drops_total", "Contexts discarded instead of pooled.", obsv.TypeCounter)
	eachShard(p, st, "xpqd_ctx_pool_drops_total", func(ss *ShardStats) float64 { return float64(ss.Pool.Drops) })
	p.Family("xpqd_ctx_pool_resident", "Contexts currently parked in pools.", obsv.TypeGauge)
	eachShard(p, st, "xpqd_ctx_pool_resident", func(ss *ShardStats) float64 { return float64(ss.Pool.Resident) })
	p.Family("xpqd_ctx_pool_arena_bytes", "Scratch bytes kept warm by pooled contexts.", obsv.TypeGauge)
	eachShard(p, st, "xpqd_ctx_pool_arena_bytes", func(ss *ShardStats) float64 { return float64(ss.Pool.ArenaBytes) })

	// Observed-latency Auto selector, per shard. Wins carry a strategy
	// label; the gauges summarize model quality (estimate error) and
	// behavior (exploration is derivable as explorations/decisions).
	p.Family("xpqd_auto_shapes", "Query shapes tracked by the Auto selector.", obsv.TypeGauge)
	eachShard(p, st, "xpqd_auto_shapes", func(ss *ShardStats) float64 { return float64(ss.Auto.Shapes) })
	p.Family("xpqd_auto_decisions_total", "Auto routing decisions.", obsv.TypeCounter)
	eachShard(p, st, "xpqd_auto_decisions_total", func(ss *ShardStats) float64 { return float64(ss.Auto.Decisions) })
	p.Family("xpqd_auto_explorations_total", "Auto decisions spent re-measuring a non-best candidate.", obsv.TypeCounter)
	eachShard(p, st, "xpqd_auto_explorations_total", func(ss *ShardStats) float64 { return float64(ss.Auto.Explorations) })
	p.Family("xpqd_auto_short_circuits_total", "Chain queries answered empty from the index (absent label), no engine run.", obsv.TypeCounter)
	eachShard(p, st, "xpqd_auto_short_circuits_total", func(ss *ShardStats) float64 { return float64(ss.Auto.ShortCircuits) })
	p.Family("xpqd_auto_observations_total", "Completed evaluations fed back into the selector.", obsv.TypeCounter)
	eachShard(p, st, "xpqd_auto_observations_total", func(ss *ShardStats) float64 { return float64(ss.Auto.Observations) })
	p.Family("xpqd_auto_wins_total", "Auto decisions by winning strategy.", obsv.TypeCounter)
	for i := range st.Shards {
		ss := &st.Shards[i]
		for strat, n := range ss.Auto.WinsByStrategy {
			p.Sample("xpqd_auto_wins_total", float64(n),
				"shard", shardLabel(ss.Shard), "strategy", strat)
		}
	}
	p.Family("xpqd_auto_estimate_error_pct", "Mean |observed-estimated|/observed latency error of the selector's EWMA model, percent.", obsv.TypeGauge)
	eachShard(p, st, "xpqd_auto_estimate_error_pct", func(ss *ShardStats) float64 { return ss.Auto.EstimateErrorPct })

	// MVCC generation chains, per shard.
	p.Family("xpqd_mvcc_generations_live", "Readable document generations resident per shard.", obsv.TypeGauge)
	eachShard(p, st, "xpqd_mvcc_generations_live", func(ss *ShardStats) float64 { return float64(ss.MVCC.LiveGenerations) })
	p.Family("xpqd_mvcc_generations_pinned", "Superseded generations kept alive by cursor leases or by queries still running on them (the latest is never counted).", obsv.TypeGauge)
	eachShard(p, st, "xpqd_mvcc_generations_pinned", func(ss *ShardStats) float64 { return float64(ss.MVCC.PinnedGenerations) })
	p.Family("xpqd_mvcc_patches_total", "Subtree patches applied.", obsv.TypeCounter)
	eachShard(p, st, "xpqd_mvcc_patches_total", func(ss *ShardStats) float64 { return float64(ss.MVCC.Patches) })
	p.Family("xpqd_mvcc_generations_retired_total", "Generations garbage-collected after their readers drained.", obsv.TypeCounter)
	eachShard(p, st, "xpqd_mvcc_generations_retired_total", func(ss *ShardStats) float64 { return float64(ss.MVCC.Retired) })

	// Mapped (mmap-backed) documents, per shard.
	p.Family("xpqd_store_mapped_bytes", "Bytes of mmap-backed document files per shard.", obsv.TypeGauge)
	eachShard(p, st, "xpqd_store_mapped_bytes", func(ss *ShardStats) float64 { return float64(ss.Mapped.MappedBytes) })
	p.Family("xpqd_store_mapped_charged_bytes", "Mapped bytes counted hot against the resident budget.", obsv.TypeGauge)
	eachShard(p, st, "xpqd_store_mapped_charged_bytes", func(ss *ShardStats) float64 { return float64(ss.Mapped.ChargedBytes) })
	p.Family("xpqd_store_map_faults_total", "Accesses that re-heated a budget-released mapping.", obsv.TypeCounter)
	eachShard(p, st, "xpqd_store_map_faults_total", func(ss *ShardStats) float64 { return float64(ss.Mapped.MapFaults) })

	// Residency and contention, per shard.
	p.Family("xpqd_shard_documents", "Documents resident per shard.", obsv.TypeGauge)
	eachShard(p, st, "xpqd_shard_documents", func(ss *ShardStats) float64 { return float64(ss.Documents) })
	p.Family("xpqd_shard_engines", "Engines attached per shard.", obsv.TypeGauge)
	eachShard(p, st, "xpqd_shard_engines", func(ss *ShardStats) float64 { return float64(ss.Engines) })
	p.Family("xpqd_doc_bytes", "Resident bytes of documents plus jumping indexes.", obsv.TypeGauge)
	eachShard(p, st, "xpqd_doc_bytes", func(ss *ShardStats) float64 { return float64(ss.DocBytes) })
	p.Family("xpqd_resident_bytes", "Documents, indexes and cached automata resident per shard.", obsv.TypeGauge)
	eachShard(p, st, "xpqd_resident_bytes", func(ss *ShardStats) float64 { return float64(ss.ResidentBytes) })
	p.Family("xpqd_lock_wait_seconds_total", "Summed wait for the shard engine-table lock.", obsv.TypeCounter)
	eachShard(p, st, "xpqd_lock_wait_seconds_total", func(ss *ShardStats) float64 { return float64(ss.LockWaitTotalNS) / 1e9 })
	p.Family("xpqd_lock_wait_max_seconds", "Worst single wait for the shard engine-table lock.", obsv.TypeGauge)
	eachShard(p, st, "xpqd_lock_wait_max_seconds", func(ss *ShardStats) float64 { return float64(ss.LockWaitMaxNS) / 1e9 })
	p.Family("xpqd_lock_acquires_total", "Shard engine-table lock acquisitions.", obsv.TypeCounter)
	eachShard(p, st, "xpqd_lock_acquires_total", func(ss *ShardStats) float64 { return float64(ss.LockAcquires) })

	// Service-wide gauges (no shard label).
	if st.CacheBudget != nil {
		p.Family("xpqd_qcache_budget_used_bytes", "Bytes charged against the shared compile budget.", obsv.TypeGauge)
		p.Sample("xpqd_qcache_budget_used_bytes", float64(st.CacheBudget.UsedBytes))
		p.Family("xpqd_qcache_budget_max_bytes", "Shared compile budget ceiling.", obsv.TypeGauge)
		p.Sample("xpqd_qcache_budget_max_bytes", float64(st.CacheBudget.MaxBytes))
	}
	p.Family("xpqd_documents", "Documents resident across all shards.", obsv.TypeGauge)
	p.Sample("xpqd_documents", float64(len(st.Documents)))
	p.Family("xpqd_shards", "Serving partitions.", obsv.TypeGauge)
	p.Sample("xpqd_shards", float64(len(st.Shards)))
	p.Family("xpqd_heap_alloc_objects_total", "Heap objects allocated process-wide since the service started.", obsv.TypeCounter)
	p.Sample("xpqd_heap_alloc_objects_total", float64(st.HeapAllocObjects))

	// Flight recorder lifetime counters (ring residency is bounded, so
	// only the monotonic admissions are exported).
	total, slow, aborted := s.flight.Counts()
	p.Family("xpqd_flight_queries_total", "Queries admitted to the flight recorder.", obsv.TypeCounter)
	p.Sample("xpqd_flight_queries_total", float64(total))
	p.Family("xpqd_slow_queries_total", "Queries at or above the slow-query threshold.", obsv.TypeCounter)
	p.Sample("xpqd_slow_queries_total", float64(slow))
	p.Family("xpqd_aborted_queries_total", "Queries whose client went away mid-response.", obsv.TypeCounter)
	p.Sample("xpqd_aborted_queries_total", float64(aborted))

	p.Family("xpqd_uptime_seconds", "Seconds since the service was constructed.", obsv.TypeGauge)
	p.Sample("xpqd_uptime_seconds", time.Since(s.started).Seconds())

	// Go runtime gauges, via runtime/metrics (no stop-the-world read).
	samples := []runtimemetrics.Sample{
		{Name: "/memory/classes/heap/objects:bytes"},
		{Name: "/gc/cycles/total:gc-cycles"},
	}
	runtimemetrics.Read(samples)
	p.Family("go_goroutines", "Live goroutines.", obsv.TypeGauge)
	p.Sample("go_goroutines", float64(runtime.NumGoroutine()))
	if samples[0].Value.Kind() == runtimemetrics.KindUint64 {
		p.Family("go_heap_objects_bytes", "Bytes of live heap objects.", obsv.TypeGauge)
		p.Sample("go_heap_objects_bytes", float64(samples[0].Value.Uint64()))
	}
	if samples[1].Value.Kind() == runtimemetrics.KindUint64 {
		p.Family("go_gc_cycles_total", "Completed GC cycles.", obsv.TypeCounter)
		p.Sample("go_gc_cycles_total", float64(samples[1].Value.Uint64()))
	}

	return p.Flush()
}

// eachShard emits one sample per shard with a shard label.
func eachShard(p *obsv.PromWriter, st Stats, name string, value func(*ShardStats) float64) {
	for i := range st.Shards {
		p.Sample(name, value(&st.Shards[i]), "shard", shardLabel(st.Shards[i].Shard))
	}
}

func shardLabel(i int) string { return strconv.Itoa(i) }
