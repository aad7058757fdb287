#ifndef APTRACE_OBS_NAMES_H_
#define APTRACE_OBS_NAMES_H_

/// \file
/// Catalog of the engine's metric names (docs/observability.md documents
/// each). Every name lives here so instrumentation sites, the
/// pre-registration in MetricsRegistry::Global(), tests, and dashboards
/// agree on spelling. Conventions:
///   - counters end in `_total`
///   - latency histograms are observed in seconds
///   - `aptrace_update_batch_latency` uses *simulated* seconds (the
///     paper's responsiveness metric); the session/bdl histograms use
///     real wall time.

namespace aptrace::obs::names {

// Responsive executor (core/executor.cc).
inline constexpr char kExecutorWindowsProcessed[] =
    "aptrace_executor_windows_processed_total";
inline constexpr char kExecutorWindowsEnqueued[] =
    "aptrace_executor_windows_enqueued_total";
inline constexpr char kExecutorStaleWindows[] =
    "aptrace_executor_stale_windows_total";
inline constexpr char kExecutorQueueRebuilds[] =
    "aptrace_executor_queue_rebuilds_total";
inline constexpr char kExecutorQueueDepth[] = "aptrace_executor_queue_depth";
inline constexpr char kDedupWindowClips[] = "aptrace_dedup_window_clips_total";

// Batched collection (core/executor.cc): windows whose rows an earlier
// CollectMany of the same Run had already collected.
inline constexpr char kExecutorPrefetchHits[] =
    "aptrace_executor_prefetch_hits_total";
inline constexpr char kExecutorScanCostMicros[] =
    "aptrace_executor_scan_cost_micros_total";

// Execute-to-complete baseline (core/baseline_executor.cc).
inline constexpr char kBaselineNodeQueries[] =
    "aptrace_baseline_node_queries_total";

// Event store (storage/storage_backend.cc). The aggregate counters sum
// over all backends; the per-backend `aptrace_store_<backend>_*` names
// carry the backend dimension (the Prometheus exporter emits one # TYPE
// line per name, so the dimension is a name suffix rather than a label).
inline constexpr char kStoreQueries[] = "aptrace_store_queries_total";
inline constexpr char kStoreEventsScanned[] =
    "aptrace_store_events_scanned_total";
inline constexpr char kStoreRowsFiltered[] =
    "aptrace_store_rows_filtered_total";
inline constexpr char kStoreSegmentsPruned[] =
    "aptrace_store_segments_pruned_total";
inline constexpr char kStoreRowQueries[] =
    "aptrace_store_row_queries_total";
inline constexpr char kStoreColumnarQueries[] =
    "aptrace_store_columnar_queries_total";

// Sharded store engine (storage/sharded_store.cc): scatter-gather scans
// over (host, time-partition) shards. docs/sharding.md documents the
// partitioning; the per-shard rows in /sessions carry the per-shard
// breakdown of these process-wide totals.
inline constexpr char kStoreShards[] = "aptrace_store_shards";
inline constexpr char kStoreShardScans[] = "aptrace_store_shard_scans_total";
inline constexpr char kStoreShardFanout[] =
    "aptrace_store_shard_fanout_total";
inline constexpr char kStoreShardBoundaryRows[] =
    "aptrace_store_shard_boundary_rows_total";

// Distributed shard fabric (src/dist/): coordinator-side RPCs to remote
// shard daemons (docs/distribution.md). kDistRpcs counts completed RPC
// round trips (any outcome), kDistRetries redials after a transport
// failure, kDistShardDown RPCs abandoned after the retry budget (each
// one surfaces as a typed DST-E005 degraded error, never a hang).
inline constexpr char kDistRpcs[] = "aptrace_dist_rpcs_total";
inline constexpr char kDistRetries[] = "aptrace_dist_retries_total";
inline constexpr char kDistShardDown[] = "aptrace_dist_shard_down_total";

// Durable ingest: write-ahead log (storage/wal.cc) and recovery
// (storage/recovery.cc). docs/durability.md documents the pipeline.
inline constexpr char kWalAppendedBatches[] =
    "aptrace_wal_appended_batches_total";
inline constexpr char kWalAppendedEvents[] =
    "aptrace_wal_appended_events_total";
inline constexpr char kWalAppendedBytes[] =
    "aptrace_wal_appended_bytes_total";
inline constexpr char kWalSyncs[] = "aptrace_wal_syncs_total";
inline constexpr char kWalAppendFailures[] =
    "aptrace_wal_append_failures_total";
inline constexpr char kWalRecoveredBatches[] =
    "aptrace_wal_recovered_batches_total";
inline constexpr char kWalRecoveredEvents[] =
    "aptrace_wal_recovered_events_total";
inline constexpr char kWalDuplicatesSkipped[] =
    "aptrace_wal_duplicates_skipped_total";
inline constexpr char kWalTruncatedBytes[] =
    "aptrace_wal_truncated_bytes_total";

// Tiered-storage lifecycle (storage/columnar_backend.cc): hot tail ->
// sealed segments -> compacted -> evicted.
inline constexpr char kStoreTailSeals[] = "aptrace_store_tail_seals_total";
inline constexpr char kStoreTailSealedRows[] =
    "aptrace_store_tail_sealed_rows_total";
inline constexpr char kStoreCompactions[] =
    "aptrace_store_compactions_total";
inline constexpr char kStoreSegmentsCompacted[] =
    "aptrace_store_segments_compacted_total";
inline constexpr char kStoreRowsEvicted[] =
    "aptrace_store_rows_evicted_total";
inline constexpr char kStoreSegmentsEvicted[] =
    "aptrace_store_segments_evicted_total";
inline constexpr char kStoreSnapshots[] = "aptrace_store_snapshots_total";

// Refiner decisions (core/refiner.cc).
inline constexpr char kRefinerReuse[] = "aptrace_refiner_reuse_total";
inline constexpr char kRefinerRestart[] = "aptrace_refiner_restart_total";
inline constexpr char kRefinerNoChange[] = "aptrace_refiner_nochange_total";

// BDL compiler (bdl/analyzer.cc).
inline constexpr char kBdlCompiles[] = "aptrace_bdl_compiles_total";
inline constexpr char kBdlCompileErrors[] =
    "aptrace_bdl_compile_errors_total";
inline constexpr char kBdlCompileLatency[] = "aptrace_bdl_compile_latency";

// BDL linter (bdl/lint.cc).
inline constexpr char kBdlLintRuns[] = "aptrace_bdl_lint_runs_total";
inline constexpr char kBdlLintErrors[] = "aptrace_bdl_lint_errors_total";
inline constexpr char kBdlLintWarnings[] =
    "aptrace_bdl_lint_warnings_total";

// Interactive session (core/session.cc).
inline constexpr char kSessionStepLatency[] = "aptrace_session_step_latency";
inline constexpr char kSessionUpdateScriptLatency[] =
    "aptrace_session_update_script_latency";

// Update batches (both engines): simulated seconds between consecutive
// graph updates — the paper's Table II responsiveness metric.
inline constexpr char kUpdateBatchLatency[] = "aptrace_update_batch_latency";

// Multi-session query service (service/session_manager.cc + server.cc).
inline constexpr char kServiceSessionsOpened[] =
    "aptrace_service_sessions_opened_total";
inline constexpr char kServiceSessionsLive[] =
    "aptrace_service_sessions_live";
inline constexpr char kServiceAdmissionRejected[] =
    "aptrace_service_admission_rejected_total";
inline constexpr char kServiceQuanta[] = "aptrace_service_quanta_total";
inline constexpr char kServiceBackpressureStalls[] =
    "aptrace_service_backpressure_stalls_total";
inline constexpr char kServiceIngestEvents[] =
    "aptrace_service_ingest_events_total";
inline constexpr char kServiceIngestRejected[] =
    "aptrace_service_ingest_rejected_total";
/// Wall seconds from `open` to a session's first streamed update batch —
/// the service-level responsiveness figure.
inline constexpr char kServiceFirstUpdateLatency[] =
    "aptrace_service_first_update_latency";
inline constexpr char kServiceRequests[] =
    "aptrace_service_requests_total";
inline constexpr char kServiceRequestErrors[] =
    "aptrace_service_request_errors_total";
inline constexpr char kServiceHttpRequests[] =
    "aptrace_service_http_requests_total";
inline constexpr char kServiceSlowQueries[] =
    "aptrace_service_slow_queries_total";
inline constexpr char kServiceFlightDumps[] =
    "aptrace_service_flight_dumps_total";

}  // namespace aptrace::obs::names

#endif  // APTRACE_OBS_NAMES_H_
