#ifndef APTRACE_CORE_EXECUTOR_H_
#define APTRACE_CORE_EXECUTOR_H_

#include <iosfwd>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/backtrack_engine.h"
#include "core/exec_window.h"
#include "core/maintainer.h"
#include "core/query_profile.h"

namespace aptrace {

/// What the Refiner decided changed between two compatible specs (same
/// starting point, same time/host range). See core/refiner.h.
struct RefineDelta {
  bool chain_changed = false;
  bool where_changed = false;
  bool prioritize_changed = false;
  bool budgets_changed = false;
  /// The new global time range is a subset of the old one: cached scans
  /// are supersets of what the narrowed analysis needs, so the graph and
  /// queue are pruned/clamped instead of restarting.
  bool range_narrowed = false;
};

/// Durable-ingest mark embedded in daemon checkpoints (record kind "D"):
/// what the store durably held when the checkpoint was taken. On restore
/// the store must hold at least `store_events` events, otherwise the data
/// directory lost acknowledged batches and resuming would serve a graph
/// over events that no longer exist (STO-E009). `wal_seq` records the
/// last acknowledged WAL batch so operators can line the checkpoint up
/// against `wal_applied_through` in the daemon's stats.
struct CheckpointDurableMark {
  uint64_t store_events = 0;
  uint64_t wal_seq = 0;
};

/// The responsive Executor (paper Section III-B1, Algorithm 1).
///
/// A prioritized graph search over *execution windows* rather than whole
/// per-node history scans: exploring an event enqueues up to k
/// geometrically-sized windows over its past, nearest-first, so dependents
/// arrive in many small batches and the dependency graph updates steadily.
///
/// Per-object scan coverage is tracked so overlapping windows from
/// different dependent events never rescan the same history
/// ("no new nodes that could be explored" termination).
///
/// Every window is one scan: its rows are collected (EventStore::
/// CollectDest/CollectSrc) and then replayed through the Algorithm 1
/// bookkeeping on the coordinator — host/where filtering, exclusion
/// decisions, graph and maintainer mutation, coverage watermarks,
/// update-log batches, and all simulated-cost charging.
///
/// Batched collection (docs/parallel_execution.md): the store's
/// capabilities().collect_batch is B. At B = 1 (every in-process
/// backend) the popped window is collected inline. At B > 1 (a remote
/// shard fleet, where each collect call is a round trip) a popped window
/// without rows is collected in one EventStore::CollectMany together
/// with the next B - 1 highest-priority queued windows that have no rows
/// and are not stale; their rows wait in a per-Run cache keyed by seq.
/// Collection is pure and the store does not change inside Run, and
/// windows are still popped and replayed in the exact Algorithm 1 order,
/// so the graph, update log, stats, and stop reason are bit-identical
/// for any B (tests/executor_differential_test.cc enforces this). The
/// executor owns no thread.
class Executor : public BacktrackEngine {
 public:
  /// `num_windows_k` is the user-configurable window count k (the paper's
  /// blue team used the empirical value 8). `temporal_priority` selects
  /// the nearest-first window ordering of Algorithm 1; false degrades to
  /// FIFO (the ablation in bench_ablation_priority). `coverage_dedup`
  /// clips re-enqueued windows against the per-object scan watermark;
  /// false re-scans overlapping history (the ablation in
  /// bench_ablation_dedup) — results are identical, work is not.
  Executor(TrackingContext ctx, Clock* clock, int num_windows_k = 8,
           bool temporal_priority = true, bool coverage_dedup = true);

  StopReason Run(const RunLimits& limits) override;
  bool Exhausted() const override { return bootstrapped_ && queue_.empty(); }

  const DepGraph& graph() const override { return graph_; }
  DepGraph* mutable_graph() override { return &graph_; }
  const UpdateLog& update_log() const override { return log_; }
  const RunStats& stats() const override { return stats_; }
  const TrackingContext& context() const override { return ctx_; }

  GraphMaintainer& maintainer() { return maintainer_; }
  int num_windows_k() const { return k_; }
  size_t queue_size() const { return queue_.size(); }

  /// Total simulated cost of the scans this executor charged
  /// (deterministic per input).
  DurationMicros scan_cost_total() const { return scan_cost_total_; }

  /// Per-hop / per-rule attribution of everything this executor scanned
  /// (the "EXPLAIN ANALYZE" view; see core/query_profile.h). Purely
  /// observational: reading it — or ignoring it — never changes the run.
  /// Profiles cover this process's work only (not serialized with
  /// checkpoints). Coordinator-thread data: read only when no Run() is in
  /// flight.
  const QueryProfile& profile() const { return profile_; }

  /// Persists the paused engine state — graph (with hops/states),
  /// pending windows, scan coverage, exclusions, update log, counters —
  /// as line-oriented text, so an investigation can resume in another
  /// process. Restore with RestoreCheckpoint on a freshly constructed
  /// Executor over the same store and an equivalent context.
  ///
  /// `mark`, when non-null, embeds a durable-ingest mark (record kind
  /// "D") recording the store size and last acknowledged WAL batch at
  /// checkpoint time. RestoreCheckpoint then refuses (STO-E009) to
  /// resume over a store that holds fewer events than the mark — i.e.
  /// a data directory that lost acknowledged batches — so a recovered
  /// daemon never serves a graph over events it no longer has, and
  /// replaying the WAL past `wal_seq` never double-ingests.
  Status SaveCheckpoint(std::ostream& os,
                        const CheckpointDurableMark* mark = nullptr) const;
  Status RestoreCheckpoint(std::istream& is);

  /// Refiner entry point for compatible spec changes (paper Section
  /// III-B3): swaps in the new context and reuses the cached graph —
  /// re-propagating states when the chain changed, pruning nodes and
  /// pending windows when the where filter changed, and re-deriving
  /// prioritize boosts — all without touching the database.
  ///
  /// Note: where-filter reuse assumes the analyst *tightens* filters over
  /// iterations (the paper's workflow); relaxing a filter requires a
  /// restart, which the Session performs when the Refiner detects an
  /// incompatible change.
  void ApplyRefinedContext(TrackingContext new_ctx, const RefineDelta& delta);

 private:
  void Bootstrap();
  /// Applies one window's collected rows to the graph: replays `batch`
  /// through the host/where filter and the graph/maintainer updates.
  /// `scan_cost` receives the simulated cost charged; `probe` the scan's
  /// attribution record for the query profile.
  void ProcessWindow(const RangeScanBatch& batch, size_t* batch_edges,
                     size_t* batch_nodes, DurationMicros* scan_cost,
                     ScanProbeStats* probe);
  /// Enqueues the uncovered execution windows of `e` (Algorithm 1's
  /// genExeWindow), priced with the current state/boost of its source.
  void EnqueueWindowsFor(const Event& e, int state);
  /// Drains and re-pushes the queue, dropping stale windows and refreshing
  /// state/boost priorities from the current graph.
  void RebuildQueue();

  /// The frontier was excluded or has outgrown the hop limit since `w`
  /// was enqueued: the window is dropped unscanned.
  bool IsStale(const ExecWindow& w) const;
  /// The popped window `w`'s rows: collected inline at B = 1; at B > 1
  /// taken from the per-Run cache, or collected in one CollectMany with
  /// the next B - 1 queued windows that have no rows and are not stale.
  RangeScanBatch TakeRows(const ExecWindow& w);
  StopReason RunLoop(const RunLimits& limits);

  TrackingContext ctx_;
  Clock* clock_;
  int k_;
  bool coverage_dedup_;
  DepGraph graph_;
  GraphMaintainer maintainer_;
  UpdateLog log_;
  RunStats stats_;
  WindowQueue queue_;
  /// Per-object high-water mark of scheduled scan coverage [ctx.ts, t).
  std::unordered_map<ObjectId, TimeMicros> covered_until_;
  /// Objects deleted from the analysis by the where statement.
  std::unordered_set<ObjectId> excluded_;
  uint64_t seq_ = 0;
  bool bootstrapped_ = false;

  /// Windows collected per CollectMany (the store's collect_batch).
  size_t collect_batch_ = 1;
  DurationMicros scan_cost_total_ = 0;
  QueryProfile profile_;
  /// Window seq -> rows collected by an earlier CollectMany of this Run.
  /// Emptied whenever Run returns, so no row outlives a quantum, an
  /// ingest, a refine, or a checkpoint.
  std::unordered_map<uint64_t, RangeScanBatch> collected_;
};

}  // namespace aptrace

#endif  // APTRACE_CORE_EXECUTOR_H_
