#ifndef APTRACE_CORE_SESSION_H_
#define APTRACE_CORE_SESSION_H_

#include <memory>
#include <optional>
#include <string_view>

#include "core/backtrack_engine.h"
#include "core/baseline_executor.h"
#include "core/executor.h"
#include "core/refiner.h"
#include "storage/event_store.h"
#include "util/status.h"
#include "util/sync.h"

namespace aptrace {

struct SessionOptions {
  /// Window count k of the execution-window partitioning algorithm.
  int num_windows_k = 8;

  /// Use the execute-to-complete baseline engine instead of APTrace's
  /// responsive Executor (for comparison experiments).
  bool use_baseline = false;

  /// Nearest-first window ordering (Algorithm 1); false = FIFO ablation.
  bool temporal_priority = true;

  /// No effect: the Executor owns no scan threads. It collects windows in
  /// batches of the store's capabilities().collect_batch instead (see
  /// docs/parallel_execution.md). Kept only so existing callers that
  /// still assign it compile.
  int scan_threads = 1;
};

/// One coherent view of a session's progress, captured atomically with
/// respect to other Snapshot() readers — the session-level analog of the
/// single-mutex StoreStats pattern (storage/storage_backend.h). Engine
/// counters, graph totals, and the update count come from the same
/// refresh instant, so a reader never sees e.g. a batch count ahead of
/// the edge total it reported. Refreshed at Step entry/exit and at every
/// update-batch boundary inside a Step, so concurrent readers (the shell
/// `status` command, the daemon's `stats`/`poll` ops) observe steadily
/// advancing, never torn, figures.
struct SessionSnapshot {
  bool started = false;
  bool exhausted = false;
  size_t graph_nodes = 0;
  size_t graph_edges = 0;
  int max_hop = 0;
  size_t update_batches = 0;
  uint64_t work_units = 0;
  uint64_t events_added = 0;
  uint64_t events_filtered = 0;
  uint64_t objects_excluded = 0;
  TimeMicros run_start = 0;
  /// Session clock at the refresh instant (simulated micros).
  TimeMicros sim_now = 0;
  size_t queue_size = 0;
  bdl::TrackDirection direction = bdl::TrackDirection::kBackward;
  ObjectId start_node = kInvalidObjectId;
};

/// An interactive analysis session — the workflow of the paper's Figure 3:
///
///   Session s(&store, &clock);
///   s.Start(bdl_v1);
///   s.Step({.max_updates = 10});   // monitor the first updates...
///   s.UpdateScript(bdl_v2);        // ...pause, add a heuristic, resume
///   s.Step(...);
///   s.Finish();                    // prune to matched paths, write DOT
///
/// Pausing is implicit: the engine only runs inside Step(), and
/// UpdateScript() between Steps routes through the Refiner, which reuses
/// the cached graph whenever the starting point is unchanged.
class Session {
 public:
  Session(const EventStore* store, Clock* clock, SessionOptions options = {});

  /// Compiles the script, resolves the starting point, and prepares the
  /// engine. `start_override` injects an explicit alert event (used by the
  /// experiment harness to backtrack from random events).
  Status Start(std::string_view bdl_text,
               std::optional<Event> start_override = std::nullopt);

  /// Starts from an already compiled spec.
  Status StartWithSpec(bdl::TrackingSpec spec,
                       std::optional<Event> start_override = std::nullopt);

  /// Runs the engine until a limit triggers; resumable.
  Result<StopReason> Step(const RunLimits& limits = {});

  /// Replaces the script between Steps (paper: pause, edit BDL, resume).
  /// Routes through the Refiner: compatible changes reuse the cached
  /// graph, incompatible ones restart the analysis.
  Status UpdateScript(std::string_view bdl_text);

  /// What the Refiner did on the last UpdateScript call.
  RefineAction last_refine_action() const { return last_action_; }

  bool started() const { return engine_ != nullptr; }
  bool Exhausted() const { return engine_ != nullptr && engine_->Exhausted(); }

  /// Tear-free progress view; safe to call from a thread other than the
  /// one driving Step() (see SessionSnapshot). All other accessors below
  /// must only be used when no Step() is in flight.
  SessionSnapshot Snapshot() const;

  /// Per-hop / per-rule query profile of the responsive engine ("EXPLAIN
  /// ANALYZE"; see core/query_profile.h); nullptr on the baseline engine.
  /// Same thread rules as the other engine accessors: no Step() in flight.
  const QueryProfile* profile() const {
    return executor_ != nullptr ? &executor_->profile() : nullptr;
  }

  /// The responsive engine behind this session, for profile-adjacent
  /// accessors (scan_cost_total etc.); nullptr on the baseline engine.
  const Executor* executor() const { return executor_; }

  const DepGraph& graph() const { return engine_->graph(); }
  const UpdateLog& update_log() const { return engine_->update_log(); }
  const RunStats& stats() const { return engine_->stats(); }
  const TrackingContext& context() const { return engine_->context(); }
  BacktrackEngine* engine() { return engine_.get(); }

  /// Persists the whole paused session (script, starting point, engine
  /// state) to a file; resume later — in another process — with
  /// LoadCheckpoint on a Session over the same store. Responsive engine
  /// only. `mark`, when non-null, embeds the daemon's durable-ingest
  /// position (see CheckpointDurableMark) so resume refuses a data
  /// directory that lost acknowledged batches.
  Status SaveCheckpoint(const std::string& path,
                        const CheckpointDurableMark* mark = nullptr) const;
  Status LoadCheckpoint(const std::string& path);

  /// Finalizes the result (paper Section III-A): optionally removes the
  /// paths that do not satisfy the intermediate points, then writes the
  /// DOT output if the script requested one.
  Status Finish(bool prune_to_matched_paths = true);

 private:
  /// Constructs a responsive Executor wired per options_ (priority
  /// mode); shared by Start, restart, and checkpoint load.
  std::unique_ptr<Executor> MakeExecutor(TrackingContext ctx,
                                         int num_windows_k);
  /// Recomputes the cached snapshot from the engine. Caller must be the
  /// thread driving the engine (no concurrent Step).
  void RefreshSnapshot();

  const EventStore* store_;
  Clock* clock_;
  SessionOptions options_;
  std::unique_ptr<BacktrackEngine> engine_;
  Executor* executor_ = nullptr;  // engine_ downcast when !use_baseline
  std::optional<Event> start_override_;
  RefineAction last_action_ = RefineAction::kNoChange;

  mutable Mutex snapshot_mu_{"Session::snapshot_mu_"};
  SessionSnapshot snapshot_ APTRACE_GUARDED_BY(snapshot_mu_);
};

}  // namespace aptrace

#endif  // APTRACE_CORE_SESSION_H_
