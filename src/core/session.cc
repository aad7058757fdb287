#include "core/session.h"

#include "bdl/analyzer.h"
#include "dist/dist_error.h"
#include "graph/dot_writer.h"
#include "obs/metrics.h"
#include "obs/names.h"
#include "obs/trace.h"
#include "util/logging.h"

namespace aptrace {

namespace {

/// Observes wall time (not simulated time) spent in an interactive entry
/// point — what an analyst actually waits on.
class WallTimer {
 public:
  explicit WallTimer(const char* histogram_name)
      : histogram_(obs::Metrics().FindOrCreateHistogram(histogram_name)),
        start_(MonotonicNowMicros()) {}
  ~WallTimer() {
    histogram_->Observe(MicrosToSeconds(MonotonicNowMicros() - start_));
  }

 private:
  obs::LatencyHistogram* histogram_;
  TimeMicros start_;
};

}  // namespace

Session::Session(const EventStore* store, Clock* clock,
                 SessionOptions options)
    : store_(store), clock_(clock), options_(options) {}

std::unique_ptr<Executor> Session::MakeExecutor(TrackingContext ctx,
                                                int num_windows_k) {
  return std::make_unique<Executor>(std::move(ctx), clock_, num_windows_k,
                                    options_.temporal_priority);
}

void Session::RefreshSnapshot() {
  SessionSnapshot snap;
  snap.started = engine_ != nullptr;
  if (snap.started) {
    const DepGraph& g = engine_->graph();
    const RunStats& rs = engine_->stats();
    snap.exhausted = engine_->Exhausted();
    snap.graph_nodes = g.NumNodes();
    snap.graph_edges = g.NumEdges();
    snap.max_hop = g.MaxHop();
    snap.update_batches = engine_->update_log().size();
    snap.work_units = rs.work_units;
    snap.events_added = rs.events_added;
    snap.events_filtered = rs.events_filtered;
    snap.objects_excluded = rs.objects_excluded;
    snap.run_start = rs.run_start;
    snap.sim_now = clock_->NowMicros();
    snap.direction = engine_->context().spec.direction;
    snap.start_node = engine_->context().start_node;
    if (executor_ != nullptr) {
      snap.queue_size = executor_->queue_size();
    }
  }
  MutexLock lock(&snapshot_mu_);
  snapshot_ = snap;
}

SessionSnapshot Session::Snapshot() const {
  MutexLock lock(&snapshot_mu_);
  return snapshot_;
}

Status Session::Start(std::string_view bdl_text,
                      std::optional<Event> start_override) {
  auto spec = bdl::CompileBdl(bdl_text);
  if (!spec.ok()) return spec.status();
  return StartWithSpec(std::move(spec.value()), start_override);
}

Status Session::StartWithSpec(bdl::TrackingSpec spec,
                              std::optional<Event> start_override) {
  APTRACE_SPAN("session/resolve_context");
  // Start-point resolution scans the store, so over the distributed
  // fabric it can hit a downed shard daemon just like a Step can:
  // surface the typed DST-E00x error instead of unwinding through the
  // caller (in the daemon, an uncaught throw kills the process).
  Result<TrackingContext> ctx = Status::Ok();
  try {
    ctx = ResolveContext(*store_, std::move(spec), clock_, start_override);
  } catch (const dist::DistError& e) {
    return Status::Internal(e.what());
  }
  if (!ctx.ok()) return ctx.status();
  start_override_ = start_override;
  if (options_.use_baseline) {
    engine_ = std::make_unique<BaselineExecutor>(std::move(ctx.value()),
                                                 clock_);
    executor_ = nullptr;
  } else {
    auto executor = MakeExecutor(std::move(ctx.value()),
                                 options_.num_windows_k);
    executor_ = executor.get();
    engine_ = std::move(executor);
  }
  last_action_ = RefineAction::kNoChange;
  RefreshSnapshot();
  return Status::Ok();
}

Result<StopReason> Session::Step(const RunLimits& limits) {
  if (engine_ == nullptr) {
    return Status::FailedPrecondition("session not started");
  }
  APTRACE_SPAN("session/step");
  WallTimer timer(obs::names::kSessionStepLatency);
  // Keep the published snapshot moving while the engine runs: refresh at
  // every update-batch boundary, then once more after Run returns so the
  // terminal state (exhausted, final totals) is visible immediately.
  RunLimits wrapped = limits;
  wrapped.on_update = [this, &limits](const UpdateBatch& batch) {
    RefreshSnapshot();
    if (limits.on_update) limits.on_update(batch);
  };
  StopReason reason;
  try {
    reason = engine_->Run(wrapped);
  } catch (const dist::DistError& e) {
    // Degraded distributed scan (a shard daemon down, DST-E00x): surface
    // a typed error — the SessionManager marks the session failed with
    // this detail — instead of letting the exception terminate the
    // scheduler thread.
    RefreshSnapshot();
    return Status::Internal(e.what());
  }
  RefreshSnapshot();
  return reason;
}

Status Session::UpdateScript(std::string_view bdl_text) {
  if (engine_ == nullptr) {
    return Status::FailedPrecondition("session not started");
  }
  APTRACE_SPAN("session/update_script");
  WallTimer timer(obs::names::kSessionUpdateScriptLatency);
  auto spec = bdl::CompileBdl(bdl_text);
  if (!spec.ok()) return spec.status();
  // Re-resolution scans the store; same degraded-fabric contract as
  // StartWithSpec.
  Result<TrackingContext> ctx = Status::Ok();
  try {
    ctx = ResolveContext(*store_, std::move(spec.value()), clock_,
                         start_override_);
  } catch (const dist::DistError& e) {
    return Status::Internal(e.what());
  }
  if (!ctx.ok()) return ctx.status();

  const RefineResult refine = Refiner::Classify(engine_->context(),
                                                ctx.value());
  last_action_ = refine.action;
  APTRACE_LOG(Info) << "Refiner: " << RefineActionName(refine.action);

  switch (refine.action) {
    case RefineAction::kNoChange:
      return Status::Ok();
    case RefineAction::kReuse:
      if (executor_ != nullptr) {
        executor_->ApplyRefinedContext(std::move(ctx.value()), refine.delta);
        RefreshSnapshot();
        return Status::Ok();
      }
      // The baseline engine cannot reuse partial work; fall through to a
      // restart (this is exactly the execute-to-complete limitation the
      // paper motivates APTrace with).
      [[fallthrough]];
    case RefineAction::kRestart: {
      const bool use_baseline = options_.use_baseline;
      if (use_baseline) {
        engine_ = std::make_unique<BaselineExecutor>(std::move(ctx.value()),
                                                     clock_);
        executor_ = nullptr;
      } else {
        auto executor = MakeExecutor(std::move(ctx.value()),
                                     options_.num_windows_k);
        executor_ = executor.get();
        engine_ = std::move(executor);
      }
      RefreshSnapshot();
      return Status::Ok();
    }
  }
  return Status::Internal("unreachable");
}

Status Session::Finish(bool prune_to_matched_paths) {
  if (engine_ == nullptr) {
    return Status::FailedPrecondition("session not started");
  }
  if (prune_to_matched_paths && executor_ != nullptr) {
    const size_t removed = executor_->maintainer().PruneToMatchedPaths();
    if (removed > 0) {
      APTRACE_LOG(Info) << "Finish: pruned " << removed
                        << " nodes not on matched paths";
    }
    RefreshSnapshot();
  }
  const auto& spec = engine_->context().spec;
  if (!spec.output_path.empty()) {
    DotOptions opts;
    opts.alert_event = engine_->context().start_event.id;
    return WriteDotFile(engine_->graph(), store_->catalog(),
                        spec.output_path, opts);
  }
  return Status::Ok();
}

}  // namespace aptrace
