#include "core/executor.h"

#include <algorithm>
#include <exception>
#include <optional>
#include <thread>

#include "obs/metrics.h"
#include "obs/names.h"
#include "obs/trace.h"
#include "util/logging.h"
#include "util/worker_pool.h"

namespace aptrace {

namespace {

/// Metric handles resolved once; Add() on them is a relaxed fetch-add.
struct ExecutorMetrics {
  obs::Counter* windows_processed;
  obs::Counter* windows_enqueued;
  obs::Counter* stale_windows;
  obs::Counter* queue_rebuilds;
  obs::Counter* dedup_clips;
  obs::Gauge* queue_depth;
  obs::LatencyHistogram* update_batch_latency;
  obs::Gauge* scan_threads;
  obs::Counter* prefetch_hits;
  obs::Counter* prefetch_waits;
  obs::Counter* prefetch_misses;
  obs::Gauge* pool_queue_depth;
  obs::LatencyHistogram* worker_scan_latency;
  obs::Counter* scan_cost;
};

const ExecutorMetrics& Em() {
  static const ExecutorMetrics m = {
      obs::Metrics().FindOrCreateCounter(obs::names::kExecutorWindowsProcessed),
      obs::Metrics().FindOrCreateCounter(obs::names::kExecutorWindowsEnqueued),
      obs::Metrics().FindOrCreateCounter(obs::names::kExecutorStaleWindows),
      obs::Metrics().FindOrCreateCounter(obs::names::kExecutorQueueRebuilds),
      obs::Metrics().FindOrCreateCounter(obs::names::kDedupWindowClips),
      obs::Metrics().FindOrCreateGauge(obs::names::kExecutorQueueDepth),
      obs::Metrics().FindOrCreateHistogram(obs::names::kUpdateBatchLatency),
      obs::Metrics().FindOrCreateGauge(obs::names::kExecutorScanThreads),
      obs::Metrics().FindOrCreateCounter(obs::names::kExecutorPrefetchHits),
      obs::Metrics().FindOrCreateCounter(obs::names::kExecutorPrefetchWaits),
      obs::Metrics().FindOrCreateCounter(obs::names::kExecutorPrefetchMisses),
      obs::Metrics().FindOrCreateGauge(obs::names::kExecutorPoolQueueDepth),
      obs::Metrics().FindOrCreateHistogram(
          obs::names::kExecutorWorkerScanLatency),
      obs::Metrics().FindOrCreateCounter(obs::names::kExecutorScanCostMicros),
  };
  return m;
}

/// The pure row collection behind one window's scan: the frontier's
/// flow-destination history when tracking backward, its flow-source
/// history when tracking forward. Reads only the sealed store, so a scan
/// worker may run it as well as the coordinator.
RangeScanBatch CollectWindow(const TrackingContext& ctx, const ExecWindow& w) {
  return ctx.spec.direction == bdl::TrackDirection::kForward
             ? ctx.store->CollectSrc(w.frontier, w.begin, w.finish)
             : ctx.store->CollectDest(w.frontier, w.begin, w.finish);
}

}  // namespace

const char* StopReasonName(StopReason r) {
  switch (r) {
    case StopReason::kCompleted: return "completed";
    case StopReason::kTimeBudget: return "time-budget";
    case StopReason::kExternalLimit: return "external-limit";
    case StopReason::kUpdateCap: return "update-cap";
    case StopReason::kStopped: return "stopped";
  }
  return "?";
}

// ---------------------------------------------------------- Executor

/// Filled once by the worker task that owns it, then read by the
/// coordinator. `ready` flips under `mu`; the coordinator waits on `cv`
/// when it pops a window whose prefetch is still in flight, then moves
/// the result out under the lock — nothing reads guarded fields after.
/// A task that throws (a remote shard down, surfacing as DistError from
/// the store) parks the exception in `error` and still flips `ready`, so
/// the coordinator wakes and rethrows instead of waiting forever on a
/// slot the pool silently abandoned.
struct Executor::Prefetch {
  Mutex mu{"Executor::Prefetch::mu"};
  CondVar cv;
  bool ready APTRACE_GUARDED_BY(mu) = false;
  RangeScanBatch batch APTRACE_GUARDED_BY(mu);
  std::exception_ptr error APTRACE_GUARDED_BY(mu);
};

Executor::Executor(TrackingContext ctx, Clock* clock, int num_windows_k,
                   bool temporal_priority, bool coverage_dedup)
    : ctx_(std::move(ctx)),
      clock_(clock),
      k_(std::max(1, num_windows_k)),
      coverage_dedup_(coverage_dedup),
      maintainer_(&ctx_, &graph_),
      queue_(ExecWindowLess{temporal_priority}) {
  const int requested = ctx_.scan_threads;
  scan_threads_ =
      requested == 0
          ? std::max(1, static_cast<int>(std::thread::hardware_concurrency()))
          : std::clamp(requested, 1, WorkerPool::kMaxThreads);
}

Executor::~Executor() {
  // Run()'s trailing WaitIdle barrier guarantees no in-flight task still
  // references this executor; queued ones are discarded.
  if (pool_ != nullptr) pool_->Shutdown(/*run_pending=*/false);
}

void Executor::StartPoolIfNeeded() {
  if (scan_threads_ <= 1 || pool_ != nullptr) return;
  pool_ = std::make_unique<WorkerPool>(scan_threads_, [] {
    obs::Tracer::Global().SetThreadName("scan-worker");
  });
}

void Executor::SubmitPrefetch(const ExecWindow& w) {
  if (pool_ == nullptr || prefetch_.count(w.seq) != 0) return;
  auto entry = std::make_shared<Prefetch>();
  // The task only collects rows from the sealed store; filtering and
  // every exclusion or graph decision stay on the coordinator. ctx_ is
  // stable while workers run: the pool is drained before
  // ApplyRefinedContext swaps it.
  const TrackingContext* ctx = &ctx_;
  auto task = [entry, ctx, w] {
    Prefetch* slot = entry.get();
    try {
      const TimeMicros t0 = MonotonicNowMicros();
      RangeScanBatch batch = CollectWindow(*ctx, w);
      Em().worker_scan_latency->Observe(
          MicrosToSeconds(MonotonicNowMicros() - t0));
      MutexLock lock(&slot->mu);
      slot->batch = std::move(batch);
      slot->ready = true;
    } catch (...) {
      // Park the failure for the coordinator; letting it escape into the
      // pool would strand the coordinator on a never-ready slot.
      MutexLock lock(&slot->mu);
      slot->error = std::current_exception();
      slot->ready = true;
    }
    slot->cv.NotifyAll();
  };
  if (pool_->Submit(std::move(task))) {
    prefetch_.emplace(w.seq, std::move(entry));
  }
}

void Executor::SubmitMissingPrefetches() {
  if (pool_ == nullptr) return;
  for (const ExecWindow& w : queue_.entries()) SubmitPrefetch(w);
}

void Executor::InvalidatePrefetches() { prefetch_.clear(); }

void Executor::Bootstrap() {
  stats_.run_start = clock_->NowMicros();
  log_.SetRunStart(stats_.run_start);
  graph_.SetStart(ctx_.start_node);
  // G <- e0 (Algorithm 1 line 1): the alert edge seeds the graph...
  graph_.AddEventEdge(ctx_.start_event);
  const int state = maintainer_.OnEdgeAdded(ctx_.start_event);
  // ...and its execution windows seed the queue.
  EnqueueWindowsFor(ctx_.start_event, state);
  bootstrapped_ = true;
}

void Executor::EnqueueWindowsFor(const Event& e, int state) {
  const bool forward = ctx_.spec.direction == bdl::TrackDirection::kForward;
  // The object whose history the windows will scan: backward tracking
  // explores the event's flow source; forward tracking its destination.
  const ObjectId frontier = forward ? e.FlowDest() : e.FlowSource();
  if (excluded_.count(frontier)) return;
  // Coverage watermark: backward = highest finish already scheduled
  // (grows toward the start event); forward = lowest begin already
  // scheduled (grows toward the trace end).
  auto [it, inserted] =
      covered_until_.try_emplace(frontier, forward ? ctx_.te : ctx_.ts);
  const TimeMicros covered =
      coverage_dedup_ ? it->second : (forward ? ctx_.te : ctx_.ts);
  if (coverage_dedup_ && !inserted &&
      (forward ? covered < ctx_.te : covered > ctx_.ts)) {
    // The watermark is tighter than the raw context range, so this
    // object's windows were clipped against history already scheduled.
    Em().dedup_clips->Add();
  }
  std::vector<ExecWindow> windows =
      forward ? GenExeWindowsForward(e, ctx_.te, covered, k_)
              : GenExeWindows(e, ctx_.ts, covered, k_);
  if (windows.empty()) return;
  if (forward) {
    it->second = std::min(it->second, e.timestamp + 1);
  } else {
    it->second = std::max(it->second, e.timestamp);
  }
  const int hop = graph_.HasNode(frontier) ? graph_.GetNode(frontier).hop : 0;
  const bool boosted = maintainer_.IsBoosted(frontier);
  for (ExecWindow& w : windows) {
    w.hop = hop;
    w.state = state;
    w.boosted = boosted;
    w.seq = seq_++;
    // Speculative prefetch: the worker pool starts collecting this
    // window's rows while earlier windows are still being applied.
    SubmitPrefetch(w);
    queue_.push(w);
  }
  Em().windows_enqueued->Add(windows.size());
}

void Executor::ProcessWindow(const RangeScanBatch& batch,
                             size_t* batch_edges, size_t* batch_nodes,
                             DurationMicros* scan_cost,
                             ScanProbeStats* probe) {
  APTRACE_SPAN("executor/process_window");
  const ObjectCatalog& catalog = ctx_.store->catalog();
  const bool forward = ctx_.spec.direction == bdl::TrackDirection::kForward;
  // The newly discovered endpoint of a scanned event: its flow source
  // when tracking backward, its flow destination when tracking forward.
  const auto discovered = [forward](const Event& e) {
    return forward ? e.FlowDest() : e.FlowSource();
  };
  // The host range and where-filter are pushed into the query itself (the
  // Refiner compiles them into the executable metadata): rows they reject
  // are discarded server-side at a fraction of the fetch cost.
  const auto filter = [&](const Event& e) {
    if (!ctx_.HostAllowed(e.host)) {
      stats_.events_filtered++;
      return false;
    }
    const ObjectId fresh = discovered(e);
    if (excluded_.count(fresh)) {
      stats_.events_filtered++;
      return false;
    }
    if (!ctx_.IsAnchor(fresh) && !ctx_.WhereKeeps(catalog.Get(fresh), &e)) {
      // "deleted from the tracking analysis without further exploration"
      // (paper Section III-A1).
      excluded_.insert(fresh);
      stats_.objects_excluded++;
      stats_.events_filtered++;
      return false;
    }
    return true;
  };
  const auto visit = [&](const Event& e) {
    // Hop budget: do not extend paths beyond the limit.
    const ObjectId fresh = discovered(e);
    const ObjectId known = forward ? e.FlowSource() : e.FlowDest();
    if (ctx_.spec.hop_limit >= 0 && !graph_.HasNode(fresh) &&
        graph_.HopOf(known) + 1 > ctx_.spec.hop_limit) {
      stats_.events_filtered++;
      return;
    }
    const DepGraph::AddResult res = graph_.AddEventEdge(e);
    if (res == DepGraph::AddResult::kDuplicate) return;
    (*batch_edges)++;
    if (res == DepGraph::AddResult::kNewEdgeAndNode) (*batch_nodes)++;
    stats_.events_added++;
    const int state = maintainer_.OnEdgeAdded(e);
    EnqueueWindowsFor(e, state);
  };
  ctx_.store->ReplayScan(batch, clock_, visit, filter, scan_cost, probe);
  stats_.work_units++;
  Em().windows_processed->Add();
}

StopReason Executor::Run(const RunLimits& limits) {
  obs::Tracer::Global().SetThreadName("coordinator");
  StartPoolIfNeeded();
  Em().scan_threads->Set(scan_threads_);
  if (!bootstrapped_) Bootstrap();
  // Top-up pass: windows restored from a checkpoint or kept across a
  // refine have no prefetch yet.
  SubmitMissingPrefetches();
  StopReason reason = StopReason::kStopped;
  std::exception_ptr run_error;
  try {
    reason = RunLoop(limits);
  } catch (...) {
    // The barrier below must run even when the loop throws (a degraded
    // distributed scan): in-flight tasks still reference this executor.
    run_error = std::current_exception();
  }
  if (pool_ != nullptr) {
    // Barrier: callers may mutate ctx_ (refine), serialize state
    // (checkpoint), or destroy the executor after Run returns; none of
    // that may race an in-flight scan. Finished prefetches stay cached
    // for the next Run.
    pool_->WaitIdle();
    Em().pool_queue_depth->Set(0);
  }
  if (run_error != nullptr) std::rethrow_exception(run_error);
  return reason;
}

StopReason Executor::RunLoop(const RunLimits& limits) {
  const TimeMicros step_start = clock_->NowMicros();
  size_t updates_this_step = 0;

  while (!queue_.empty()) {
    if (limits.should_stop && limits.should_stop()) return StopReason::kStopped;
    const TimeMicros now = clock_->NowMicros();
    if (ctx_.spec.time_budget >= 0 &&
        now - stats_.run_start >= ctx_.spec.time_budget) {
      return StopReason::kTimeBudget;
    }
    if (limits.sim_time >= 0 && now - step_start >= limits.sim_time) {
      return StopReason::kExternalLimit;
    }
    if (limits.max_updates != 0 && updates_this_step >= limits.max_updates) {
      return StopReason::kUpdateCap;
    }

    const ExecWindow w = queue_.top();
    queue_.pop();
    // Stale windows: the frontier may have been excluded or pruned since
    // this window was enqueued. Checked before touching the prefetch so a
    // stale window never blocks on its in-flight scan.
    const bool stale =
        excluded_.count(w.frontier) != 0 ||
        (ctx_.spec.hop_limit >= 0 && graph_.HasNode(w.frontier) &&
         graph_.GetNode(w.frontier).hop + 1 > ctx_.spec.hop_limit);
    if (stale) {
      // "stops exploring the path and switches to other shorter paths".
      Em().stale_windows->Add();
      prefetch_.erase(w.seq);
      continue;
    }

    std::optional<RangeScanBatch> prefetched;
    if (pool_ != nullptr) {
      if (const auto it = prefetch_.find(w.seq); it != prefetch_.end()) {
        const std::shared_ptr<Prefetch> slot = std::move(it->second);
        prefetch_.erase(it);
        Prefetch* raw = slot.get();
        MutexLock lock(&raw->mu);
        if (raw->ready) {
          Em().prefetch_hits->Add();
        } else {
          Em().prefetch_waits->Add();
          while (!raw->ready) raw->cv.Wait(lock);
        }
        if (raw->error != nullptr) std::rethrow_exception(raw->error);
        prefetched = std::move(raw->batch);
      } else {
        // Submission failed or never happened; the window is collected
        // inline below (identical results, just no overlap).
        Em().prefetch_misses->Add();
      }
    }

    size_t batch_edges = 0;
    size_t batch_nodes = 0;
    DurationMicros scan_cost = 0;
    ScanProbeStats probe;
    const TimeMicros wall0 = MonotonicNowMicros();
    ProcessWindow(prefetched.has_value() ? std::move(*prefetched)
                                         : CollectWindow(ctx_, w),
                  &batch_edges, &batch_nodes, &scan_cost, &probe);
    // Attribution happens on the coordinator with exactly the cost the
    // window charged, so the profile's axes reconcile with the engine's
    // own totals (wall micros are the sole nondeterministic field).
    profile_.OnWindowScanned(
        w.hop, w.state, w.boosted, probe, scan_cost, batch_edges,
        static_cast<uint64_t>(MonotonicNowMicros() - wall0));
    scan_cost_total_ += scan_cost;
    Em().scan_cost->Add(static_cast<uint64_t>(scan_cost));
    Em().queue_depth->Set(static_cast<int64_t>(queue_.size()));
    obs::Tracer::Global().RecordCounter(obs::names::kExecutorQueueDepth,
                                        static_cast<int64_t>(queue_.size()));
    if (pool_ != nullptr) {
      Em().pool_queue_depth->Set(static_cast<int64_t>(pool_->pending()));
    }
    if (batch_edges > 0) {
      UpdateBatch batch;
      batch.sim_time = clock_->NowMicros();
      batch.new_edges = batch_edges;
      batch.new_nodes = batch_nodes;
      batch.total_edges = graph_.NumEdges();
      batch.total_nodes = graph_.NumNodes();
      const TimeMicros prev_update =
          log_.empty() ? log_.run_start() : log_.batches().back().sim_time;
      Em().update_batch_latency->Observe(
          MicrosToSeconds(batch.sim_time - prev_update));
      log_.Add(batch);
      updates_this_step++;
      if (limits.on_update) limits.on_update(batch);
    }
  }
  return StopReason::kCompleted;
}

void Executor::RebuildQueue() {
  APTRACE_SPAN("executor/rebuild_queue");
  Em().queue_rebuilds->Add();
  std::vector<ExecWindow> keep;
  keep.reserve(queue_.size());
  while (!queue_.empty()) {
    ExecWindow w = queue_.top();
    queue_.pop();
    if (excluded_.count(w.frontier)) continue;
    if (!graph_.HasNode(w.frontier)) continue;  // pruned from the graph
    // Clamp into the (possibly narrowed) global range.
    w.begin = std::max(w.begin, ctx_.ts);
    w.finish = std::min(w.finish, ctx_.te);
    if (w.begin >= w.finish) continue;
    w.state = graph_.StateOf(w.frontier);
    w.boosted = maintainer_.IsBoosted(w.frontier);
    keep.push_back(std::move(w));
  }
  for (ExecWindow& w : keep) queue_.push(std::move(w));
}

void Executor::ApplyRefinedContext(TrackingContext new_ctx,
                                   const RefineDelta& delta) {
  if (pool_ != nullptr) pool_->WaitIdle();  // workers read the old ctx_
  // Cached prefetches cover the windows as they were queued, and
  // RebuildQueue below may clamp or drop them; the Run-start top-up pass
  // resubmits under the new context.
  InvalidatePrefetches();
  ctx_ = std::move(new_ctx);
  maintainer_.UpdateContext(&ctx_);

  if (delta.range_narrowed) {
    // Drop cached edges outside the new range; coverage clamps so future
    // windows never rescan, and out-of-range pending windows are clamped
    // away in RebuildQueue below.
    graph_.RemoveEdgesIf([&](const DepGraph::Edge& e) {
      return e.timestamp < ctx_.ts || e.timestamp >= ctx_.te;
    });
    maintainer_.PruneUnreachable();
    const bool forward =
        ctx_.spec.direction == bdl::TrackDirection::kForward;
    for (auto& [obj, covered] : covered_until_) {
      (void)obj;
      if (forward) {
        covered = std::min(covered, ctx_.te);
      } else {
        covered = std::max(covered, ctx_.ts);
      }
    }
  }

  if (delta.where_changed) {
    // Re-evaluate every cached node against the new filter (object-level;
    // event-level conditions apply to future exploration only).
    excluded_.clear();
    stats_.objects_excluded = 0;
    std::vector<ObjectId> removed_nodes;
    graph_.RemoveNodesIf([&](ObjectId id) {
      if (ctx_.IsAnchor(id)) return false;  // same exemption as the scans
      const SystemObject& obj = ctx_.store->catalog().Get(id);
      if (ctx_.WhereKeeps(obj, nullptr)) return false;
      excluded_.insert(id);
      stats_.objects_excluded++;
      removed_nodes.push_back(id);
      return true;
    });
    maintainer_.PruneUnreachable();
    // Allow pruned-but-not-excluded objects to be rediscovered cleanly.
    for (ObjectId id : removed_nodes) covered_until_.erase(id);
    for (auto it = covered_until_.begin(); it != covered_until_.end();) {
      if (!graph_.HasNode(it->first) && excluded_.count(it->first) == 0) {
        it = covered_until_.erase(it);
      } else {
        ++it;
      }
    }
  }
  // Chain or filter changes both invalidate states (pruning may have
  // removed state-carrying paths), so re-propagate over the cached graph.
  maintainer_.RepropagateStates();
  if (delta.prioritize_changed || delta.where_changed) {
    maintainer_.RecomputeBoosts();
  }
  RebuildQueue();
  APTRACE_LOG(Info) << "Refined context applied: chain=" << delta.chain_changed
                    << " where=" << delta.where_changed
                    << " prioritize=" << delta.prioritize_changed
                    << " nodes=" << graph_.NumNodes()
                    << " queue=" << queue_.size();
}

}  // namespace aptrace
