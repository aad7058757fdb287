#include "core/executor.h"

#include <algorithm>

#include "obs/metrics.h"
#include "obs/names.h"
#include "obs/trace.h"
#include "util/logging.h"

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
  obs::Counter* prefetch_hits;
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
      obs::Metrics().FindOrCreateCounter(obs::names::kExecutorPrefetchHits),
      obs::Metrics().FindOrCreateCounter(obs::names::kExecutorScanCostMicros),
  };
  return m;
}

/// The pure row collection behind one window's scan: the frontier's
/// flow-destination history when tracking backward, its flow-source
/// history when tracking forward.
CollectProbe WindowProbe(const TrackingContext& ctx, const ExecWindow& w) {
  return CollectProbe{ctx.spec.direction == bdl::TrackDirection::kForward
                          ? ProbeKind::kSrc
                          : ProbeKind::kDest,
                      w.frontier, w.begin, w.finish};
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

Executor::Executor(TrackingContext ctx, Clock* clock, int num_windows_k,
                   bool temporal_priority, bool coverage_dedup)
    : ctx_(std::move(ctx)),
      clock_(clock),
      k_(std::max(1, num_windows_k)),
      coverage_dedup_(coverage_dedup),
      maintainer_(&ctx_, &graph_),
      queue_(ExecWindowLess{temporal_priority}),
      collect_batch_(std::max<size_t>(
          1, ctx_.store->backend().capabilities().collect_batch)) {}

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
  if (!bootstrapped_) Bootstrap();
  // Collected rows live for this Run only: between Runs callers ingest,
  // refine, checkpoint, or let another session's quantum run.
  struct ClearOnExit {
    std::unordered_map<uint64_t, RangeScanBatch>* collected;
    ~ClearOnExit() { collected->clear(); }
  } clear_on_exit{&collected_};
  return RunLoop(limits);
}

bool Executor::IsStale(const ExecWindow& w) const {
  return excluded_.count(w.frontier) != 0 ||
         (ctx_.spec.hop_limit >= 0 && graph_.HasNode(w.frontier) &&
          graph_.GetNode(w.frontier).hop + 1 > ctx_.spec.hop_limit);
}

RangeScanBatch Executor::TakeRows(const ExecWindow& w) {
  if (collect_batch_ == 1) {
    const CollectProbe p = WindowProbe(ctx_, w);
    return p.kind == ProbeKind::kSrc
               ? ctx_.store->CollectSrc(p.key, p.begin, p.end)
               : ctx_.store->CollectDest(p.key, p.begin, p.end);
  }
  if (const auto it = collected_.find(w.seq); it != collected_.end()) {
    RangeScanBatch rows = std::move(it->second);
    collected_.erase(it);
    Em().prefetch_hits->Add();
    return rows;
  }
  // Take the next B - 1 windows that still need rows in pop order, then
  // push every popped window back: ExecWindowLess is a strict total
  // order, so the queue pops in the same order afterwards.
  std::vector<ExecWindow> batch = {w};
  std::vector<ExecWindow> popped;
  while (batch.size() < collect_batch_ && !queue_.empty()) {
    popped.push_back(queue_.top());
    queue_.pop();
    const ExecWindow& next = popped.back();
    if (collected_.count(next.seq) == 0 && !IsStale(next)) {
      batch.push_back(next);
    }
  }
  for (ExecWindow& p : popped) queue_.push(std::move(p));
  std::vector<CollectProbe> probes;
  probes.reserve(batch.size());
  for (const ExecWindow& b : batch) probes.push_back(WindowProbe(ctx_, b));
  std::vector<RangeScanBatch> rows = ctx_.store->CollectMany(probes);
  for (size_t i = 1; i < batch.size(); ++i) {
    collected_.emplace(batch[i].seq, std::move(rows[i]));
  }
  return std::move(rows[0]);
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
    // this window was enqueued.
    if (IsStale(w)) {
      // "stops exploring the path and switches to other shorter paths".
      Em().stale_windows->Add();
      collected_.erase(w.seq);
      continue;
    }

    size_t batch_edges = 0;
    size_t batch_nodes = 0;
    DurationMicros scan_cost = 0;
    ScanProbeStats probe;
    const TimeMicros wall0 = MonotonicNowMicros();
    ProcessWindow(TakeRows(w), &batch_edges, &batch_nodes, &scan_cost,
                  &probe);
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
