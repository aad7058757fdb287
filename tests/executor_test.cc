#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <set>

#include "core/baseline_executor.h"
#include "core/executor.h"
#include "core/session.h"
#include "bdl/analyzer.h"
#include "obs/metrics.h"
#include "obs/names.h"
#include "tests/forwarding_backend.h"
#include "tests/test_trace.h"

namespace aptrace {
namespace {

using testing_support::MakeMiniTrace;
using testing_support::MiniTrace;

bdl::TrackingSpec Spec(const std::string& text) {
  auto spec = bdl::CompileBdl(text);
  EXPECT_TRUE(spec.ok()) << spec.status();
  return spec.ok() ? std::move(spec.value()) : bdl::TrackingSpec{};
}

TrackingContext Ctx(const MiniTrace& t, const std::string& script,
                    Clock* clock) {
  auto ctx = ResolveContext(*t.store, Spec(script), clock,
                            t.store->Get(t.alert_event));
  EXPECT_TRUE(ctx.ok()) << ctx.status();
  return std::move(ctx.value());
}

std::set<EventId> EdgeSet(const DepGraph& g) {
  std::set<EventId> out;
  g.ForEachEdge([&](const DepGraph::Edge& e) { out.insert(e.event); });
  return out;
}

constexpr char kUnconstrained[] = "backward ip x[] -> *";

class ExecutorTest : public testing::Test {
 protected:
  MiniTrace trace_ = MakeMiniTrace();
  SimClock clock_;
};

TEST_F(ExecutorTest, FullClosureExact) {
  Executor exec(Ctx(trace_, kUnconstrained, &clock_), &clock_, 8);
  EXPECT_EQ(exec.Run({}), StopReason::kCompleted);
  EXPECT_TRUE(exec.Exhausted());

  EXPECT_EQ(exec.graph().NumEdges(), MiniTrace::kClosureEdges);
  EXPECT_EQ(exec.graph().NumNodes(), MiniTrace::kClosureNodes);
  // Start node is the alert's flow destination (the external socket).
  EXPECT_EQ(exec.graph().start(), trace_.ext_sock);
  // Noise and post-alert events never enter the closure.
  EXPECT_FALSE(exec.graph().HasNode(trace_.benign));
  EXPECT_FALSE(exec.graph().HasNode(trace_.doc1));
  EXPECT_FALSE(exec.graph().HasNode(trace_.late_file));
  // The whole causal chain is present.
  for (ObjectId id : {trace_.outlook, trace_.excel, trace_.java,
                      trace_.attach, trace_.java_file, trace_.mail_sock}) {
    EXPECT_TRUE(exec.graph().HasNode(id)) << id;
  }
  // Hops along the chain.
  EXPECT_EQ(exec.graph().HopOf(trace_.ext_sock), 0);
  EXPECT_EQ(exec.graph().HopOf(trace_.java), 1);
  EXPECT_EQ(exec.graph().HopOf(trace_.excel), 2);
  EXPECT_EQ(exec.graph().HopOf(trace_.outlook), 3);
  EXPECT_EQ(exec.graph().HopOf(trace_.mail_sock), 4);
}

// Integration check of the observability layer: a run must feed the core
// metrics of the global registry.
TEST_F(ExecutorTest, RunPopulatesCoreMetrics) {
  auto& metrics = obs::Metrics();
  const uint64_t windows_before =
      metrics.FindOrCreateCounter(obs::names::kExecutorWindowsProcessed)
          ->value();
  const uint64_t scanned_before =
      metrics.FindOrCreateCounter(obs::names::kStoreEventsScanned)->value();
  const uint64_t batches_before =
      metrics.FindOrCreateHistogram(obs::names::kUpdateBatchLatency)->count();

  Executor exec(Ctx(trace_, kUnconstrained, &clock_), &clock_, 8);
  EXPECT_EQ(exec.Run({}), StopReason::kCompleted);

  EXPECT_GT(
      metrics.FindOrCreateCounter(obs::names::kExecutorWindowsProcessed)
          ->value(),
      windows_before);
  EXPECT_GT(
      metrics.FindOrCreateCounter(obs::names::kStoreEventsScanned)->value(),
      scanned_before);
  EXPECT_GT(
      metrics.FindOrCreateHistogram(obs::names::kUpdateBatchLatency)->count(),
      batches_before);
}

TEST_F(ExecutorTest, BaselineProducesSameClosure) {
  Executor exec(Ctx(trace_, kUnconstrained, &clock_), &clock_, 8);
  exec.Run({});
  SimClock clock2;
  BaselineExecutor baseline(Ctx(trace_, kUnconstrained, &clock2), &clock2);
  EXPECT_EQ(baseline.Run({}), StopReason::kCompleted);
  EXPECT_EQ(EdgeSet(baseline.graph()), EdgeSet(exec.graph()));
}

// The closure must not depend on the window count k.
class ExecutorKSweep : public testing::TestWithParam<int> {};

TEST_P(ExecutorKSweep, ClosureIndependentOfK) {
  MiniTrace trace = MakeMiniTrace();
  SimClock clock;
  Executor exec(Ctx(trace, kUnconstrained, &clock), &clock, GetParam());
  EXPECT_EQ(exec.Run({}), StopReason::kCompleted);
  EXPECT_EQ(exec.graph().NumEdges(), MiniTrace::kClosureEdges);
  EXPECT_EQ(exec.graph().NumNodes(), MiniTrace::kClosureNodes);
}

INSTANTIATE_TEST_SUITE_P(K, ExecutorKSweep,
                         testing::Values(1, 2, 3, 4, 8, 16, 32));

TEST_F(ExecutorTest, WhereExcludesDlls) {
  Executor exec(
      Ctx(trace_, "backward ip x[] -> * where file.path != \"*.dll\"",
          &clock_),
      &clock_, 8);
  EXPECT_EQ(exec.Run({}), StopReason::kCompleted);
  for (int i = 0; i < 3; ++i) {
    EXPECT_FALSE(exec.graph().HasNode(trace_.dll[i]));
  }
  EXPECT_EQ(exec.graph().NumEdges(), MiniTrace::kClosureEdges - 3);
  EXPECT_TRUE(exec.graph().HasNode(trace_.mail_sock));
  EXPECT_EQ(exec.stats().objects_excluded, 3u);
}

TEST_F(ExecutorTest, WhereExcludesProcessSubtree) {
  // Excluding excel.exe cuts off everything upstream of it.
  Executor exec(
      Ctx(trace_, "backward ip x[] -> * where proc.exename != \"excel.exe\"",
          &clock_),
      &clock_, 8);
  EXPECT_EQ(exec.Run({}), StopReason::kCompleted);
  EXPECT_FALSE(exec.graph().HasNode(trace_.excel));
  EXPECT_FALSE(exec.graph().HasNode(trace_.outlook));
  EXPECT_FALSE(exec.graph().HasNode(trace_.attach));
  EXPECT_FALSE(exec.graph().HasNode(trace_.mail_sock));
  // java and its direct file/dll deps remain; java_file stays but its
  // writer (excel) is gone.
  EXPECT_TRUE(exec.graph().HasNode(trace_.java));
  EXPECT_TRUE(exec.graph().HasNode(trace_.java_file));
}

TEST_F(ExecutorTest, HopLimitBoundsExploration) {
  Executor exec(Ctx(trace_, "backward ip x[] -> * where hop <= 2", &clock_),
                &clock_, 8);
  EXPECT_EQ(exec.Run({}), StopReason::kCompleted);
  // Nodes at hop <= 2 present; hop-3 nodes absent.
  EXPECT_TRUE(exec.graph().HasNode(trace_.excel));      // hop 2
  EXPECT_FALSE(exec.graph().HasNode(trace_.outlook));   // hop 3
  EXPECT_FALSE(exec.graph().HasNode(trace_.mail_sock)); // hop 4
  EXPECT_LE(exec.graph().MaxHop(), 2);
}

TEST_F(ExecutorTest, TimeBudgetStopsRun) {
  // Non-zero cost model so simulated time actually passes.
  MiniTrace trace = MakeMiniTrace(CostModel{});
  SimClock clock;
  Executor exec(Ctx(trace, "backward ip x[] -> * where time <= 1ms", &clock),
                &clock, 8);
  EXPECT_EQ(exec.Run({}), StopReason::kTimeBudget);
  EXPECT_LT(exec.graph().NumEdges(), MiniTrace::kClosureEdges);
  // Resuming does not help: the budget is exhausted for good.
  EXPECT_EQ(exec.Run({}), StopReason::kTimeBudget);
}

TEST_F(ExecutorTest, ExternalSimTimeLimitIsPerStep) {
  MiniTrace trace = MakeMiniTrace(CostModel{});
  SimClock clock;
  Executor exec(Ctx(trace, kUnconstrained, &clock), &clock, 8);
  RunLimits limits;
  limits.sim_time = 60 * kMicrosPerMilli;
  StopReason r = exec.Run(limits);
  // Either it finished fast or it hit the step limit; keep stepping.
  int guard = 0;
  while (r == StopReason::kExternalLimit && guard++ < 1000) {
    r = exec.Run(limits);
  }
  EXPECT_EQ(r, StopReason::kCompleted);
  EXPECT_EQ(exec.graph().NumEdges(), MiniTrace::kClosureEdges);
}

TEST_F(ExecutorTest, UpdateCapAndResume) {
  Executor exec(Ctx(trace_, kUnconstrained, &clock_), &clock_, 8);
  RunLimits limits;
  limits.max_updates = 1;
  EXPECT_EQ(exec.Run(limits), StopReason::kUpdateCap);
  const size_t after_one = exec.graph().NumEdges();
  EXPECT_GT(after_one, 0u);
  EXPECT_LT(after_one, MiniTrace::kClosureEdges);
  EXPECT_EQ(exec.Run({}), StopReason::kCompleted);
  EXPECT_EQ(exec.graph().NumEdges(), MiniTrace::kClosureEdges);
}

TEST_F(ExecutorTest, ShouldStopPausesImmediately) {
  Executor exec(Ctx(trace_, kUnconstrained, &clock_), &clock_, 8);
  RunLimits limits;
  limits.should_stop = [] { return true; };
  EXPECT_EQ(exec.Run(limits), StopReason::kStopped);
  // Nothing beyond the bootstrap edge was explored.
  EXPECT_EQ(exec.graph().NumEdges(), 1u);
}

TEST_F(ExecutorTest, UpdateLogConsistent) {
  MiniTrace trace = MakeMiniTrace(CostModel{});
  SimClock clock;
  Executor exec(Ctx(trace, kUnconstrained, &clock), &clock, 8);
  size_t callback_updates = 0;
  RunLimits limits;
  limits.on_update = [&](const UpdateBatch&) { callback_updates++; };
  exec.Run(limits);

  const UpdateLog& log = exec.update_log();
  ASSERT_FALSE(log.empty());
  EXPECT_EQ(log.size(), callback_updates);
  TimeMicros prev = log.run_start();
  size_t total_edges = 1;  // the bootstrap (alert) edge
  for (const UpdateBatch& b : log.batches()) {
    EXPECT_GE(b.sim_time, prev);
    prev = b.sim_time;
    total_edges += b.new_edges;
    EXPECT_EQ(b.total_edges, total_edges);
  }
  EXPECT_EQ(total_edges, exec.graph().NumEdges());
  // Waiting times are all non-negative and as many as updates.
  const auto waits = log.WaitingTimesSeconds();
  EXPECT_EQ(waits.size(), log.size());
  for (double w : waits) EXPECT_GE(w, 0.0);
}

TEST_F(ExecutorTest, StatsAccounting) {
  Executor exec(Ctx(trace_, kUnconstrained, &clock_), &clock_, 8);
  exec.Run({});
  // Every closure edge except the bootstrap one was added by a scan.
  EXPECT_EQ(exec.stats().events_added, MiniTrace::kClosureEdges - 1);
  EXPECT_GT(exec.stats().work_units, 0u);
  // late_file's read was filtered by nothing (it is simply outside every
  // window), so events_filtered only counts nothing here.
  EXPECT_EQ(exec.stats().events_filtered, 0u);
}

TEST_F(ExecutorTest, HostFilterExcludesOtherHosts) {
  // Host constraint matching a different host: nothing beyond bootstrap.
  auto ctx = ResolveContext(
      *trace_.store, Spec("in \"otherhost\" backward ip x[] -> *"), &clock_,
      trace_.store->Get(trace_.alert_event));
  ASSERT_TRUE(ctx.ok());
  Executor exec(std::move(ctx.value()), &clock_, 8);
  exec.Run({});
  EXPECT_EQ(exec.graph().NumEdges(), 1u);  // only the alert edge
}

TEST_F(ExecutorTest, TimeRangeNarrowsClosure) {
  // Only events at t >= 40 are inside the range (epoch-based micros are
  // tiny numbers here, so use the store span check indirectly: resolve
  // with an explicit override range via the spec is impractical with
  // date-granularity literals; instead verify the ts clamp using the
  // store bounds).
  const TrackingContext ctx = Ctx(trace_, kUnconstrained, &clock_);
  EXPECT_EQ(ctx.ts, trace_.store->MinTime());
  EXPECT_EQ(ctx.te, trace_.store->MaxTime() + 1);
}

TEST_F(ExecutorTest, BaselineRespectsFiltersToo) {
  SimClock clock;
  BaselineExecutor baseline(
      Ctx(trace_, "backward ip x[] -> * where file.path != \"*.dll\"",
          &clock),
      &clock);
  EXPECT_EQ(baseline.Run({}), StopReason::kCompleted);
  for (int i = 0; i < 3; ++i) {
    EXPECT_FALSE(baseline.graph().HasNode(trace_.dll[i]));
  }
  EXPECT_EQ(baseline.graph().NumEdges(), MiniTrace::kClosureEdges - 3);
}

TEST_F(ExecutorTest, ResolveContextFindsStartByPattern) {
  // No override: the start pattern must locate the alert itself.
  auto ctx = ResolveContext(
      *trace_.store,
      Spec("backward ip x[dst_ip = \"185.220.101.45\" and subject_name = "
           "\"java.exe\"] -> *"),
      &clock_);
  ASSERT_TRUE(ctx.ok()) << ctx.status();
  EXPECT_EQ(ctx->start_event.id, trace_.alert_event);
  EXPECT_EQ(ctx->start_node, trace_.ext_sock);
}

TEST_F(ExecutorTest, ResolveContextNotFound) {
  auto ctx = ResolveContext(
      *trace_.store, Spec("backward ip x[dst_ip = \"9.9.9.9\"] -> *"),
      &clock_);
  EXPECT_FALSE(ctx.ok());
  EXPECT_EQ(ctx.status().code(), StatusCode::kNotFound);
}

// Scans deliver whole rows and every graph edge keeps its row, so an
// investigation over a sharded store — replay, the maintainer's state
// cascade, and Finish's re-propagation — never looks a row up by id.
TEST(ScanRowsTest, InvestigationNeverLooksRowsUpById) {
  ForwardingCounters counters;
  EventStoreOptions options;
  options.shards = 2;
  UseForwardingShards(options, /*collect_batch=*/0, &counters);
  const MiniTrace trace = MakeMiniTrace(CostModel::Free(), options);
  ASSERT_EQ(trace.store->shard_count(), 2u);
  const Event alert = trace.store->Get(trace.alert_event);
  std::atomic<size_t>& gets = counters.gets;
  gets = 0;

  SimClock clock;
  Session session(trace.store.get(), &clock);
  ASSERT_TRUE(session
                  .StartWithSpec(
                      Spec("backward ip x[dst_ip = \"185.220.101.45\"] -> "
                           "proc p[exename = \"excel.exe\"] -> ip m[dst_ip "
                           "= \"198.51.100.9\"]"),
                      alert)
                  .ok());
  const auto stopped = session.Step({});
  ASSERT_TRUE(stopped.ok()) << stopped.status();
  EXPECT_EQ(stopped.value(), StopReason::kCompleted);
  EXPECT_EQ(session.graph().NumEdges(), MiniTrace::kClosureEdges);
  ASSERT_TRUE(session.Finish(true).ok());
  EXPECT_TRUE(session.graph().HasNode(trace.mail_sock));
  EXPECT_EQ(gets.load(), 0u);
}

// At B > 1 the executor collects a popped window together with the next
// queued ones in one CollectMany, so each shard sees far fewer calls
// than one per window, later windows are served from the batch, and the
// graph is the one the inline path (B = 1) builds.
TEST(ScanRowsTest, BatchedCollectsCallEachShardOncePerBatch) {
  const auto run = [](size_t collect_batch, ForwardingCounters* counters,
                      uint64_t* hits) {
    EventStoreOptions options;
    options.shards = 2;
    UseForwardingShards(options, collect_batch, counters);
    const MiniTrace trace = MakeMiniTrace(CostModel{}, options);
    SimClock clock;
    Session session(trace.store.get(), &clock);
    EXPECT_TRUE(session
                    .StartWithSpec(Spec("backward ip x[dst_ip = "
                                        "\"185.220.101.45\"] -> *"),
                                   trace.store->Get(trace.alert_event))
                    .ok());
    counters->collect_many = 0;
    obs::Counter* hit_counter = obs::Metrics().FindOrCreateCounter(
        obs::names::kExecutorPrefetchHits);
    const uint64_t hits0 = hit_counter->value();
    const auto stopped = session.Step({});
    EXPECT_TRUE(stopped.ok()) << stopped.status();
    *hits = hit_counter->value() - hits0;
    return std::make_pair(EdgeSet(session.graph()),
                          session.stats().work_units);
  };
  ForwardingCounters inline_calls;
  ForwardingCounters batched_calls;
  uint64_t inline_hits = 0;
  uint64_t batched_hits = 0;
  const auto want = run(1, &inline_calls, &inline_hits);
  const auto got = run(64, &batched_calls, &batched_hits);
  EXPECT_EQ(got, want);
  ASSERT_GT(want.second, 8u);
  EXPECT_EQ(inline_hits, 0u);
  EXPECT_GT(batched_hits, 0u);
  // Inline, every window whose object has rows costs a call per shard
  // holding them; batched, a call per shard per batch.
  EXPECT_LE(batched_calls.collect_many.load() * 4,
            inline_calls.collect_many.load())
      << batched_calls.collect_many.load() << " batched vs "
      << inline_calls.collect_many.load() << " inline calls";
}

}  // namespace
}  // namespace aptrace
