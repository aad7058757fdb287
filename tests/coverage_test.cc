// Focused tests for the smaller public surfaces and edge semantics not
// covered by the module suites: logging, status rendering, histogram
// output, event-level where semantics, budget updates through the
// Refiner, and error paths.

#include <gtest/gtest.h>

#include <sstream>

#include "core/engine.h"
#include "graph/path.h"
#include "tests/test_trace.h"
#include "util/logging.h"
#include "util/stats.h"

namespace aptrace {
namespace {

using testing_support::MakeMiniTrace;
using testing_support::MiniTrace;

TEST(LoggingTest, LevelGatingAndRestore) {
  const LogLevel original = GetLogLevel();
  SetLogLevel(LogLevel::kError);
  EXPECT_EQ(GetLogLevel(), LogLevel::kError);
  // Below-threshold messages are discarded without side effects; at or
  // above threshold they format and emit. Either way: no crash.
  APTRACE_LOG(Debug) << "discarded " << 1;
  APTRACE_LOG(Info) << "discarded " << 2.5;
  SetLogLevel(LogLevel::kOff);
  APTRACE_LOG(Error) << "also discarded";
  SetLogLevel(original);
}

TEST(StatusTest, StreamOperatorAndNames) {
  std::ostringstream os;
  os << Status::OutOfRange("x") << " / " << Status::Ok();
  EXPECT_EQ(os.str(), "OutOfRange: x / OK");
  for (StatusCode c : {StatusCode::kOk, StatusCode::kInvalidArgument,
                       StatusCode::kNotFound, StatusCode::kFailedPrecondition,
                       StatusCode::kOutOfRange, StatusCode::kInternal}) {
    EXPECT_STRNE(StatusCodeName(c), "Unknown");
  }
}

TEST(HistogramTest, ToStringListsBuckets) {
  Histogram h(0, 10, 2);
  h.Add(1);
  h.Add(6);
  h.Add(7);
  const std::string s = h.ToString();
  EXPECT_NE(s.find("[0, 5) 1"), std::string::npos);
  EXPECT_NE(s.find("[5, 10) 2"), std::string::npos);
}

TEST(UpdateLogTest, EmptyWaitingTimes) {
  UpdateLog log;
  log.SetRunStart(100);
  EXPECT_TRUE(log.WaitingTimesSeconds().empty());
  EXPECT_TRUE(log.empty());
}

TEST(CausalPathTest, EmptyGraphYieldsEmptyPath) {
  DepGraph graph;
  EXPECT_TRUE(FindCausalPath(graph, 42).empty());
}

// Event-level conditions in a where statement delete the *object* the
// offending event leads to (the paper's where semantics are object
// deletion); this documents that a single disallowed action poisons the
// object for the rest of the analysis.
TEST(WhereSemanticsTest, EventLevelConditionDeletesObject) {
  MiniTrace t = MakeMiniTrace();
  SimClock clock;
  Session session(t.store.get(), &clock);
  // Exclude anything reached through a process-start event: excel and
  // java themselves survive only if reachable through non-start events.
  ASSERT_TRUE(session
                  .Start("backward ip x[] -> * where action_type != "
                         "\"start\"",
                         t.store->Get(t.alert_event))
                  .ok());
  ASSERT_TRUE(session.Step({}).ok());
  // java survives (it is the alert's anchor), but excel is *deleted* the
  // moment its start edge is scanned — even though a write edge through
  // java_file would also have reached it — and outlook (reachable only
  // through excel) disappears with it. This is the object-deletion
  // semantics of the paper's where statement applied to an event-level
  // condition.
  EXPECT_TRUE(session.graph().HasNode(t.java));
  EXPECT_FALSE(session.graph().HasNode(t.excel));
  EXPECT_FALSE(session.graph().HasNode(t.outlook));
  EXPECT_TRUE(session.graph().HasNode(t.java_file));  // via the read edge
  session.graph().ForEachEdge([&](const DepGraph::Edge& e) {
    EXPECT_NE(e.action, ActionType::kStart) << "start edge survived";
  });
}

TEST(RefinerBudgetTest, HopBudgetTightensMidRun) {
  MiniTrace t = MakeMiniTrace();
  SimClock clock;
  Session session(t.store.get(), &clock);
  ASSERT_TRUE(session
                  .Start("backward ip x[] -> *",
                         t.store->Get(t.alert_event))
                  .ok());
  RunLimits limits;
  limits.max_updates = 1;
  ASSERT_TRUE(session.Step(limits).ok());
  // Tighten to two hops; the refiner reuses the cached graph.
  ASSERT_TRUE(
      session.UpdateScript("backward ip x[] -> * where hop <= 2").ok());
  EXPECT_EQ(session.last_refine_action(), RefineAction::kReuse);
  ASSERT_TRUE(session.Step({}).ok());
  EXPECT_FALSE(session.graph().HasNode(t.mail_sock));  // hop 4
  EXPECT_TRUE(session.graph().HasNode(t.java));        // hop 1
}

TEST(RefinerPrioritizeTest, RuleChangeClassifiedAsReuse) {
  MiniTrace t = MakeMiniTrace();
  SimClock clock;
  Session session(t.store.get(), &clock);
  ASSERT_TRUE(session
                  .Start("backward ip x[] -> *",
                         t.store->Get(t.alert_event))
                  .ok());
  RunLimits limits;
  limits.max_updates = 1;
  ASSERT_TRUE(session.Step(limits).ok());
  ASSERT_TRUE(session
                  .UpdateScript(
                      "backward ip x[] -> * prioritize [type = file and "
                      "src.path = \"*java*\"] <- [type = network and dst.ip "
                      "= \"185.*\" and amount >= size]")
                  .ok());
  EXPECT_EQ(session.last_refine_action(), RefineAction::kReuse);
  ASSERT_TRUE(session.Step({}).ok());
  EXPECT_EQ(session.graph().NumEdges(), MiniTrace::kClosureEdges);
}

TEST(EngineErrorTest, BadOutputPathSurfacesFromFinish) {
  MiniTrace t = MakeMiniTrace();
  SimClock clock;
  auto report = RunBdlScript(
      *t.store, &clock,
      "backward ip x[] -> * output = \"/no-such-dir/x.dot\"", {}, {},
      t.store->Get(t.alert_event));
  EXPECT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kInvalidArgument);
}

TEST(GraphMaintenanceTest, MaxHopAfterRemovals) {
  MiniTrace t = MakeMiniTrace();
  SimClock clock;
  Session session(t.store.get(), &clock);
  ASSERT_TRUE(session
                  .Start("backward ip x[] -> *",
                         t.store->Get(t.alert_event))
                  .ok());
  ASSERT_TRUE(session.Step({}).ok());
  DepGraph* g = session.engine()->mutable_graph();
  EXPECT_EQ(g->MaxHop(), 4);
  g->RemoveNodesIf([&](ObjectId id) { return g->HopOf(id) >= 3; });
  EXPECT_EQ(g->MaxHop(), 2);  // the hop-2 nodes survive the cut
  g->ClearStates();
  EXPECT_EQ(g->StateOf(g->start()), 1);
}

TEST(TimeOrderedConditionTest, StarttimeComparison) {
  MiniTrace t = MakeMiniTrace();
  SimClock clock;
  Session session(t.store.get(), &clock);
  // All mini-trace processes have start_time 0, i.e. before any real
  // date: a `starttime < <date>` filter keeps them all, `>` drops them
  // (and their subtrees) except what is reachable through files/sockets.
  ASSERT_TRUE(session
                  .Start("backward ip x[] -> * where proc.starttime < "
                         "\"01/01/2020\"",
                         t.store->Get(t.alert_event))
                  .ok());
  ASSERT_TRUE(session.Step({}).ok());
  EXPECT_EQ(session.graph().NumEdges(), MiniTrace::kClosureEdges);
}

TEST(SessionIntrospectionTest, ContextExposesResolvedPieces) {
  MiniTrace t = MakeMiniTrace();
  SimClock clock;
  Session session(t.store.get(), &clock);
  ASSERT_TRUE(session
                  .Start("backward ip x[] -> * where hop <= 9",
                         t.store->Get(t.alert_event))
                  .ok());
  const TrackingContext& ctx = session.context();
  EXPECT_EQ(ctx.start_event.id, t.alert_event);
  EXPECT_EQ(ctx.start_node, t.ext_sock);
  EXPECT_EQ(ctx.spec.hop_limit, 9);
  EXPECT_TRUE(ctx.IsAnchor(t.ext_sock));
  EXPECT_TRUE(ctx.IsAnchor(t.java));
  EXPECT_FALSE(ctx.IsAnchor(t.excel));
}

}  // namespace
}  // namespace aptrace
