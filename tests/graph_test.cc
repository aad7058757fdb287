#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <vector>

#include "graph/dep_graph.h"
#include "graph/dot_writer.h"
#include "util/rng.h"

namespace aptrace {
namespace {

Event Ev(EventId id, ObjectId subject, ObjectId object, TimeMicros t,
         ActionType action) {
  Event e;
  e.id = id;
  e.subject = subject;
  e.object = object;
  e.timestamp = t;
  e.action = action;
  e.direction = ActionDefaultDirection(action);
  return e;
}

// Object ids used symbolically; the graph never dereferences them.
constexpr ObjectId kIp = 1, kJava = 2, kExcel = 3, kAttach = 4, kOutlook = 5;

class DepGraphTest : public testing::Test {
 protected:
  void SetUp() override {
    graph_.SetStart(kIp);
    // Alert: java -> ip (connect).
    graph_.AddEventEdge(Ev(100, kJava, kIp, 50, ActionType::kConnect));
  }
  DepGraph graph_;
};

TEST_F(DepGraphTest, StartNodeProperties) {
  EXPECT_TRUE(graph_.HasNode(kIp));
  EXPECT_EQ(graph_.HopOf(kIp), 0);
  EXPECT_EQ(graph_.StateOf(kIp), 1);
  EXPECT_EQ(graph_.start(), kIp);
}

TEST_F(DepGraphTest, AddEventEdgeCreatesNodesAndHops) {
  EXPECT_TRUE(graph_.HasNode(kJava));
  EXPECT_EQ(graph_.HopOf(kJava), 1);  // discovered from the start
  EXPECT_EQ(graph_.NumNodes(), 2u);
  EXPECT_EQ(graph_.NumEdges(), 1u);

  // excel -> java (start event): excel is hop 2.
  auto res = graph_.AddEventEdge(Ev(101, kExcel, kJava, 40,
                                    ActionType::kStart));
  EXPECT_EQ(res, DepGraph::AddResult::kNewEdgeAndNode);
  EXPECT_EQ(graph_.HopOf(kExcel), 2);
  EXPECT_EQ(graph_.MaxHop(), 2);
}

TEST_F(DepGraphTest, DuplicateEdgeIgnored) {
  auto res = graph_.AddEventEdge(Ev(100, kJava, kIp, 50,
                                    ActionType::kConnect));
  EXPECT_EQ(res, DepGraph::AddResult::kDuplicate);
  EXPECT_EQ(graph_.NumEdges(), 1u);
}

TEST_F(DepGraphTest, ShortcutEdgeLowersHop) {
  graph_.AddEventEdge(Ev(101, kExcel, kJava, 40, ActionType::kStart));
  // excel reads attach: flow attach -> excel, so attach is hop 3.
  graph_.AddEventEdge(Ev(102, kExcel, kAttach, 30, ActionType::kRead));
  EXPECT_EQ(graph_.HopOf(kAttach), 3);
  // java also reads attach directly: flow attach -> java shortens attach
  // to hop 2.
  graph_.AddEventEdge(Ev(103, kJava, kAttach, 35, ActionType::kRead));
  EXPECT_EQ(graph_.HopOf(kAttach), 2);
}

TEST_F(DepGraphTest, AdjacencyListsTrackEdges) {
  graph_.AddEventEdge(Ev(101, kExcel, kJava, 40, ActionType::kStart));
  const auto& java = graph_.GetNode(kJava);
  EXPECT_EQ(java.in_edges.size(), 1u);   // excel -> java
  EXPECT_EQ(java.out_edges.size(), 1u);  // java -> ip
  const auto& edge = graph_.GetEdge(101);
  EXPECT_EQ(edge.src, kExcel);
  EXPECT_EQ(edge.dst, kJava);
}

TEST_F(DepGraphTest, StatesSetAndCleared) {
  graph_.AddEventEdge(Ev(101, kExcel, kJava, 40, ActionType::kStart));
  graph_.SetState(kJava, 2);
  graph_.SetState(kExcel, 3);
  graph_.ClearStates();
  EXPECT_EQ(graph_.StateOf(kIp), 1);  // start keeps state 1
  EXPECT_EQ(graph_.StateOf(kJava), 0);
  EXPECT_EQ(graph_.StateOf(kExcel), 0);
}

TEST_F(DepGraphTest, RemoveNodesIfCascadesEdges) {
  graph_.AddEventEdge(Ev(101, kExcel, kJava, 40, ActionType::kStart));
  graph_.AddEventEdge(Ev(102, kExcel, kAttach, 30, ActionType::kRead));
  graph_.AddEventEdge(Ev(103, kOutlook, kAttach, 20, ActionType::kWrite));
  EXPECT_EQ(graph_.NumNodes(), 5u);
  EXPECT_EQ(graph_.NumEdges(), 4u);

  const size_t removed =
      graph_.RemoveNodesIf([](ObjectId id) { return id == kExcel; });
  EXPECT_EQ(removed, 1u);
  EXPECT_FALSE(graph_.HasNode(kExcel));
  EXPECT_FALSE(graph_.HasEdge(101));
  EXPECT_FALSE(graph_.HasEdge(102));
  EXPECT_TRUE(graph_.HasEdge(103));  // outlook -> attach survives
  // Neighbors' adjacency lists no longer reference the removed edges.
  EXPECT_TRUE(graph_.GetNode(kJava).in_edges.empty());
  EXPECT_EQ(graph_.GetNode(kAttach).in_edges.size(), 1u);
}

TEST_F(DepGraphTest, StartNodeIsNeverRemoved) {
  const size_t removed = graph_.RemoveNodesIf([](ObjectId) { return true; });
  EXPECT_EQ(removed, 1u);  // only java
  EXPECT_TRUE(graph_.HasNode(kIp));
}

/// MaxHop the slow way: a walk over every node.
int BruteMaxHop(const DepGraph& g) {
  int m = 0;
  g.ForEachNode([&](const DepGraph::Node& n) { m = std::max(m, n.hop); });
  return m;
}

// MaxHop reads a per-hop node-count index that every hop change keeps
// current. Random mixes of every mutation that moves a hop must leave it
// equal to the brute-force maximum after each single operation.
class MaxHopPropertyTest : public testing::TestWithParam<uint64_t> {};

TEST_P(MaxHopPropertyTest, MatchesBruteForceAfterEveryOperation) {
  Rng rng(GetParam());
  DepGraph g;
  g.SetStart(1);
  ObjectId next_id = 2;
  EventId next_event = 0;
  const auto known = [&] {
    const std::vector<ObjectId> ids = g.NodeIds();
    return ids[rng.Uniform(ids.size())];
  };
  // Counts the AddEventEdge branches the run took, to prove coverage.
  int new_src = 0, new_dst = 0, both_known = 0, both_new = 0;
  for (int op = 0; op < 2000; ++op) {
    const uint64_t kind = rng.Uniform(100);
    std::string what;
    if (kind < 70) {
      const uint64_t shape = rng.Uniform(4);
      const ObjectId src = (shape == 0 || shape == 3) ? next_id++ : known();
      const ObjectId dst = (shape == 1 || shape == 3) ? next_id++ : known();
      const bool src_was = g.HasNode(src), dst_was = g.HasNode(dst);
      // Alternate the flow direction: a write flows subject -> object, a
      // read object -> subject. Host and amount vary too, so the edge's
      // row() must hand every field back.
      Event e = op % 2 == 0 ? Ev(next_event++, src, dst, op, ActionType::kWrite)
                            : Ev(next_event++, dst, src, op, ActionType::kRead);
      e.host = static_cast<HostId>(op % 7);
      e.amount = static_cast<uint64_t>(op) * 3;
      ASSERT_EQ(e.FlowSource(), src);
      g.AddEventEdge(e);
      ASSERT_EQ(g.GetEdge(e.id).row(), e) << "after op " << op;
      new_src += !src_was && dst_was;
      new_dst += src_was && !dst_was;
      both_known += src_was && dst_was;
      both_new += !src_was && !dst_was;
      what = "AddEventEdge";
    } else if (kind < 82) {
      g.SetHop(known(), static_cast<int>(rng.Uniform(12)));
      what = "SetHop";
    } else if (kind < 88) {
      g.SetStart(rng.Bernoulli(0.5) ? known() : next_id++);
      what = "SetStart";
    } else {
      const uint64_t mod = 2 + rng.Uniform(6);
      const uint64_t rem = rng.Uniform(mod);
      g.RemoveNodesIf([&](ObjectId id) { return id % mod == rem; });
      what = "RemoveNodesIf";
    }
    ASSERT_EQ(g.MaxHop(), BruteMaxHop(g)) << "after op " << op << " (" << what
                                          << ")";
  }
  EXPECT_GT(new_src, 0);
  EXPECT_GT(new_dst, 0);
  EXPECT_GT(both_known, 0);
  EXPECT_GT(both_new, 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MaxHopPropertyTest,
                         testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

TEST(DotWriterTest, EmitsNodesEdgesAndAlertHighlight) {
  ObjectCatalog catalog;
  const HostId h = catalog.InternHost("desktop1");
  const ObjectId proc = catalog.AddProcess(h, {.exename = "java.exe",
                                               .pid = 1});
  const ObjectId ip = catalog.AddIp(h, {.src_ip = "10.0.0.1",
                                        .dst_ip = "1.2.3.4"});
  DepGraph graph;
  graph.SetStart(ip);
  Event alert = Ev(7, proc, ip, 1000, ActionType::kConnect);
  graph.AddEventEdge(alert);

  std::ostringstream os;
  DotOptions options;
  options.alert_event = 7;
  WriteDot(graph, catalog, os, options);
  const std::string dot = os.str();

  EXPECT_NE(dot.find("digraph"), std::string::npos);
  EXPECT_NE(dot.find("java.exe"), std::string::npos);
  EXPECT_NE(dot.find("shape=diamond"), std::string::npos);   // ip node
  EXPECT_NE(dot.find("shape=ellipse"), std::string::npos);   // process node
  EXPECT_NE(dot.find("color=red"), std::string::npos);       // alert edge
  EXPECT_NE(dot.find("connect"), std::string::npos);         // edge label
}

TEST(DotWriterTest, EscapesQuotesInLabels) {
  ObjectCatalog catalog;
  const HostId h = catalog.InternHost("h");
  const ObjectId f = catalog.AddFile(h, {.path = "/tmp/we\"ird"});
  DepGraph graph;
  graph.SetStart(f);
  std::ostringstream os;
  WriteDot(graph, catalog, os);
  EXPECT_NE(os.str().find("we\\\"ird"), std::string::npos);
}

TEST(DotWriterTest, FileWriteFailsGracefully) {
  ObjectCatalog catalog;
  DepGraph graph;
  const Status s =
      WriteDotFile(graph, catalog, "/nonexistent-dir/out.dot", {});
  EXPECT_FALSE(s.ok());
}

}  // namespace
}  // namespace aptrace
