// Checkpoint/restore of paused investigations: saving mid-run and
// resuming (in a fresh Session, as another process would) must produce
// exactly the state and final results of an uninterrupted run.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <iterator>
#include <set>
#include <string>

#include "core/engine.h"
#include "tests/test_trace.h"
#include "util/rng.h"
#include "workload/scenario.h"

namespace aptrace {
namespace {

using testing_support::MakeMiniTrace;
using testing_support::MiniTrace;

std::set<EventId> EdgeSet(const DepGraph& g) {
  std::set<EventId> out;
  g.ForEachEdge([&](const DepGraph::Edge& e) { out.insert(e.event); });
  return out;
}

std::string TempPath(const char* name) {
  return ::testing::TempDir() + "/" + name;
}

TEST(CheckpointTest, SaveBeforeStartFails) {
  MiniTrace t = MakeMiniTrace();
  SimClock clock;
  Session session(t.store.get(), &clock);
  EXPECT_FALSE(session.SaveCheckpoint(TempPath("x.ckpt")).ok());
}

TEST(CheckpointTest, BaselineEngineRefuses) {
  MiniTrace t = MakeMiniTrace();
  SimClock clock;
  SessionOptions options;
  options.use_baseline = true;
  Session session(t.store.get(), &clock, options);
  ASSERT_TRUE(session
                  .Start("backward ip x[] -> *",
                         t.store->Get(t.alert_event))
                  .ok());
  ASSERT_TRUE(session.Step({}).ok());
  EXPECT_FALSE(session.SaveCheckpoint(TempPath("x.ckpt")).ok());
}

TEST(CheckpointTest, MidRunRoundTripMatchesUninterrupted) {
  const std::string path = TempPath("mini.ckpt");
  MiniTrace t = MakeMiniTrace(CostModel{});  // real cost: elapsed matters

  // Uninterrupted reference.
  SimClock c_ref;
  Session reference(t.store.get(), &c_ref);
  ASSERT_TRUE(reference
                  .Start("backward ip x[] -> * where file.path != \"*.dll\"",
                         t.store->Get(t.alert_event))
                  .ok());
  ASSERT_TRUE(reference.Step({}).ok());

  // Pause after one update, checkpoint, resume in a fresh session.
  SimClock c1;
  Session first(t.store.get(), &c1);
  ASSERT_TRUE(first
                  .Start("backward ip x[] -> * where file.path != \"*.dll\"",
                         t.store->Get(t.alert_event))
                  .ok());
  RunLimits pause;
  pause.max_updates = 1;
  ASSERT_TRUE(first.Step(pause).ok());
  const size_t paused_edges = first.graph().NumEdges();
  const TimeMicros paused_clock = c1.NowMicros();
  ASSERT_TRUE(first.SaveCheckpoint(path).ok());

  SimClock c2;
  Session resumed(t.store.get(), &c2);
  ASSERT_TRUE(resumed.LoadCheckpoint(path).ok()) << path;
  // The restored session picks up exactly where the first paused.
  EXPECT_EQ(resumed.graph().NumEdges(), paused_edges);
  EXPECT_EQ(c2.NowMicros(), paused_clock);
  EXPECT_EQ(EdgeSet(resumed.graph()), EdgeSet(first.graph()));

  auto reason = resumed.Step({});
  ASSERT_TRUE(reason.ok());
  EXPECT_EQ(reason.value(), StopReason::kCompleted);
  EXPECT_EQ(EdgeSet(resumed.graph()), EdgeSet(reference.graph()));
  // Total simulated time matches the uninterrupted run.
  EXPECT_EQ(c2.NowMicros(), c_ref.NowMicros());
  std::remove(path.c_str());
}

TEST(CheckpointTest, RandomPausePointsStillConverge) {
  const std::string path = TempPath("rand.ckpt");
  MiniTrace t = MakeMiniTrace();
  Rng rng(5);
  // Reference edge set.
  SimClock c_ref;
  Session reference(t.store.get(), &c_ref);
  ASSERT_TRUE(reference
                  .Start("backward ip x[] -> *",
                         t.store->Get(t.alert_event))
                  .ok());
  ASSERT_TRUE(reference.Step({}).ok());

  for (int trial = 0; trial < 4; ++trial) {
    SimClock c1;
    Session first(t.store.get(), &c1);
    ASSERT_TRUE(first
                    .Start("backward ip x[] -> *",
                           t.store->Get(t.alert_event))
                    .ok());
    RunLimits pause;
    pause.max_updates = 1 + rng.Uniform(4);
    (void)first.Step(pause);
    ASSERT_TRUE(first.SaveCheckpoint(path).ok());

    SimClock c2;
    Session resumed(t.store.get(), &c2);
    ASSERT_TRUE(resumed.LoadCheckpoint(path).ok());
    ASSERT_TRUE(resumed.Step({}).ok());
    EXPECT_EQ(EdgeSet(resumed.graph()), EdgeSet(reference.graph()))
        << "trial " << trial;
  }
  std::remove(path.c_str());
}

TEST(CheckpointTest, RefinementAfterRestoreWorks) {
  const std::string path = TempPath("refine.ckpt");
  MiniTrace t = MakeMiniTrace();
  SimClock c1;
  Session first(t.store.get(), &c1);
  ASSERT_TRUE(first
                  .Start("backward ip x[] -> *",
                         t.store->Get(t.alert_event))
                  .ok());
  RunLimits pause;
  pause.max_updates = 2;
  (void)first.Step(pause);
  ASSERT_TRUE(first.SaveCheckpoint(path).ok());

  SimClock c2;
  Session resumed(t.store.get(), &c2);
  ASSERT_TRUE(resumed.LoadCheckpoint(path).ok());
  ASSERT_TRUE(resumed
                  .UpdateScript(
                      "backward ip x[] -> * where file.path != \"*.dll\"")
                  .ok());
  EXPECT_EQ(resumed.last_refine_action(), RefineAction::kReuse);
  ASSERT_TRUE(resumed.Step({}).ok());
  EXPECT_EQ(resumed.graph().NumEdges(), MiniTrace::kClosureEdges - 3);
  std::remove(path.c_str());
}

TEST(CheckpointTest, WrongTraceRejected) {
  const std::string path = TempPath("wrong.ckpt");
  MiniTrace t = MakeMiniTrace();
  SimClock c1;
  Session first(t.store.get(), &c1);
  ASSERT_TRUE(first
                  .Start("backward ip x[] -> *",
                         t.store->Get(t.alert_event))
                  .ok());
  ASSERT_TRUE(first.Step({}).ok());
  ASSERT_TRUE(first.SaveCheckpoint(path).ok());

  // A different (bigger, shifted) trace: the fingerprint must reject it.
  auto other = workload::BuildAttackCase("shellshock",
                                         workload::TraceConfig::Small());
  ASSERT_TRUE(other.ok());
  SimClock c2;
  Session resumed(other->store.get(), &c2);
  EXPECT_FALSE(resumed.LoadCheckpoint(path).ok());
  std::remove(path.c_str());
}

TEST(CheckpointTest, DurableMarkRoundTripsAndRejectsALossyStore) {
  const std::string path = TempPath("mark.ckpt");
  MiniTrace t = MakeMiniTrace();
  // A live-ingested tail on top of the sealed history — the events a
  // durable daemon would have acked into its WAL.
  for (int i = 0; i < 3; ++i) {
    Event e = t.store->Get(t.alert_event);
    e.timestamp += 1000 + i;
    t.store->Append(e);
  }

  SimClock c1;
  Session first(t.store.get(), &c1);
  ASSERT_TRUE(first
                  .Start("backward ip x[] -> *",
                         t.store->Get(t.alert_event))
                  .ok());
  RunLimits pause;
  pause.max_updates = 1;
  ASSERT_TRUE(first.Step(pause).ok());

  CheckpointDurableMark mark;
  mark.store_events = t.store->NumEvents();
  mark.wal_seq = 7;
  ASSERT_TRUE(first.SaveCheckpoint(path, &mark).ok());

  // The mark is a "D" record in the file.
  {
    std::ifstream f(path);
    std::string text((std::istreambuf_iterator<char>(f)),
                     std::istreambuf_iterator<char>());
    const std::string want =
        "\nD\t" + std::to_string(t.store->NumEvents()) + "\t7\n";
    EXPECT_NE(text.find(want), std::string::npos) << text.substr(0, 200);
  }

  // Over the intact store the checkpoint resumes normally.
  SimClock c2;
  Session resumed(t.store.get(), &c2);
  ASSERT_TRUE(resumed.LoadCheckpoint(path).ok());

  // Over a store that lost the acked tail (the base trace alone) the
  // durable mark refuses with the typed STO-E009 — before the generic
  // fingerprint gets a chance to mislabel it a "different trace".
  MiniTrace lossy = MakeMiniTrace();
  SimClock c3;
  Session refused(lossy.store.get(), &c3);
  auto st = refused.LoadCheckpoint(path);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("STO-E009"), std::string::npos) << st;

  // Mark-free saves keep the classic format: no D record, so CLI
  // checkpoints are byte-compatible with earlier releases.
  const std::string plain = TempPath("mark_free.ckpt");
  ASSERT_TRUE(first.SaveCheckpoint(plain).ok());
  {
    std::ifstream f(plain);
    std::string text((std::istreambuf_iterator<char>(f)),
                     std::istreambuf_iterator<char>());
    EXPECT_EQ(text.find("\nD\t"), std::string::npos);
  }
  std::remove(path.c_str());
  std::remove(plain.c_str());
}

TEST(CheckpointTest, GarbageFilesRejected) {
  const std::string path = TempPath("garbage.ckpt");
  {
    std::ofstream f(path);
    f << "not a checkpoint\njunk\n";
  }
  MiniTrace t = MakeMiniTrace();
  SimClock clock;
  Session session(t.store.get(), &clock);
  EXPECT_FALSE(session.LoadCheckpoint(path).ok());
  EXPECT_FALSE(session.LoadCheckpoint("/no/such/file.ckpt").ok());
  std::remove(path.c_str());
}

// The graph indexes nodes by hop, so a node record's hop is checked
// before it is applied: negative, or beyond the store's event count (a
// hop counts distinct edges from the start), is a bad record.
TEST(CheckpointTest, OutOfRangeHopRejected) {
  const std::string path = TempPath("hop.ckpt");
  MiniTrace t = MakeMiniTrace();
  SimClock c1;
  Session first(t.store.get(), &c1);
  ASSERT_TRUE(first
                  .Start("backward ip x[] -> *",
                         t.store->Get(t.alert_event))
                  .ok());
  ASSERT_TRUE(first.Step({}).ok());
  ASSERT_TRUE(first.SaveCheckpoint(path).ok());
  std::string saved;
  {
    std::ifstream f(path);
    saved.assign(std::istreambuf_iterator<char>(f), {});
  }
  // "N\t<id>\t<hop>\t<state>": rewrite the first node record's hop.
  const size_t rec = saved.find("\nN\t");
  ASSERT_NE(rec, std::string::npos);
  const size_t hop_at = saved.find('\t', rec + 3) + 1;
  const size_t hop_end = saved.find('\t', hop_at);
  for (const std::string& hop :
       {std::string("-1"), std::to_string(t.store->NumEvents() + 1)}) {
    {
      std::ofstream f(path, std::ios::trunc);
      f << saved.substr(0, hop_at) << hop << saved.substr(hop_end);
    }
    SimClock c2;
    Session resumed(t.store.get(), &c2);
    const Status st = resumed.LoadCheckpoint(path);
    EXPECT_FALSE(st.ok()) << "hop " << hop;
    EXPECT_NE(st.message().find("bad node record"), std::string::npos) << st;
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace aptrace
