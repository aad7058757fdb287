// Tests for the multi-session service layer (src/service/): session
// lifecycle, admission control, budgets, backpressure, cancellation,
// live ingestion on both storage backends, fair-share scheduling, and
// checkpoint/resume of daemon-hosted sessions — including a full
// protocol-level daemon "restart" over a unix socket.

#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/session.h"
#include "graph/json_writer.h"
#include "service/json.h"
#include "service/server.h"
#include "service/session_manager.h"
#include "tests/random_trace_util.h"
#include "tests/test_trace.h"
#include "util/clock.h"

namespace aptrace::service {
namespace {

using testing_support::MakeMiniTrace;
using testing_support::MiniTrace;

/// The reference a hosted session must match byte-for-byte: the same
/// script run to completion through a plain Session (what `aptrace run`
/// does), finalized with the same prune.
std::string DirectRunGraph(const EventStore& store, const std::string& script,
                           std::optional<Event> start_override) {
  SimClock clock;
  Session session(&store, &clock);
  EXPECT_TRUE(session.Start(script, start_override).ok());
  auto reason = session.Step();
  EXPECT_TRUE(reason.ok());
  EXPECT_TRUE(session.Finish(/*prune_to_matched_paths=*/true).ok());
  std::ostringstream os;
  WriteGraphJson(session.graph(), store.catalog(), os);
  return os.str();
}

/// Spins until `pred` holds or `timeout_micros` of wall time passes.
bool WaitFor(const std::function<bool()>& pred, uint64_t timeout_micros) {
  const TimeMicros deadline = MonotonicNowMicros() + timeout_micros;
  while (!pred()) {
    if (MonotonicNowMicros() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

constexpr uint64_t kWaitMicros = 30'000'000;  // generous CI timeout

TEST(ServiceTest, HostedSessionMatchesDirectRun) {
  MiniTrace t = MakeMiniTrace();
  const std::string script = "backward ip x[dst_ip = \"185.220.101.45\"] -> *";
  const std::string expected =
      DirectRunGraph(*t.store, script, std::nullopt);

  SessionManager manager(t.store.get(), ServiceLimits{});
  auto id = manager.Open(script, {});
  ASSERT_TRUE(id.ok()) << id.status();
  ASSERT_TRUE(manager.WaitAllTerminal(kWaitMicros));

  auto poll = manager.Poll(id.value(), 0, 0);
  ASSERT_TRUE(poll.ok());
  EXPECT_EQ(poll->state, SessionState::kDone);
  EXPECT_TRUE(poll->terminal);
  EXPECT_EQ(poll->detail, "completed");
  EXPECT_FALSE(poll->batches.empty());
  EXPECT_TRUE(poll->snapshot.exhausted);

  auto graph = manager.GraphJson(id.value());
  ASSERT_TRUE(graph.ok());
  EXPECT_EQ(graph.value(), expected);

  const ServiceStats stats = manager.stats();
  EXPECT_EQ(stats.opened_total, 1u);
  EXPECT_EQ(stats.done, 1u);
  EXPECT_EQ(stats.live, 0u);
  EXPECT_GT(stats.quanta_total, 0u);
}

TEST(ServiceTest, PollCursorAcksAndRedelivers) {
  MiniTrace t = MakeMiniTrace();
  SessionManager manager(t.store.get(), ServiceLimits{});
  auto id = manager.Open("backward ip x[dst_ip = \"185.220.101.45\"] -> *", {});
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(manager.WaitAllTerminal(kWaitMicros));

  auto first = manager.Poll(id.value(), 0, 2);
  ASSERT_TRUE(first.ok());
  ASSERT_EQ(first->batches.size(), 2u);
  EXPECT_EQ(first->batches[0].seq, 0u);
  EXPECT_EQ(first->next_cursor, 2u);

  // Unacked batches are redelivered; acked ones are dropped for good.
  auto again = manager.Poll(id.value(), 0, 2);
  ASSERT_TRUE(again.ok());
  ASSERT_EQ(again->batches.size(), 2u);
  EXPECT_EQ(again->batches[0].seq, 0u);

  auto after_ack = manager.Poll(id.value(), 2, 0);
  ASSERT_TRUE(after_ack.ok());
  if (!after_ack->batches.empty()) {
    EXPECT_GE(after_ack->batches[0].seq, 2u);
  }
  EXPECT_FALSE(manager.Poll(999, 0, 0).ok());  // SRV-E003
}

TEST(ServiceTest, AdmissionCapRejectsWithE002) {
  RandomTrace t = MakeRandomTrace(11, 400);
  ServiceLimits limits;
  limits.max_live_sessions = 1;
  limits.update_buffer_cap = 1;  // the first session stalls, staying live
  SessionManager manager(t.store.get(), limits);

  OpenOptions opts;
  opts.start_event = t.alert.id;
  auto first = manager.Open(UnconstrainedScript(t), opts);
  ASSERT_TRUE(first.ok()) << first.status();

  // Wait until the session actually occupies its slot mid-run.
  ASSERT_TRUE(WaitFor(
      [&] {
        auto p = manager.Poll(first.value(), 0, 0);
        return p.ok() && !p->batches.empty();
      },
      kWaitMicros));

  auto second = manager.Open(UnconstrainedScript(t), opts);
  ASSERT_FALSE(second.ok());
  EXPECT_NE(second.status().message().find("SRV-E002"), std::string::npos);
  EXPECT_EQ(manager.stats().admission_rejected_total, 1u);

  // Draining the buffer lets the first session finish, freeing the slot.
  uint64_t cursor = 0;
  ASSERT_TRUE(WaitFor(
      [&] {
        auto p = manager.Poll(first.value(), cursor, 0);
        if (!p.ok()) return false;
        cursor = p->next_cursor;
        return p->terminal;
      },
      kWaitMicros));
  auto third = manager.Open(UnconstrainedScript(t), opts);
  EXPECT_TRUE(third.ok()) << third.status();
}

TEST(ServiceTest, WindowBudgetTerminatesSession) {
  RandomTrace t = MakeRandomTrace(12, 400);
  SessionManager manager(t.store.get(), ServiceLimits{});
  OpenOptions opts;
  opts.start_event = t.alert.id;
  opts.window_budget = 3;
  auto id = manager.Open(UnconstrainedScript(t), opts);
  ASSERT_TRUE(id.ok()) << id.status();
  ASSERT_TRUE(manager.WaitAllTerminal(kWaitMicros));

  auto poll = manager.Poll(id.value(), 0, 0);
  ASSERT_TRUE(poll.ok());
  EXPECT_EQ(poll->state, SessionState::kBudget);
  EXPECT_EQ(poll->detail, "window_budget_exhausted");
  EXPECT_EQ(manager.stats().budget_exhausted, 1u);
  // The partial graph is frozen and still serveable.
  EXPECT_TRUE(manager.GraphJson(id.value()).ok());
}

TEST(ServiceTest, SimBudgetTerminatesSession) {
  // The mini trace with the paper's cost model: every window consumes
  // simulated time, so a tiny budget trips on the first quantum.
  MiniTrace t = MakeMiniTrace(CostModel{});
  SessionManager manager(t.store.get(), ServiceLimits{});
  OpenOptions opts;
  opts.sim_budget = 1;
  auto id = manager.Open("backward ip x[dst_ip = \"185.220.101.45\"] -> *", opts);
  ASSERT_TRUE(id.ok()) << id.status();
  ASSERT_TRUE(manager.WaitAllTerminal(kWaitMicros));

  auto poll = manager.Poll(id.value(), 0, 0);
  ASSERT_TRUE(poll.ok());
  EXPECT_EQ(poll->state, SessionState::kBudget);
  EXPECT_EQ(poll->detail, "sim_budget_exhausted");
}

TEST(ServiceTest, BackpressureStallsUntilPolled) {
  RandomTrace t = MakeRandomTrace(13, 400);
  ServiceLimits limits;
  limits.update_buffer_cap = 1;
  SessionManager manager(t.store.get(), limits);
  const std::string expected =
      DirectRunGraph(*t.store, UnconstrainedScript(t), t.alert);

  OpenOptions opts;
  opts.start_event = t.alert.id;
  auto id = manager.Open(UnconstrainedScript(t), opts);
  ASSERT_TRUE(id.ok()) << id.status();

  // With nobody polling, the scheduler parks the session on its full
  // buffer instead of burning the machine.
  ASSERT_TRUE(WaitFor(
      [&] { return manager.stats().backpressure_stalls_total > 0; },
      kWaitMicros));
  EXPECT_EQ(manager.stats().live, 1u);

  // A polling client drains the buffer batch by batch; the run then
  // completes and the result is unchanged by all the stalling.
  uint64_t cursor = 0;
  ASSERT_TRUE(WaitFor(
      [&] {
        auto p = manager.Poll(id.value(), cursor, 0);
        if (!p.ok()) return false;
        cursor = p->next_cursor;
        return p->terminal;
      },
      kWaitMicros));
  auto graph = manager.GraphJson(id.value());
  ASSERT_TRUE(graph.ok());
  EXPECT_EQ(graph.value(), expected);
}

TEST(ServiceTest, QuantaDoNotDependOnPollTiming) {
  // A quantum is a fixed slice of the session's own windows: backpressure
  // parks a session between quanta but never cuts one short, so a slow
  // poller on a one-batch buffer sees the same quanta and the same graph
  // as a prompt poller on the default buffer.
  RandomTrace t = MakeRandomTrace(13, 400);
  const std::string script = UnconstrainedScript(t);
  OpenOptions opts;
  opts.start_event = t.alert.id;
  const auto serve = [&](size_t buffer_cap, uint64_t pause_micros,
                         std::string* graph, ServiceStats* stats) {
    ServiceLimits limits;
    limits.update_buffer_cap = buffer_cap;
    SessionManager manager(t.store.get(), limits);
    auto id = manager.Open(script, opts);
    ASSERT_TRUE(id.ok()) << id.status();
    uint64_t cursor = 0;
    ASSERT_TRUE(WaitFor(
        [&] {
          auto p = manager.Poll(id.value(), cursor, 0);
          if (!p.ok()) return false;
          cursor = p->next_cursor;
          std::this_thread::sleep_for(std::chrono::microseconds(pause_micros));
          return p->terminal;
        },
        kWaitMicros));
    auto g = manager.GraphJson(id.value());
    ASSERT_TRUE(g.ok()) << g.status();
    *graph = g.value();
    *stats = manager.stats();
  };
  std::string prompt_graph, slow_graph;
  ServiceStats prompt, slow;
  ASSERT_NO_FATAL_FAILURE(serve(ServiceLimits{}.update_buffer_cap, 0,
                                &prompt_graph, &prompt));
  ASSERT_NO_FATAL_FAILURE(serve(1, 2000, &slow_graph, &slow));
  EXPECT_EQ(slow_graph, prompt_graph);
  EXPECT_EQ(prompt.done, 1u);
  EXPECT_EQ(slow.done, 1u);
  EXPECT_GT(prompt.quanta_total, 1u);
  EXPECT_EQ(slow.quanta_total, prompt.quanta_total);
  EXPECT_GT(slow.backpressure_stalls_total, 0u);
}

TEST(ServiceTest, OpenAndShardRowsRaceIngestSeals) {
  // Open looks up its start event and /sessions reads the shard rows
  // while the scheduler appends live ingest and seals the columnar tail,
  // which recuts the segments those reads walk. Both must take the
  // store lock; the sanitizer legs run this to catch any that do not.
  RandomTrace t = MakeRandomTrace(24, 400, StorageBackendKind::kColumnar);
  const size_t before = t.store->NumEvents();
  constexpr size_t kBatches = 200;
  constexpr size_t kBatchRows = 8;
  ServiceLimits limits;
  limits.seal_tail_rows = 2 * kBatchRows;  // a seal every other batch
  limits.max_live_sessions = 1 << 20;
  SessionManager manager(t.store.get(), limits);
  const std::string script = UnconstrainedScript(t);

  std::atomic<bool> ingesting{true};
  std::thread ingest([&] {
    for (size_t b = 0; b < kBatches; ++b) {
      std::vector<Event> batch;
      for (size_t i = 0; i < kBatchRows; ++i) {
        Event e = t.events[(b * kBatchRows + i) % t.events.size()];
        e.timestamp += 50000;  // arrives after the sealed history
        batch.push_back(e);
      }
      EXPECT_TRUE(manager.Ingest(std::move(batch)).ok());
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
    ingesting.store(false);
  });
  std::thread scraper([&] {
    while (ingesting.load()) {
      EXPECT_FALSE(manager.StoreShardRows().empty());
    }
  });
  for (int opened = 0; opened < 600 && ingesting.load(); ++opened) {
    // The newest applied row: in the hot tail or a freshly sealed
    // segment, where the scheduler is appending and sealing.
    OpenOptions opts;
    opts.start_event = before + manager.stats().ingested_total - 1;
    opts.window_budget = 1;
    auto id = manager.Open(script, opts);
    EXPECT_TRUE(id.ok()) << id.status();
  }
  ingest.join();
  scraper.join();
  EXPECT_TRUE(WaitFor(
      [&] { return manager.stats().ingested_total == kBatches * kBatchRows; },
      kWaitMicros));
  EXPECT_TRUE(manager.WaitAllTerminal(kWaitMicros));
}

TEST(ServiceTest, CancelFinalizesStalledAndRunningSessions) {
  RandomTrace t = MakeRandomTrace(14, 400);
  ServiceLimits limits;
  limits.update_buffer_cap = 1;
  SessionManager manager(t.store.get(), limits);
  OpenOptions opts;
  opts.start_event = t.alert.id;
  auto id = manager.Open(UnconstrainedScript(t), opts);
  ASSERT_TRUE(id.ok());

  // Park it on backpressure first so Cancel exercises the off-CPU path.
  ASSERT_TRUE(WaitFor(
      [&] { return manager.stats().backpressure_stalls_total > 0; },
      kWaitMicros));
  ASSERT_TRUE(manager.Cancel(id.value()).ok());
  auto poll = manager.Poll(id.value(), 0, 0);
  ASSERT_TRUE(poll.ok());
  EXPECT_EQ(poll->state, SessionState::kCancelled);
  EXPECT_TRUE(poll->terminal);
  EXPECT_EQ(manager.stats().cancelled, 1u);
  EXPECT_EQ(manager.stats().live, 0u);

  // Cancelling again (or a terminal session) is a no-op, not an error.
  EXPECT_TRUE(manager.Cancel(id.value()).ok());
  // The partial graph survives for post-mortem fetches.
  EXPECT_TRUE(manager.GraphJson(id.value()).ok());
  EXPECT_FALSE(manager.Cancel(999).ok());  // SRV-E003
}

TEST(ServiceTest, IngestAppendsOnBothBackends) {
  for (const StorageBackendKind backend :
       {StorageBackendKind::kRow, StorageBackendKind::kColumnar}) {
    SCOPED_TRACE(StorageBackendName(backend));
    RandomTrace t = MakeRandomTrace(15, 200, backend);
    const size_t before = t.store->NumEvents();
    SessionManager manager(t.store.get(), ServiceLimits{});

    // Valid live events (they reference existing catalog objects).
    std::vector<Event> batch;
    for (int i = 0; i < 5; ++i) {
      Event e = t.events[static_cast<size_t>(i)];
      e.timestamp += 50000;  // arrives after the sealed history
      batch.push_back(e);
    }
    auto accepted = manager.Ingest(batch);
    ASSERT_TRUE(accepted.ok()) << accepted.status();
    EXPECT_EQ(accepted.value().accepted, 5u);
    EXPECT_EQ(accepted.value().wal_seq, 0u);  // no WAL attached
    ASSERT_TRUE(WaitFor(
        [&] { return manager.stats().ingested_total == 5; }, kWaitMicros));
    EXPECT_EQ(t.store->NumEvents(), before + 5);
    EXPECT_EQ(manager.stats().ingest_queue_depth, 0u);

    // One invalid row poisons the whole batch — nothing lands.
    std::vector<Event> bad = batch;
    bad[2].subject = 1u << 30;
    auto rejected = manager.Ingest(bad);
    ASSERT_FALSE(rejected.ok());
    EXPECT_NE(rejected.status().message().find("SRV-E007"),
              std::string::npos);
    EXPECT_EQ(t.store->NumEvents(), before + 5);
    EXPECT_EQ(manager.stats().ingest_rejected_total, 5u);

    // A session opened after the append can reach the new events.
    OpenOptions opts;
    opts.start_event = t.alert.id;
    auto id = manager.Open(UnconstrainedScript(t), opts);
    ASSERT_TRUE(id.ok()) << id.status();
    ASSERT_TRUE(manager.WaitAllTerminal(kWaitMicros));
    EXPECT_TRUE(manager.GraphJson(id.value()).ok());
  }
}

TEST(ServiceTest, IngestQueueCapRejectsOversizedBatch) {
  RandomTrace t = MakeRandomTrace(16, 100);
  ServiceLimits limits;
  limits.ingest_queue_cap = 3;
  SessionManager manager(t.store.get(), limits);
  std::vector<Event> batch(4, t.events[0]);
  auto r = manager.Ingest(batch);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("SRV-E007"), std::string::npos);
}

TEST(ServiceTest, DrainRejectsNewWorkAndStaysCheckpointable) {
  RandomTrace t = MakeRandomTrace(17, 400);
  ServiceLimits limits;
  limits.update_buffer_cap = 1;  // keep the session live across the drain
  SessionManager manager(t.store.get(), limits);
  OpenOptions opts;
  opts.start_event = t.alert.id;
  auto id = manager.Open(UnconstrainedScript(t), opts);
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(WaitFor(
      [&] { return manager.stats().backpressure_stalls_total > 0; },
      kWaitMicros));

  manager.Stop();
  EXPECT_TRUE(manager.draining());
  auto refused = manager.Open(UnconstrainedScript(t), opts);
  ASSERT_FALSE(refused.ok());
  EXPECT_NE(refused.status().message().find("SRV-E008"), std::string::npos);
  auto no_ingest = manager.Ingest({t.events[0]});
  ASSERT_FALSE(no_ingest.ok());
  EXPECT_NE(no_ingest.status().message().find("SRV-E008"),
            std::string::npos);

  // The paused session is still intact: its graph is serveable and it
  // can be persisted for a later daemon to resume.
  EXPECT_TRUE(manager.GraphJson(id.value()).ok());
  const std::string path =
      testing::TempDir() + "aptrace_service_drain.ckpt";
  EXPECT_TRUE(manager.Checkpoint(id.value(), path).ok());
  unlink(path.c_str());
}

TEST(ServiceTest, CheckpointResumeMatchesUninterruptedRun) {
  RandomTrace t = MakeRandomTrace(18, 400);
  const std::string script = UnconstrainedScript(t);
  const std::string expected = DirectRunGraph(*t.store, script, t.alert);
  const std::string path =
      testing::TempDir() + "aptrace_service_resume.ckpt";

  // First daemon: run partway (the tiny buffer stalls it), checkpoint.
  {
    ServiceLimits limits;
    limits.update_buffer_cap = 1;
    SessionManager manager(t.store.get(), limits);
    OpenOptions opts;
    opts.start_event = t.alert.id;
    auto id = manager.Open(script, opts);
    ASSERT_TRUE(id.ok());
    ASSERT_TRUE(WaitFor(
        [&] { return manager.stats().backpressure_stalls_total > 0; },
        kWaitMicros));
    ASSERT_TRUE(manager.Checkpoint(id.value(), path).ok());
    // Checkpointing a terminal session is SRV-E005.
    ASSERT_TRUE(manager.Cancel(id.value()).ok());
    auto st = manager.Checkpoint(id.value(), path + ".2");
    ASSERT_FALSE(st.ok());
    EXPECT_NE(st.message().find("SRV-E005"), std::string::npos);
  }

  // Second daemon (same sealed store): resume and run to completion.
  {
    SessionManager manager(t.store.get(), ServiceLimits{});
    auto id = manager.Resume(path, {});
    ASSERT_TRUE(id.ok()) << id.status();
    ASSERT_TRUE(manager.WaitAllTerminal(kWaitMicros));
    auto poll = manager.Poll(id.value(), 0, 0);
    ASSERT_TRUE(poll.ok());
    EXPECT_EQ(poll->state, SessionState::kDone);
    auto graph = manager.GraphJson(id.value());
    ASSERT_TRUE(graph.ok());
    EXPECT_EQ(graph.value(), expected);

    auto bad = manager.Resume(path + ".missing", {});
    ASSERT_FALSE(bad.ok());
    EXPECT_NE(bad.status().message().find("SRV-E009"), std::string::npos);
  }
  unlink(path.c_str());
}

TEST(ServiceTest, FairShareServesSmallSessionsUnderALargeOne) {
  // One 10x-larger session plus three small ones: fair-share must hand
  // every small session its first update batch long before the large
  // session finishes (the multi-tenant responsiveness claim).
  RandomTrace t = MakeRandomTrace(19, 2000);
  SessionManager manager(t.store.get(), ServiceLimits{});
  OpenOptions opts;
  opts.start_event = t.alert.id;

  auto large = manager.Open(UnconstrainedScript(t), opts);
  ASSERT_TRUE(large.ok()) << large.status();
  std::vector<uint64_t> small_ids;
  for (int i = 0; i < 3; ++i) {
    auto id = manager.Open(UnconstrainedScript(t) + " where hop <= 1", opts);
    ASSERT_TRUE(id.ok()) << id.status();
    small_ids.push_back(id.value());
  }

  // A small session counts as served once it has produced an update
  // batch or finished outright — either way the scheduler gave it CPU
  // while the large closure was still grinding.
  std::vector<bool> small_served(small_ids.size(), false);
  bool large_done = false;
  ASSERT_TRUE(WaitFor(
      [&] {
        for (size_t i = 0; i < small_ids.size(); ++i) {
          if (small_served[i]) continue;
          auto p = manager.Poll(small_ids[i], 0, 1);
          if (p.ok() && (!p->batches.empty() || p->terminal)) {
            small_served[i] = true;
          }
        }
        auto p = manager.Poll(large.value(), 0, 1);
        if (p.ok() && p->terminal) large_done = true;
        return large_done;
      },
      kWaitMicros));
  for (size_t i = 0; i < small_ids.size(); ++i) {
    EXPECT_TRUE(small_served[i])
        << "small session " << small_ids[i]
        << " saw no service before the large session completed";
  }
  ASSERT_TRUE(manager.WaitAllTerminal(kWaitMicros));
}

TEST(ServiceTest, ProfileReconcilesWithEngineTotals) {
  MiniTrace t = MakeMiniTrace(CostModel{});
  SessionManager manager(t.store.get(), ServiceLimits{});
  auto id = manager.Open("backward ip x[dst_ip = \"185.220.101.45\"] -> *", {});
  ASSERT_TRUE(id.ok()) << id.status();
  ASSERT_TRUE(manager.WaitAllTerminal(kWaitMicros));

  auto prof = manager.Profile(id.value());
  ASSERT_TRUE(prof.ok()) << prof.status();
  auto parsed = ParseJson(prof->profile_json);
  ASSERT_TRUE(parsed.ok()) << prof->profile_json;
  const JsonValue& p = parsed.value();
  const JsonValue* total = p.Find("total");
  ASSERT_NE(total, nullptr);

  // Every window is charged to exactly one bucket on each axis, so each
  // axis must sum to the total on every deterministic column.
  for (const char* axis : {"by_hop", "by_state"}) {
    const JsonValue* buckets = p.Find(axis);
    ASSERT_NE(buckets, nullptr);
    ASSERT_TRUE(buckets->IsArray());
    for (const char* col :
         {"windows", "rows", "rows_filtered", "partitions_probed",
          "segments_pruned", "edges", "sim_cost_micros", "wall_micros"}) {
      uint64_t sum = 0;
      for (const JsonValue& b : buckets->items) sum += b.GetUint(col);
      EXPECT_EQ(sum, total->GetUint(col)) << axis << "." << col;
    }
  }
  // The profile reconciles with the engine's own independent accounting:
  // simulated cost against the scan-overlap model's accumulator, window
  // count against the scheduler's work units.
  EXPECT_GT(total->GetUint("windows"), 0u);
  EXPECT_EQ(total->GetUint("sim_cost_micros"), prof->scan_cost_micros);
  EXPECT_EQ(total->GetUint("windows"), prof->work_units);
  EXPECT_FALSE(prof->probe_unit.empty());

  auto missing = manager.Profile(999);
  ASSERT_FALSE(missing.ok());  // SRV-E003
  EXPECT_NE(missing.status().message().find("SRV-E003"), std::string::npos);
}

TEST(ServiceTest, SlowQueryLogsDumpsAndCountsExactlyOnce) {
  MiniTrace t = MakeMiniTrace();
  const std::string flight_dir =
      testing::TempDir() + "aptrace_flight_test";
  mkdir(flight_dir.c_str(), 0755);
  ServiceLimits limits;
  limits.slow_query_micros = 1;  // any real quantum crosses this
  limits.flight_dump_dir = flight_dir;

  testing::internal::CaptureStderr();
  uint64_t session_id = 0;
  uint64_t slow_total = 0;
  uint64_t dump_total = 0;
  {
    SessionManager manager(t.store.get(), limits);
    auto id =
        manager.Open("backward ip x[dst_ip = \"185.220.101.45\"] -> *", {});
    if (id.ok()) session_id = id.value();
    const bool terminal = id.ok() && manager.WaitAllTerminal(kWaitMicros);
    // The dump happens after the terminal state publishes; wait it out.
    const bool dumped = terminal &&
        WaitFor([&] { return manager.stats().flight_dumps_total >= 1; },
                kWaitMicros);
    slow_total = manager.stats().slow_queries_total;
    dump_total = manager.stats().flight_dumps_total;
    EXPECT_TRUE(dumped);
  }
  const std::string err = testing::internal::GetCapturedStderr();

  // The latch fires once per session no matter how many quanta follow:
  // one counter tick, one dump, one structured warning line.
  EXPECT_EQ(slow_total, 1u);
  EXPECT_EQ(dump_total, 1u);
  size_t log_lines = 0;
  for (size_t pos = 0;
       (pos = err.find("slow_query session=", pos)) != std::string::npos;
       ++pos) {
    ++log_lines;
  }
  EXPECT_EQ(log_lines, 1u) << err;
  EXPECT_NE(err.find("threshold_micros=1"), std::string::npos) << err;

  const std::string dump_path = flight_dir + "/flight-" +
                                std::to_string(session_id) +
                                "-slow-query.json";
  std::ifstream dump(dump_path);
  ASSERT_TRUE(dump.good()) << dump_path;
  std::stringstream body;
  body << dump.rdbuf();
  EXPECT_NE(body.str().find("\"traceEvents\":["), std::string::npos);
  unlink(dump_path.c_str());
}

// ------------------------------------------------- protocol-level restart

/// Minimal blocking line client for the in-test daemon.
class TestClient {
 public:
  explicit TestClient(const std::string& socket_path) {
    fd_ = socket(AF_UNIX, SOCK_STREAM, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, socket_path.c_str(),
                 sizeof(addr.sun_path) - 1);
    connected_ =
        connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0;
  }
  ~TestClient() {
    if (fd_ >= 0) close(fd_);
  }
  bool connected() const { return connected_; }

  JsonValue Call(const std::string& request) {
    const std::string line = request + "\n";
    EXPECT_EQ(send(fd_, line.data(), line.size(), 0),
              static_cast<ssize_t>(line.size()));
    size_t nl;
    while ((nl = buffer_.find('\n')) == std::string::npos) {
      char buf[4096];
      const ssize_t n = recv(fd_, buf, sizeof(buf), 0);
      if (n <= 0) {
        ADD_FAILURE() << "daemon closed the connection";
        return {};
      }
      buffer_.append(buf, static_cast<size_t>(n));
    }
    const std::string response = buffer_.substr(0, nl);
    buffer_.erase(0, nl + 1);
    auto parsed = ParseJson(response);
    EXPECT_TRUE(parsed.ok()) << response;
    return parsed.ok() ? std::move(parsed.value()) : JsonValue{};
  }

 private:
  int fd_ = -1;
  bool connected_ = false;
  std::string buffer_;
};

TEST(ServiceServerTest, CheckpointRestartResumeOverProtocol) {
  MiniTrace t = MakeMiniTrace();
  const std::string script = "backward ip x[dst_ip = \"185.220.101.45\"] -> *";
  // The same script with its quotes escaped for splicing into a JSON
  // request line.
  const std::string script_json =
      "backward ip x[dst_ip = \\\"185.220.101.45\\\"] -> *";
  const std::string expected =
      DirectRunGraph(*t.store, script, std::nullopt);
  const std::string socket_path =
      testing::TempDir() + "aptrace_svc_test.sock";
  const std::string ckpt_path =
      testing::TempDir() + "aptrace_svc_test.ckpt";

  // Daemon #1: open a session, stall it, checkpoint it, shut down.
  {
    ServiceLimits limits;
    limits.update_buffer_cap = 1;
    SessionManager manager(t.store.get(), limits);
    ServerOptions options;
    options.unix_socket_path = socket_path;
    Server server(&manager, options);
    ASSERT_TRUE(server.Start().ok());

    TestClient client(socket_path);
    ASSERT_TRUE(client.connected());
    const JsonValue opened =
        client.Call("{\"op\":\"open\",\"bdl\":\"" + script_json + "\"}");
    ASSERT_TRUE(opened.GetBool("ok")) << opened.GetString("error");
    const uint64_t id = opened.GetUint("session");
    ASSERT_TRUE(WaitFor(
        [&] { return manager.stats().backpressure_stalls_total > 0; },
        kWaitMicros));

    const JsonValue ckpt = client.Call(
        "{\"op\":\"checkpoint\",\"session\":" + std::to_string(id) +
        ",\"path\":\"" + ckpt_path + "\"}");
    ASSERT_TRUE(ckpt.GetBool("ok")) << ckpt.GetString("error");

    const JsonValue bye = client.Call("{\"op\":\"shutdown\"}");
    EXPECT_TRUE(bye.GetBool("draining"));
    server.Shutdown();
  }

  // Daemon #2 on the same socket path: resume the checkpoint, poll to
  // completion, and fetch a graph identical to the uninterrupted run.
  {
    SessionManager manager(t.store.get(), ServiceLimits{});
    ServerOptions options;
    options.unix_socket_path = socket_path;
    Server server(&manager, options);
    ASSERT_TRUE(server.Start().ok());

    TestClient client(socket_path);
    ASSERT_TRUE(client.connected());
    const JsonValue resumed = client.Call(
        "{\"op\":\"resume\",\"path\":\"" + ckpt_path + "\"}");
    ASSERT_TRUE(resumed.GetBool("ok")) << resumed.GetString("error");
    const uint64_t id = resumed.GetUint("session");

    uint64_t cursor = 0;
    ASSERT_TRUE(WaitFor(
        [&] {
          const JsonValue p = client.Call(
              "{\"op\":\"poll\",\"session\":" + std::to_string(id) +
              ",\"cursor\":" + std::to_string(cursor) + "}");
          if (!p.GetBool("ok")) return false;
          cursor = p.GetUint("next_cursor", cursor);
          return p.GetBool("terminal");
        },
        kWaitMicros));

    const JsonValue graph = client.Call(
        "{\"op\":\"graph\",\"session\":" + std::to_string(id) + "}");
    ASSERT_TRUE(graph.GetBool("ok"));
    EXPECT_EQ(graph.GetString("graph"), expected);
    server.Shutdown();
  }
  unlink(ckpt_path.c_str());
}

TEST(ServiceServerTest, GracefulShutdownUnderLoad) {
  // Several live (stalled) sessions plus a connected client: the drain
  // must answer the shutdown op, stop the scheduler, and tear down with
  // no leaks or races (ASan/TSan legs run this test).
  RandomTrace t = MakeRandomTrace(20, 600);
  ServiceLimits limits;
  limits.update_buffer_cap = 1;
  SessionManager manager(t.store.get(), limits);
  const std::string socket_path =
      testing::TempDir() + "aptrace_svc_load.sock";
  ServerOptions options;
  options.unix_socket_path = socket_path;
  Server server(&manager, options);
  ASSERT_TRUE(server.Start().ok());

  TestClient client(socket_path);
  ASSERT_TRUE(client.connected());
  std::string open_request = "{\"op\":\"open\",\"bdl\":\"" +
                             UnconstrainedScript(t) +
                             "\",\"start_event\":" +
                             std::to_string(t.alert.id) + "}";
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(client.Call(open_request).GetBool("ok"));
  }
  const JsonValue bye = client.Call("{\"op\":\"shutdown\"}");
  EXPECT_TRUE(bye.GetBool("draining"));
  server.Shutdown();  // joins everything; sanitizers verify the rest
}

}  // namespace
}  // namespace aptrace::service
