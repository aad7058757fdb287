// Concurrent analysis: after Seal(), any number of sessions may run
// against one store from different threads (I/O counters behind one
// stats mutex, otherwise read-only state). Results must match the
// serial runs exactly.

#include <gtest/gtest.h>

#include <atomic>
#include <deque>
#include <set>
#include <thread>
#include <vector>

#include "core/engine.h"
#include "service/http.h"
#include "service/session_manager.h"
#include "tests/forwarding_backend.h"
#include "util/sync.h"
#include "workload/enterprise.h"

namespace aptrace {
namespace {

std::set<EventId> EdgeSet(const DepGraph& g) {
  std::set<EventId> out;
  g.ForEachEdge([&](const DepGraph::Edge& e) { out.insert(e.event); });
  return out;
}

TEST(ConcurrencyTest, ParallelSessionsMatchSerial) {
  workload::TraceConfig config = workload::TraceConfig::Small();
  config.num_hosts = 4;
  auto store = workload::BuildEnterpriseTrace(config);
  const auto alerts = workload::SampleAnomalyEvents(*store, 12, 7);

  const auto run_one = [&](const Event& alert) {
    SimClock clock;
    Session session(store.get(), &clock);
    const auto spec = workload::GenericSpecFor(*store, alert);
    EXPECT_TRUE(session.StartWithSpec(spec, alert).ok());
    RunLimits limits;
    limits.sim_time = 10 * kMicrosPerMinute;
    EXPECT_TRUE(session.Step(limits).ok());
    return EdgeSet(session.graph());
  };

  // Serial reference.
  std::vector<std::set<EventId>> serial;
  serial.reserve(alerts.size());
  for (const Event& alert : alerts) serial.push_back(run_one(alert));

  // The same cases across 4 threads, twice to shake out races.
  for (int round = 0; round < 2; ++round) {
    std::vector<std::set<EventId>> parallel(alerts.size());
    std::vector<std::thread> pool;
    for (int t = 0; t < 4; ++t) {
      pool.emplace_back([&, t] {
        for (size_t i = static_cast<size_t>(t); i < alerts.size(); i += 4) {
          parallel[i] = run_one(alerts[i]);
        }
      });
    }
    for (auto& t : pool) t.join();
    for (size_t i = 0; i < alerts.size(); ++i) {
      EXPECT_EQ(parallel[i], serial[i]) << "case " << i;
    }
  }
}

// Batched collection inside concurrent executors: sessions over a store
// whose shards report collect_batch 8 must reproduce the inline edge
// sets, also when several batched sessions run at once over the same
// store (each scatters its own CollectMany calls on its own thread).
TEST(ConcurrencyTest, BatchedExecutorsMatchInline) {
  workload::TraceConfig config = workload::TraceConfig::Small();
  config.num_hosts = 4;
  config.shards = 2;
  auto inline_store = workload::BuildEnterpriseTrace(config);
  config.store_tweak = [](EventStoreOptions& options) {
    UseForwardingShards(options, 8);
  };
  auto batched_store = workload::BuildEnterpriseTrace(config);
  ASSERT_EQ(batched_store->backend().capabilities().collect_batch, 8u);
  const auto alerts = workload::SampleAnomalyEvents(*inline_store, 8, 13);

  const auto run_one = [&](const EventStore& store, const Event& alert) {
    SimClock clock;
    Session session(&store, &clock);
    const auto spec = workload::GenericSpecFor(store, alert);
    EXPECT_TRUE(session.StartWithSpec(spec, alert).ok());
    RunLimits limits;
    limits.sim_time = 10 * kMicrosPerMinute;
    EXPECT_TRUE(session.Step(limits).ok());
    return EdgeSet(session.graph());
  };

  std::vector<std::set<EventId>> serial;
  serial.reserve(alerts.size());
  for (const Event& alert : alerts) {
    serial.push_back(run_one(*inline_store, alert));
  }

  std::vector<std::set<EventId>> batched(alerts.size());
  std::vector<std::thread> outer;
  for (int t = 0; t < 2; ++t) {
    outer.emplace_back([&, t] {
      for (size_t i = static_cast<size_t>(t); i < alerts.size(); i += 2) {
        batched[i] = run_one(*batched_store, alerts[i]);
      }
    });
  }
  for (auto& t : outer) t.join();
  for (size_t i = 0; i < alerts.size(); ++i) {
    EXPECT_EQ(batched[i], serial[i]) << "case " << i;
  }
}

TEST(ConcurrencyTest, StatsAggregateAcrossThreads) {
  workload::TraceConfig config = workload::TraceConfig::Small();
  config.num_hosts = 3;
  auto store = workload::BuildEnterpriseTrace(config);
  store->ResetStats();

  const auto alerts = workload::SampleAnomalyEvents(*store, 8, 11);
  std::vector<std::thread> pool;
  for (int t = 0; t < 4; ++t) {
    pool.emplace_back([&, t] {
      for (size_t i = static_cast<size_t>(t); i < alerts.size(); i += 4) {
        SimClock clock;
        Session session(store.get(), &clock);
        const auto spec = workload::GenericSpecFor(*store, alerts[i]);
        if (!session.StartWithSpec(spec, alerts[i]).ok()) continue;
        RunLimits limits;
        limits.sim_time = 2 * kMicrosPerMinute;
        (void)session.Step(limits);
      }
    });
  }
  for (auto& t : pool) t.join();

  const StoreStats stats = store->stats();
  EXPECT_GT(stats.queries, 0u);
  // Cost is consistent with the accumulated counters (all queries were
  // charged through the same model).
  EXPECT_GT(stats.simulated_cost, 0);
}

// stats() must return one *consistent* snapshot: every field is read
// under the same lock that writers hold for the whole-query update, so
// cross-field invariants hold in every snapshot and every field is
// monotonic between snapshots. (The seed implementation used six
// independent atomics, which could tear across fields mid-query.)
TEST(ConcurrencyTest, StatsSnapshotsAreConsistentAndMonotonic) {
  workload::TraceConfig config = workload::TraceConfig::Small();
  config.num_hosts = 3;
  auto store = workload::BuildEnterpriseTrace(config);
  store->ResetStats();
  const auto alerts = workload::SampleAnomalyEvents(*store, 8, 17);

  std::atomic<bool> done{false};
  std::vector<StoreStats> snapshots;
  std::thread reader([&] {
    while (!done.load(std::memory_order_relaxed)) {
      snapshots.push_back(store->stats());
    }
    snapshots.push_back(store->stats());
  });

  std::vector<std::thread> pool;
  for (int t = 0; t < 4; ++t) {
    pool.emplace_back([&, t] {
      for (size_t i = static_cast<size_t>(t); i < alerts.size(); i += 4) {
        SimClock clock;
        Session session(store.get(), &clock);
        const auto spec = workload::GenericSpecFor(*store, alerts[i]);
        if (!session.StartWithSpec(spec, alerts[i]).ok()) continue;
        RunLimits limits;
        limits.sim_time = 2 * kMicrosPerMinute;
        (void)session.Step(limits);
      }
    });
  }
  for (auto& t : pool) t.join();
  done.store(true, std::memory_order_relaxed);
  reader.join();

  ASSERT_FALSE(snapshots.empty());
  const StoreStats* prev = nullptr;
  for (const StoreStats& s : snapshots) {
    // Cross-field invariant inside one snapshot: a seek always follows
    // a probe of the same unit within the same locked update.
    EXPECT_LE(s.partitions_seeked, s.partitions_probed);
    if (prev != nullptr) {
      // Monotonic nondecreasing deltas between consecutive snapshots.
      EXPECT_GE(s.queries, prev->queries);
      EXPECT_GE(s.rows_matched, prev->rows_matched);
      EXPECT_GE(s.rows_filtered, prev->rows_filtered);
      EXPECT_GE(s.partitions_probed, prev->partitions_probed);
      EXPECT_GE(s.partitions_seeked, prev->partitions_seeked);
      EXPECT_GE(s.segments_pruned, prev->segments_pruned);
      EXPECT_GE(s.simulated_cost, prev->simulated_cost);
    }
    prev = &s;
  }
  EXPECT_GT(snapshots.back().queries, 0u);
}

// Sharded store under concurrent scans: N shard backends charge cost
// into the aggregate while readers take (total, per-shard) snapshots.
// Every snapshot is taken under the store's single aggregation lock, so
// the per-shard counters must sum exactly to the totals in EVERY
// observed snapshot — not just at quiescence — and both levels must be
// monotonic between snapshots. Under the CI TSan leg this doubles as
// the data-race certification of ShardedStore's scatter-gather path.
TEST(ConcurrencyTest, ShardedStatsSnapshotsReconcileUnderScans) {
  workload::TraceConfig config = workload::TraceConfig::Small();
  config.num_hosts = 4;
  config.shards = 4;
  // Batched collects: each session thread scatter-gathers its own
  // CollectMany calls and charges its own replays.
  config.store_tweak = [](EventStoreOptions& options) {
    UseForwardingShards(options, 8);
  };
  auto store = workload::BuildEnterpriseTrace(config);
  ASSERT_EQ(store->shard_count(), 4u);
  store->ResetStats();
  const auto alerts = workload::SampleAnomalyEvents(*store, 8, 19);

  std::atomic<bool> done{false};
  std::vector<ShardedStore::Snapshot> snapshots;
  std::thread reader([&] {
    while (!done.load(std::memory_order_relaxed)) {
      snapshots.push_back(store->ShardSnapshot());
    }
    snapshots.push_back(store->ShardSnapshot());
  });

  std::vector<std::thread> pool;
  for (int t = 0; t < 4; ++t) {
    pool.emplace_back([&, t] {
      for (size_t i = static_cast<size_t>(t); i < alerts.size(); i += 4) {
        SimClock clock;
        Session session(store.get(), &clock);
        const auto spec = workload::GenericSpecFor(*store, alerts[i]);
        if (!session.StartWithSpec(spec, alerts[i]).ok()) continue;
        RunLimits limits;
        limits.sim_time = 2 * kMicrosPerMinute;
        (void)session.Step(limits);
      }
    });
  }
  for (auto& t : pool) t.join();
  done.store(true, std::memory_order_relaxed);
  reader.join();

  ASSERT_FALSE(snapshots.empty());
  const ShardedStore::Snapshot* prev = nullptr;
  for (const ShardedStore::Snapshot& snap : snapshots) {
    ASSERT_EQ(snap.shards.size(), 4u);
    StoreStats sum;
    for (const auto& row : snap.shards) {
      sum.rows_matched += row.stats.rows_matched;
      sum.rows_filtered += row.stats.rows_filtered;
      sum.partitions_probed += row.stats.partitions_probed;
      sum.partitions_seeked += row.stats.partitions_seeked;
      sum.segments_pruned += row.stats.segments_pruned;
    }
    // The single-lock consistency contract: exact in every snapshot.
    EXPECT_EQ(sum.rows_matched, snap.total.rows_matched);
    EXPECT_EQ(sum.rows_filtered, snap.total.rows_filtered);
    EXPECT_EQ(sum.partitions_probed, snap.total.partitions_probed);
    EXPECT_EQ(sum.partitions_seeked, snap.total.partitions_seeked);
    EXPECT_EQ(sum.segments_pruned, snap.total.segments_pruned);
    if (prev != nullptr) {
      EXPECT_GE(snap.total.queries, prev->total.queries);
      EXPECT_GE(snap.total.rows_matched, prev->total.rows_matched);
      EXPECT_GE(snap.total.simulated_cost, prev->total.simulated_cost);
      for (size_t s = 0; s < snap.shards.size(); ++s) {
        EXPECT_GE(snap.shards[s].stats.rows_matched,
                  prev->shards[s].stats.rows_matched);
        EXPECT_GE(snap.shards[s].stats.partitions_probed,
                  prev->shards[s].stats.partitions_probed);
      }
    }
    prev = &snap;
  }
  EXPECT_GT(snapshots.back().total.queries, 0u);
}

// Session::Snapshot is documented tear-free and callable from a thread
// other than the one driving Step(); TSan checks the synchronization,
// we check the monotonic-progress invariant across reads.
TEST(ConcurrencyTest, SnapshotReadableWhileStepping) {
  workload::TraceConfig config = workload::TraceConfig::Small();
  config.num_hosts = 3;
  auto store = workload::BuildEnterpriseTrace(config);
  const auto alerts = workload::SampleAnomalyEvents(*store, 1, 23);
  ASSERT_FALSE(alerts.empty());

  SimClock clock;
  Session session(store.get(), &clock);
  const auto spec = workload::GenericSpecFor(*store, alerts[0]);
  ASSERT_TRUE(session.StartWithSpec(spec, alerts[0]).ok());

  std::atomic<bool> done{false};
  std::thread reader([&] {
    size_t last_edges = 0;
    uint64_t last_work = 0;
    while (!done.load(std::memory_order_relaxed)) {
      const SessionSnapshot snap = session.Snapshot();
      EXPECT_TRUE(snap.started);
      EXPECT_GE(snap.graph_edges, last_edges);
      EXPECT_GE(snap.work_units, last_work);
      last_edges = snap.graph_edges;
      last_work = snap.work_units;
    }
  });

  RunLimits limits;
  limits.sim_time = 10 * kMicrosPerMinute;
  EXPECT_TRUE(session.Step(limits).ok());
  done.store(true, std::memory_order_relaxed);
  reader.join();
  EXPECT_GT(session.Snapshot().work_units, 0u);
}

// Client-facing SessionManager entry points hammered from several
// threads while the scheduler interleaves the sessions' quanta. Poll,
// stats, and cancel must all stay well-formed mid-flight.
TEST(ConcurrencyTest, ServiceOpsRaceTheScheduler) {
  workload::TraceConfig config = workload::TraceConfig::Small();
  config.num_hosts = 3;
  auto store = workload::BuildEnterpriseTrace(config);
  const auto alerts = workload::SampleAnomalyEvents(*store, 4, 31);
  ASSERT_GE(alerts.size(), 4u);

  service::ServiceLimits limits;
  limits.quantum_windows = 2;  // many scheduler passes
  service::SessionManager manager(store.get(), limits);
  std::vector<uint64_t> ids;
  for (const Event& alert : alerts) {
    service::OpenOptions opts;
    opts.start_event = alert.id;
    auto id = manager.Open("backward proc x[] -> *", opts);
    ASSERT_TRUE(id.ok()) << id.status();
    ids.push_back(id.value());
  }

  std::atomic<bool> done{false};
  std::vector<std::thread> clients;
  for (size_t c = 0; c < 3; ++c) {
    clients.emplace_back([&, c] {
      uint64_t cursor = 0;
      while (!done.load(std::memory_order_relaxed)) {
        const uint64_t id = ids[c % ids.size()];
        auto p = manager.Poll(id, cursor, 4);
        if (p.ok()) {
          cursor = p->next_cursor;
          EXPECT_TRUE(p->snapshot.started);
        }
        const service::ServiceStats stats = manager.stats();
        EXPECT_LE(stats.done + stats.cancelled + stats.budget_exhausted,
                  stats.opened_total);
      }
    });
  }
  // One client cancels a session mid-run; idempotent on repeat.
  EXPECT_TRUE(manager.Cancel(ids.back()).ok());
  EXPECT_TRUE(manager.Cancel(ids.back()).ok());

  EXPECT_TRUE(manager.WaitAllTerminal(60'000'000));
  done.store(true, std::memory_order_relaxed);
  for (auto& c : clients) c.join();

  const service::ServiceStats stats = manager.stats();
  EXPECT_EQ(stats.live, 0u);
  EXPECT_EQ(stats.opened_total, ids.size());
}

// HTTP scrapes racing the scheduler and each other: /metrics, /sessions,
// and /readyz are served from threads concurrent with session quanta and
// with other scrapes. TSan checks the synchronization (metrics registry,
// SessionRows, the draining flag); we check every response stays
// well-formed mid-flight.
TEST(ConcurrencyTest, ConcurrentScrapesRaceTheScheduler) {
  workload::TraceConfig config = workload::TraceConfig::Small();
  config.num_hosts = 3;
  auto store = workload::BuildEnterpriseTrace(config);
  const auto alerts = workload::SampleAnomalyEvents(*store, 4, 41);
  ASSERT_GE(alerts.size(), 4u);

  service::ServiceLimits limits;
  limits.quantum_windows = 2;   // many scheduler passes
  limits.window_budget = 2000;  // every session terminates (done/budget)
  service::SessionManager manager(store.get(), limits);
  std::vector<uint64_t> ids;
  for (const Event& alert : alerts) {
    service::OpenOptions opts;
    opts.start_event = alert.id;
    auto id = manager.Open("backward proc x[] -> *", opts);
    ASSERT_TRUE(id.ok()) << id.status();
    ids.push_back(id.value());
  }

  const char* targets[] = {"/metrics", "/sessions", "/readyz"};
  std::atomic<bool> done{false};
  std::vector<std::thread> scrapers;
  // One poller keeps the update buffers drained so no session parks on
  // backpressure — the scrapers race live, progressing sessions.
  scrapers.emplace_back([&] {
    std::vector<uint64_t> cursors(ids.size(), 0);
    while (!done.load(std::memory_order_relaxed)) {
      for (size_t i = 0; i < ids.size(); ++i) {
        auto p = manager.Poll(ids[i], cursors[i], 8);
        if (p.ok()) cursors[i] = p->next_cursor;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  for (size_t s = 0; s < 3; ++s) {
    scrapers.emplace_back([&, s] {
      while (!done.load(std::memory_order_relaxed)) {
        service::HttpRequest request;
        request.method = "GET";
        request.target = targets[s];
        const service::HttpResponse response =
            service::HandleHttpRequest(request, &manager);
        EXPECT_TRUE(response.status == 200 || response.status == 503);
        EXPECT_FALSE(response.body.empty());
        // Scrapers are periodic in practice; a tight loop would only
        // starve the scheduler of the manager mutex.
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    });
  }

  EXPECT_TRUE(manager.WaitAllTerminal(60'000'000));
  manager.Stop();  // scrapes must survive the drain flip too
  done.store(true, std::memory_order_relaxed);
  for (auto& s : scrapers) s.join();
  EXPECT_EQ(manager.stats().live, 0u);
}

// ------------------------------------------------------------------
// Contention section for the util/sync.h wrappers. Runs in every build;
// under the CI TSan leg it doubles as the data-race certification of the
// Mutex/MutexLock/CondVar implementation itself (adopt/release tricks,
// lock-order bookkeeping, thread_local held stacks).

TEST(ConcurrencyTest, SyncWrappersUnderContention) {
  Mutex mu("test::contention");
  uint64_t counter = 0;
  constexpr int kThreads = 8;
  constexpr int kIters = 5000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kIters; ++i) {
        if (i % 16 == 0 && mu.TryLock()) {
          counter++;
          mu.Unlock();
          continue;
        }
        MutexLock lock(&mu);
        counter++;
      }
    });
  }
  for (std::thread& t : threads) t.join();
  MutexLock lock(&mu);
  EXPECT_EQ(counter, static_cast<uint64_t>(kThreads) * kIters);
}

TEST(ConcurrencyTest, CondVarProducersConsumersUnderContention) {
  Mutex mu("test::pc_queue");
  CondVar not_empty;
  std::deque<int> queue;
  bool closed = false;
  constexpr int kProducers = 3;
  constexpr int kConsumers = 3;
  constexpr int kPerProducer = 2000;

  std::atomic<long> consumed_sum{0};
  std::vector<std::thread> threads;
  threads.reserve(kProducers + kConsumers);
  for (int c = 0; c < kConsumers; ++c) {
    threads.emplace_back([&] {
      for (;;) {
        int item = 0;
        {
          MutexLock lock(&mu);
          while (queue.empty() && !closed) not_empty.Wait(lock);
          if (queue.empty()) return;  // closed and drained
          item = queue.front();
          queue.pop_front();
        }
        consumed_sum.fetch_add(item, std::memory_order_relaxed);
      }
    });
  }
  for (int p = 0; p < kProducers; ++p) {
    threads.emplace_back([&] {
      for (int i = 1; i <= kPerProducer; ++i) {
        {
          MutexLock lock(&mu);
          queue.push_back(i);
        }
        not_empty.NotifyOne();
      }
    });
  }
  for (size_t i = kConsumers; i < threads.size(); ++i) threads[i].join();
  {
    MutexLock lock(&mu);
    closed = true;
  }
  not_empty.NotifyAll();
  for (int c = 0; c < kConsumers; ++c) threads[static_cast<size_t>(c)].join();

  const long expected = static_cast<long>(kProducers) * kPerProducer *
                        (kPerProducer + 1) / 2;
  EXPECT_EQ(consumed_sum.load(), expected);
  EXPECT_TRUE(queue.empty());
}

}  // namespace
}  // namespace aptrace
