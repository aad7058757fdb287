// Differential oracle, service axis: N >= 4 tracking sessions served
// concurrently by the daemon's SessionManager must each produce a final
// graph byte-identical to a sequential CLI-style run of the same spec —
// on both storage backends, over sharded, durable and distributed
// stores. The cross-session fair-share scheduler interleaves the
// sessions' quanta arbitrarily; none of that interleaving may leak into
// results.

#include <unistd.h>

#include <gtest/gtest.h>

#include <chrono>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/session.h"
#include "dist/fleet.h"
#include "dist/remote_backend.h"
#include "dist/shard_client.h"
#include "graph/json_writer.h"
#include "service/session_manager.h"
#include "storage/file_env.h"
#include "storage/recovery.h"
#include "storage/trace_io.h"
#include "storage/wal.h"
#include "tests/random_trace_util.h"
#include "util/clock.h"

namespace aptrace::service {
namespace {

/// Sequential reference: plain Session start/step/finish, the exact code
/// path `aptrace run` drives.
std::string DirectRunGraph(const RandomTrace& t, const std::string& script) {
  SimClock clock;
  Session session(t.store.get(), &clock);
  EXPECT_TRUE(session.Start(script, t.alert).ok());
  auto reason = session.Step();
  EXPECT_TRUE(reason.ok()) << reason.status();
  EXPECT_EQ(reason.value(), StopReason::kCompleted);
  EXPECT_TRUE(session.Finish(/*prune_to_matched_paths=*/true).ok());
  std::ostringstream os;
  WriteGraphJson(session.graph(), t.store->catalog(), os);
  return os.str();
}

/// Spec variants exercising the order-sensitive paths (mirrors the
/// executor differential test's variant list).
std::vector<std::string> SpecVariants(const RandomTrace& t) {
  const std::string base = UnconstrainedScript(t);
  return {
      base,
      base + " where file.path != \"*.dll\"",
      base + " where hop <= 3",
      base + " where proc.exename != \"svc.exe\" and hop <= 5",
  };
}

class ServiceDifferential
    : public testing::TestWithParam<StorageBackendKind> {};

TEST_P(ServiceDifferential, ConcurrentSessionsBitIdenticalToSequential) {
  const StorageBackendKind backend = GetParam();
  const RandomTrace t = MakeRandomTrace(97, 600, backend);
  const std::vector<std::string> variants = SpecVariants(t);

  // Sequential references first (one at a time, nothing shared).
  std::vector<std::string> expected;
  expected.reserve(variants.size());
  for (const std::string& script : variants) {
    expected.push_back(DirectRunGraph(t, script));
  }

  // Then all variants live in the daemon at once, interleaved by the
  // fair-share scheduler.
  ServiceLimits limits;
  limits.quantum_windows = 2;  // force many interleavings
  SessionManager manager(t.store.get(), limits);
  std::vector<uint64_t> ids;
  for (const std::string& script : variants) {
    OpenOptions opts;
    opts.start_event = t.alert.id;
    auto id = manager.Open(script, opts);
    ASSERT_TRUE(id.ok()) << id.status();
    ids.push_back(id.value());
  }
  ASSERT_TRUE(manager.WaitAllTerminal(60'000'000));

  for (size_t i = 0; i < ids.size(); ++i) {
    auto poll = manager.Poll(ids[i], 0, 0);
    ASSERT_TRUE(poll.ok());
    EXPECT_EQ(poll->state, SessionState::kDone)
        << "variant " << i << ": " << poll->detail;
    auto graph = manager.GraphJson(ids[i]);
    ASSERT_TRUE(graph.ok());
    EXPECT_EQ(graph.value(), expected[i])
        << "variant " << i << " backend=" << StorageBackendName(backend);
  }
}

// Shard axis: concurrent daemon sessions over a store partitioned into
// {2, 4, 8} shards must serve graphs byte-identical to sequential runs
// over the monolithic (shards = 1) store — and the /sessions per-shard
// rows must sum exactly to the store totals (the single-snapshot-lock
// contract, docs/sharding.md).
TEST_P(ServiceDifferential, ShardedSessionsBitIdenticalToMonolithic) {
  const StorageBackendKind backend = GetParam();
  for (const size_t shards : {size_t{2}, size_t{4}, size_t{8}}) {
    const RandomTrace mono = MakeRandomTrace(97, 600, backend, 1);
    const RandomTrace t = MakeRandomTrace(97, 600, backend, shards);
    ASSERT_EQ(t.store->shard_count(), shards);
    const std::vector<std::string> variants = SpecVariants(t);
    ASSERT_EQ(SpecVariants(mono), variants);

    std::vector<std::string> expected;
    expected.reserve(variants.size());
    for (const std::string& script : variants) {
      expected.push_back(DirectRunGraph(mono, script));
    }

    ServiceLimits limits;
    limits.quantum_windows = 2;
    SessionManager manager(t.store.get(), limits);
    std::vector<uint64_t> ids;
    for (const std::string& script : variants) {
      OpenOptions opts;
      opts.start_event = t.alert.id;
      auto id = manager.Open(script, opts);
      ASSERT_TRUE(id.ok()) << id.status();
      ids.push_back(id.value());
    }
    ASSERT_TRUE(manager.WaitAllTerminal(60'000'000));

    for (size_t i = 0; i < ids.size(); ++i) {
      auto graph = manager.GraphJson(ids[i]);
      ASSERT_TRUE(graph.ok());
      EXPECT_EQ(graph.value(), expected[i])
          << "variant " << i << " shards=" << shards
          << " backend=" << StorageBackendName(backend);
    }

    // Per-shard rows (the /sessions payload) reconcile exactly with the
    // store totals. `scans` is per-touched-shard and so sums to >= the
    // store's query count.
    const std::vector<StoreShardRow> rows = manager.StoreShardRows();
    EXPECT_EQ(rows.size(), shards);
    const StoreStats total = t.store->stats();
    uint64_t matched = 0, filtered = 0, probed = 0, seeked = 0, pruned = 0,
             resident = 0, scans = 0;
    for (const StoreShardRow& row : rows) {
      matched += row.rows_matched;
      filtered += row.rows_filtered;
      probed += row.partitions_probed;
      seeked += row.partitions_seeked;
      pruned += row.segments_pruned;
      resident += row.resident_rows;
      scans += row.scans;
    }
    EXPECT_EQ(matched, total.rows_matched);
    EXPECT_EQ(filtered, total.rows_filtered);
    EXPECT_EQ(probed, total.partitions_probed);
    EXPECT_EQ(seeked, total.partitions_seeked);
    EXPECT_EQ(pruned, total.segments_pruned);
    EXPECT_EQ(resident, t.store->NumEvents());
    EXPECT_GE(scans, total.queries);
    manager.StopAndJoin();
  }
}

// Durability axis: ingest through the durable daemon (WAL + background
// tail sealing), crash without any drain snapshot, recover the data dir,
// and serve sessions over the recovered store — every graph must be
// byte-identical to a sequential run over the store that never crashed,
// on both backends.
TEST_P(ServiceDifferential, DurableIngestCrashRecoverServesIdenticalGraphs) {
  const StorageBackendKind backend = GetParam();
  FileEnv* env = FileEnv::Posix();

  // Uninterrupted reference: the ingested tail lands directly in the
  // store, then each spec variant runs sequentially.
  RandomTrace t = MakeRandomTrace(101, 500, backend);
  const std::string trace_path =
      ::testing::TempDir() + "/svc_durable_" +
      std::string(StorageBackendName(backend)) + "." +
      std::to_string(::getpid()) + ".trace";
  ASSERT_TRUE(
      SaveTraceFile(*t.store, trace_path, TraceFormat::kBinaryV2).ok());

  Rng rng(202);
  std::vector<std::vector<Event>> batches;
  for (size_t b = 0; b < 6; ++b) {
    std::vector<Event> batch;
    const size_t n = rng.Uniform(4) + 2;
    for (size_t i = 0; i < n; ++i) {
      Event e = t.events[rng.Uniform(t.events.size())];
      e.id = kInvalidEventId;
      e.timestamp += static_cast<TimeMicros>(60000 + b * 53 + i);
      batch.push_back(e);
    }
    batches.push_back(std::move(batch));
  }
  for (const auto& batch : batches) {
    for (Event e : batch) t.store->Append(e);
  }
  const std::string script = UnconstrainedScript(t);
  const std::string expected = DirectRunGraph(t, script);

  // Durable daemon: recover the dir (first boot: fallback trace), accept
  // every batch through the acked ingest path with background sealing
  // enabled, then "crash" — no drain snapshot, plus a torn half-record
  // as if the kill landed mid-append.
  const std::string dir = ::testing::TempDir() + "/svc_durable_dir_" +
                          std::string(StorageBackendName(backend)) + "." +
                          std::to_string(::getpid());
  ASSERT_TRUE(env->CreateDir(dir).ok());
  for (const char* leftover : {"wal.log", "MANIFEST"}) {
    const std::string path = dir + std::string("/") + leftover;
    if (env->FileExists(path)) {
      ASSERT_TRUE(env->RemoveFile(path).ok());
    }
  }
  EventStoreOptions options;
  options.partition_micros = 500;
  options.segment_rows = 64;
  options.cost_model = CostModel::Free();
  options.backend = backend;
  {
    auto recovered = OpenDataDir(env, dir, trace_path, options);
    ASSERT_TRUE(recovered.ok()) << recovered.status();
    auto wal = WalWriter::Open(env, dir + "/wal.log",
                               recovered->wal_valid_bytes,
                               recovered->next_seq);
    ASSERT_TRUE(wal.ok()) << wal.status();

    ServiceLimits limits;
    limits.seal_tail_rows = 8;  // background seals mid-stream
    SessionManager manager(recovered->store.get(), limits);
    manager.EnableDurability(wal->get(), recovered->next_seq - 1);
    for (size_t b = 0; b < batches.size(); ++b) {
      auto ack = manager.Ingest(batches[b]);
      ASSERT_TRUE(ack.ok()) << ack.status();
      EXPECT_EQ(ack.value().wal_seq, b + 1);
    }
    const TimeMicros deadline = MonotonicNowMicros() + 60'000'000;
    while (manager.stats().wal_applied_through < batches.size() &&
           MonotonicNowMicros() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    ASSERT_EQ(manager.stats().wal_applied_through, batches.size());
    manager.StopAndJoin();
    // No SnapshotDataDir: the WAL alone carries the acked batches.
  }
  {
    auto f = env->OpenForAppend(dir + "/wal.log");
    ASSERT_TRUE(f.ok());
    ASSERT_TRUE((*f)->Append(EncodeWalRecord(99, batches[0]).substr(0, 9))
                    .ok());
    ASSERT_TRUE((*f)->Close().ok());
  }

  // Restarted daemon: recovery replays the WAL, repairs the torn tail,
  // and the served graphs are byte-identical to the never-crashed run.
  auto recovered = OpenDataDir(env, dir, trace_path, options);
  ASSERT_TRUE(recovered.ok()) << recovered.status();
  EXPECT_EQ(recovered->wal.batches_applied, batches.size());
  EXPECT_GT(recovered->wal.truncated_bytes, 0u);
  EXPECT_NE(recovered->wal.diagnostic.find("STO-E00"), std::string::npos)
      << recovered->wal.diagnostic;

  SessionManager manager(recovered->store.get(), ServiceLimits{});
  OpenOptions opts;
  opts.start_event = t.alert.id;
  auto id = manager.Open(script, opts);
  ASSERT_TRUE(id.ok()) << id.status();
  ASSERT_TRUE(manager.WaitAllTerminal(60'000'000));
  auto graph = manager.GraphJson(id.value());
  ASSERT_TRUE(graph.ok()) << graph.status();
  EXPECT_EQ(graph.value(), expected)
      << "backend=" << StorageBackendName(backend);
  manager.StopAndJoin();
}

// Durability axis at shards > 1: the same ingest -> background seal ->
// crash -> recover flow, but with the store partitioned 4 ways. The WAL
// carries no shard information — replay routes every acknowledged batch
// through the shard map on boot — and the recovered daemon must serve
// graphs byte-identical to a sequential run over the monolithic store
// that never crashed.
TEST_P(ServiceDifferential, ShardedDurableIngestCrashRecover) {
  const StorageBackendKind backend = GetParam();
  FileEnv* env = FileEnv::Posix();
  constexpr size_t kShards = 4;

  RandomTrace mono = MakeRandomTrace(103, 500, backend, 1);
  RandomTrace t = MakeRandomTrace(103, 500, backend, kShards);
  const std::string trace_path =
      ::testing::TempDir() + "/svc_shard_durable_" +
      std::string(StorageBackendName(backend)) + "." +
      std::to_string(::getpid()) + ".trace";
  ASSERT_TRUE(
      SaveTraceFile(*t.store, trace_path, TraceFormat::kBinaryV2).ok());

  Rng rng(204);
  std::vector<std::vector<Event>> batches;
  for (size_t b = 0; b < 6; ++b) {
    std::vector<Event> batch;
    const size_t n = rng.Uniform(4) + 2;
    for (size_t i = 0; i < n; ++i) {
      Event e = t.events[rng.Uniform(t.events.size())];
      e.id = kInvalidEventId;
      e.timestamp += static_cast<TimeMicros>(60000 + b * 59 + i);
      batch.push_back(e);
    }
    batches.push_back(std::move(batch));
  }
  for (const auto& batch : batches) {
    for (Event e : batch) mono.store->Append(e);
  }
  const std::string script = UnconstrainedScript(mono);
  const std::string expected = DirectRunGraph(mono, script);

  const std::string dir = ::testing::TempDir() + "/svc_shard_durable_dir_" +
                          std::string(StorageBackendName(backend)) + "." +
                          std::to_string(::getpid());
  ASSERT_TRUE(env->CreateDir(dir).ok());
  for (const char* leftover : {"wal.log", "MANIFEST"}) {
    const std::string path = dir + std::string("/") + leftover;
    if (env->FileExists(path)) {
      ASSERT_TRUE(env->RemoveFile(path).ok());
    }
  }
  EventStoreOptions options;
  options.partition_micros = 500;
  options.segment_rows = 64;
  options.cost_model = CostModel::Free();
  options.backend = backend;
  options.shards = kShards;
  {
    auto recovered = OpenDataDir(env, dir, trace_path, options);
    ASSERT_TRUE(recovered.ok()) << recovered.status();
    ASSERT_EQ(recovered->store->shard_count(), kShards);
    auto wal = WalWriter::Open(env, dir + "/wal.log",
                               recovered->wal_valid_bytes,
                               recovered->next_seq);
    ASSERT_TRUE(wal.ok()) << wal.status();

    ServiceLimits limits;
    limits.seal_tail_rows = 8;  // background seals fan out to shards
    SessionManager manager(recovered->store.get(), limits);
    manager.EnableDurability(wal->get(), recovered->next_seq - 1);
    for (size_t b = 0; b < batches.size(); ++b) {
      auto ack = manager.Ingest(batches[b]);
      ASSERT_TRUE(ack.ok()) << ack.status();
    }
    const TimeMicros deadline = MonotonicNowMicros() + 60'000'000;
    while (manager.stats().wal_applied_through < batches.size() &&
           MonotonicNowMicros() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    ASSERT_EQ(manager.stats().wal_applied_through, batches.size());
    manager.StopAndJoin();
  }
  {
    auto f = env->OpenForAppend(dir + "/wal.log");
    ASSERT_TRUE(f.ok());
    ASSERT_TRUE((*f)->Append(EncodeWalRecord(99, batches[0]).substr(0, 9))
                    .ok());
    ASSERT_TRUE((*f)->Close().ok());
  }

  auto recovered = OpenDataDir(env, dir, trace_path, options);
  ASSERT_TRUE(recovered.ok()) << recovered.status();
  EXPECT_EQ(recovered->wal.batches_applied, batches.size());
  EXPECT_EQ(recovered->store->shard_count(), kShards);

  SessionManager manager(recovered->store.get(), ServiceLimits{});
  OpenOptions opts;
  opts.start_event = t.alert.id;
  auto id = manager.Open(script, opts);
  ASSERT_TRUE(id.ok()) << id.status();
  ASSERT_TRUE(manager.WaitAllTerminal(60'000'000));
  auto graph = manager.GraphJson(id.value());
  ASSERT_TRUE(graph.ok()) << graph.status();
  EXPECT_EQ(graph.value(), expected)
      << "backend=" << StorageBackendName(backend);
  manager.StopAndJoin();
}

// Distributed axis: the same concurrent-session oracle, but the store's
// shards are RemoteShardBackends talking to a real 4-daemon shardd fleet
// (docs/distribution.md). Every daemon-served graph must stay
// byte-identical to a sequential run over the monolithic in-process
// store, on both backends.
TEST_P(ServiceDifferential, DistributedSessionsBitIdenticalToMonolithic) {
  const StorageBackendKind backend = GetParam();
  dist::FleetOptions fleet_options;
  fleet_options.shardd_bin = APTRACE_SHARDD_BIN;
  fleet_options.shards = 4;
  fleet_options.backend = backend;
  // Match MakeRandomTrace's layout knobs so the remote shards build the
  // same partition structure as the in-process reference.
  if (backend == StorageBackendKind::kColumnar) {
    fleet_options.extra_args = {"--segment-rows=64"};
  } else {
    fleet_options.extra_args = {"--partition-micros=500"};
  }
  auto fleet = dist::ShardFleet::Launch(fleet_options);
  ASSERT_TRUE(fleet.ok()) << fleet.status();
  std::vector<dist::ShardEndpoint> endpoints;
  for (const dist::ShardProcess& p : fleet.value()->shards()) {
    auto ep = dist::ParseShardEndpoint(p.endpoint);
    ASSERT_TRUE(ep.ok()) << ep.status();
    endpoints.push_back(std::move(ep).value());
  }

  const RandomTrace mono = MakeRandomTrace(97, 400, backend, 1);
  const RandomTrace t = MakeRandomTrace(
      97, 400, backend, endpoints.size(),
      [&endpoints](EventStoreOptions& options) {
        options.shard_backend_factory =
            [&endpoints](size_t shard, const EventStoreOptions& o)
            -> std::unique_ptr<StorageBackend> {
          auto client = std::make_shared<dist::ShardClient>(
              endpoints[shard], static_cast<uint32_t>(shard), o.backend);
          return std::make_unique<dist::RemoteShardBackend>(
              std::move(client), o.backend, o.cost_model);
        };
      });
  const std::vector<std::string> variants = SpecVariants(mono);

  std::vector<std::string> expected;
  expected.reserve(variants.size());
  for (const std::string& script : variants) {
    expected.push_back(DirectRunGraph(mono, script));
  }

  ServiceLimits limits;
  limits.quantum_windows = 2;
  SessionManager manager(t.store.get(), limits);
  std::vector<uint64_t> ids;
  for (const std::string& script : variants) {
    OpenOptions opts;
    opts.start_event = t.alert.id;
    auto id = manager.Open(script, opts);
    ASSERT_TRUE(id.ok()) << id.status();
    ids.push_back(id.value());
  }
  ASSERT_TRUE(manager.WaitAllTerminal(120'000'000));

  for (size_t i = 0; i < ids.size(); ++i) {
    auto poll = manager.Poll(ids[i], 0, 0);
    ASSERT_TRUE(poll.ok());
    EXPECT_EQ(poll->state, SessionState::kDone)
        << "variant " << i << ": " << poll->detail;
    auto graph = manager.GraphJson(ids[i]);
    ASSERT_TRUE(graph.ok());
    EXPECT_EQ(graph.value(), expected[i])
        << "variant " << i << " backend=" << StorageBackendName(backend);
  }
  manager.StopAndJoin();
}

INSTANTIATE_TEST_SUITE_P(Backends, ServiceDifferential,
                         testing::Values(StorageBackendKind::kRow,
                                         StorageBackendKind::kColumnar),
                         [](const auto& info) {
                           return std::string(
                               StorageBackendName(info.param));
                         });

}  // namespace
}  // namespace aptrace::service
