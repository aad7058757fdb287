// Kill-anywhere crash recovery for the durable ingest pipeline
// (docs/durability.md): SIGKILL at any byte of the WAL — simulated by a
// deterministic cut sweep over every record boundary plus a hundred-plus
// randomized positions, and realized by fork()+SIGKILL children — must
// recover a store (and therefore a served graph) bit-identical to an
// uninterrupted run over the acknowledged prefix. Also proves the
// snapshot/manifest commit protocol never double-ingests, and that the
// checkpoint durable mark (STO-E009) refuses a lossy data directory.

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "core/session.h"
#include "graph/json_writer.h"
#include "service/session_manager.h"
#include "storage/file_env.h"
#include "storage/recovery.h"
#include "storage/trace_io.h"
#include "storage/wal.h"
#include "tests/random_trace_util.h"
#include "util/clock.h"
#include "util/rng.h"

namespace aptrace {
namespace {

EventStoreOptions Opts(StorageBackendKind backend) {
  EventStoreOptions options;
  options.partition_micros = 500;
  options.segment_rows = 64;
  options.cost_model = CostModel::Free();
  options.backend = backend;
  return options;
}

// Unique per-process scratch dir: a leftover MANIFEST from a previous
// run must never leak into this one.
std::string FreshDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/" + name + "." +
                          std::to_string(::getpid());
  FileEnv* env = FileEnv::Posix();
  EXPECT_TRUE(env->CreateDir(dir).ok());
  for (const char* leftover : {"wal.log", "MANIFEST"}) {
    const std::string path = dir + "/" + leftover;
    if (env->FileExists(path)) EXPECT_TRUE(env->RemoveFile(path).ok());
  }
  return dir;
}

void WriteFileBytes(FileEnv* env, const std::string& path,
                    std::string_view bytes) {
  if (env->FileExists(path)) ASSERT_TRUE(env->RemoveFile(path).ok());
  auto f = env->OpenForAppend(path);
  ASSERT_TRUE(f.ok()) << f.status();
  ASSERT_TRUE((*f)->Append(bytes).ok());
  ASSERT_TRUE((*f)->Close().ok());
}

// Byte-exact view of a store: v2 serialization is deterministic, so two
// stores serialize identically iff they hold identical catalogs and
// identical events in identical order.
std::string StoreBytes(const EventStore& store) {
  std::ostringstream os;
  EXPECT_TRUE(SaveTrace(store, os, TraceFormat::kBinaryV2).ok());
  return os.str();
}

// What `aptrace run` would serve over this store.
std::string ServeGraph(const EventStore& store, const std::string& script,
                       const Event& alert) {
  SimClock clock;
  Session session(&store, &clock, SessionOptions{});
  EXPECT_TRUE(session.Start(script, alert).ok());
  EXPECT_TRUE(session.Step().ok());
  EXPECT_TRUE(session.Finish(/*prune_to_matched_paths=*/true).ok());
  std::ostringstream os;
  WriteGraphJson(session.graph(), store.catalog(), os);
  return os.str();
}

// Deterministic ingest batches drawn from the trace's own catalog (so
// they pass the STO-E010 membership validation), stamped after the
// sealed history like live audit arrivals.
std::vector<std::vector<Event>> MakeIngestBatches(const RandomTrace& t,
                                                  size_t count,
                                                  uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<Event>> batches;
  for (size_t b = 0; b < count; ++b) {
    std::vector<Event> batch;
    const size_t n = rng.Uniform(3) + 1;
    for (size_t i = 0; i < n; ++i) {
      Event e = t.events[rng.Uniform(t.events.size())];
      e.id = kInvalidEventId;  // ids are assigned at apply time
      e.timestamp += static_cast<TimeMicros>(50000 + b * 97 + i);
      batch.push_back(e);
    }
    batches.push_back(std::move(batch));
  }
  return batches;
}

struct DurableFixture {
  RandomTrace t;
  std::string trace_path;
  std::vector<std::vector<Event>> batches;
  std::string wal_bytes;              // magic + one record per batch
  std::vector<size_t> boundaries;     // wal_bytes prefix after each record
};

DurableFixture MakeFixture(const std::string& name, uint64_t seed,
                           size_t base_events, size_t num_batches) {
  DurableFixture f;
  f.t = MakeRandomTrace(seed, base_events, StorageBackendKind::kRow);
  f.trace_path = ::testing::TempDir() + "/" + name + "." +
                 std::to_string(::getpid()) + ".trace";
  EXPECT_TRUE(
      SaveTraceFile(*f.t.store, f.trace_path, TraceFormat::kBinaryV2).ok());
  f.batches = MakeIngestBatches(f.t, num_batches, seed + 1);
  f.wal_bytes.assign(kWalMagic, kWalMagicLen);
  f.boundaries.push_back(f.wal_bytes.size());
  for (size_t b = 0; b < f.batches.size(); ++b) {
    f.wal_bytes += EncodeWalRecord(b + 1, f.batches[b]);
    f.boundaries.push_back(f.wal_bytes.size());
  }
  return f;
}

// The uninterrupted reference: base trace + the first k batches applied
// in order, serialized byte-exactly.
std::string OracleBytes(const DurableFixture& f, size_t k,
                        StorageBackendKind backend) {
  auto store = LoadTraceFile(f.trace_path, Opts(backend));
  EXPECT_TRUE(store.ok()) << store.status();
  for (size_t b = 0; b < k; ++b) {
    for (Event e : f.batches[b]) (*store)->Append(e);
  }
  return StoreBytes(**store);
}

size_t CompleteRecords(const DurableFixture& f, size_t cut) {
  size_t k = 0;
  while (k + 1 < f.boundaries.size() && f.boundaries[k + 1] <= cut) ++k;
  return k;
}

TEST(CrashRecoveryTest, KillAtAnyByteRecoversTheAcknowledgedPrefix) {
  FileEnv* env = FileEnv::Posix();
  const DurableFixture f = MakeFixture("crash_sweep", 91, 240, 20);
  const std::string dir = FreshDir("crash_sweep_dir");
  const std::string script = UnconstrainedScript(f.t);

  // Oracles for every batch count, computed once.
  std::vector<std::string> oracle;
  for (size_t k = 0; k <= f.batches.size(); ++k) {
    oracle.push_back(OracleBytes(f, k, StorageBackendKind::kRow));
  }

  // Kill points: every record boundary (the "clean" kills) plus >= 120
  // randomized byte positions (the mid-record kills).
  std::set<size_t> cuts(f.boundaries.begin(), f.boundaries.end());
  Rng rng(7);
  while (cuts.size() < f.boundaries.size() + 120) {
    cuts.insert(kWalMagicLen + rng.Uniform(f.wal_bytes.size() - kWalMagicLen));
  }
  ASSERT_GE(cuts.size(), 120u);

  size_t graph_checks = 0, cut_index = 0;
  for (const size_t cut : cuts) {
    SCOPED_TRACE("kill at byte " + std::to_string(cut));
    WriteFileBytes(env, dir + "/wal.log",
                   std::string_view(f.wal_bytes).substr(0, cut));
    auto recovered =
        OpenDataDir(env, dir, f.trace_path, Opts(StorageBackendKind::kRow));
    ASSERT_TRUE(recovered.ok()) << recovered.status();

    const size_t k = CompleteRecords(f, cut);
    EXPECT_EQ(recovered->next_seq, k + 1);
    EXPECT_EQ(recovered->wal_valid_bytes, f.boundaries[k]);
    EXPECT_EQ(recovered->wal.truncated_bytes, cut - f.boundaries[k]);
    if (cut != f.boundaries[k]) {
      // A mid-record kill always leaves a typed diagnostic behind.
      EXPECT_NE(recovered->wal.diagnostic.find("STO-E00"),
                std::string::npos)
          << "'" << recovered->wal.diagnostic << "'";
    }
    // The recovered store is byte-identical to an uninterrupted run over
    // exactly the acknowledged batches.
    ASSERT_EQ(StoreBytes(*recovered->store), oracle[k]);

    // Spot-check the stronger end-to-end claim on a sample of kills:
    // the *served graph* is bit-identical too.
    if (cut_index % 25 == 0) {
      auto reference = LoadTraceFile(f.trace_path,
                                     Opts(StorageBackendKind::kRow));
      ASSERT_TRUE(reference.ok());
      for (size_t b = 0; b < k; ++b) {
        for (Event e : f.batches[b]) (*reference)->Append(e);
      }
      EXPECT_EQ(ServeGraph(*recovered->store, script, f.t.alert),
                ServeGraph(**reference, script, f.t.alert));
      graph_checks++;
    }
    cut_index++;
  }
  EXPECT_GE(graph_checks, 5u);
}

TEST(CrashRecoveryTest, ColumnarRecoveryMatchesRowAndSurvivesSealing) {
  FileEnv* env = FileEnv::Posix();
  const DurableFixture f = MakeFixture("crash_columnar", 92, 200, 8);
  const std::string dir = FreshDir("crash_columnar_dir");
  const std::string script = UnconstrainedScript(f.t);

  for (size_t k = 0; k <= f.batches.size(); ++k) {
    SCOPED_TRACE("batches " + std::to_string(k));
    WriteFileBytes(env, dir + "/wal.log",
                   std::string_view(f.wal_bytes).substr(0, f.boundaries[k]));
    auto recovered = OpenDataDir(env, dir, f.trace_path,
                                 Opts(StorageBackendKind::kColumnar));
    ASSERT_TRUE(recovered.ok()) << recovered.status();
    // Physical layout never changes the recovered contents...
    EXPECT_EQ(StoreBytes(*recovered->store),
              OracleBytes(f, k, StorageBackendKind::kRow));
    const std::string graph =
        ServeGraph(*recovered->store, script, f.t.alert);
    // ...and sealing the replayed tail into columnar segments changes
    // neither the contents nor the served graph.
    recovered->store->SealTail();
    EXPECT_EQ(recovered->store->TailRows(), 0u);
    EXPECT_EQ(StoreBytes(*recovered->store),
              OracleBytes(f, k, StorageBackendKind::kRow));
    EXPECT_EQ(ServeGraph(*recovered->store, script, f.t.alert), graph);
  }
}

TEST(CrashRecoveryTest, SnapshotCommitPointsNeverDoubleIngest) {
  FileEnv* env = FileEnv::Posix();
  const DurableFixture f = MakeFixture("crash_snap", 93, 160, 8);
  const std::string dir = FreshDir("crash_snap_dir");

  // Boot 1: apply + log batches 1..6, then snapshot — but "crash" before
  // the WAL reset (wal == nullptr), the worst-timed kill.
  {
    auto recovered =
        OpenDataDir(env, dir, f.trace_path, Opts(StorageBackendKind::kRow));
    ASSERT_TRUE(recovered.ok()) << recovered.status();
    auto wal = WalWriter::Open(env, dir + "/wal.log",
                               recovered->wal_valid_bytes,
                               recovered->next_seq);
    ASSERT_TRUE(wal.ok()) << wal.status();
    for (size_t b = 0; b < 6; ++b) {
      auto seq = (*wal)->AppendBatch(f.batches[b]);
      ASSERT_TRUE(seq.ok()) << seq.status();
      EXPECT_EQ(seq.value(), b + 1);
      for (Event e : f.batches[b]) recovered->store->Append(e);
    }
    ASSERT_TRUE(SnapshotDataDir(env, dir, *recovered->store, 6,
                                /*wal=*/nullptr)
                    .ok());
  }

  // Boot 2: the manifest covers 1..6 and the stale WAL still holds them;
  // replay must skip all six (never double-ingest), then accept new
  // batches on top.
  {
    auto recovered =
        OpenDataDir(env, dir, f.trace_path, Opts(StorageBackendKind::kRow));
    ASSERT_TRUE(recovered.ok()) << recovered.status();
    EXPECT_TRUE(recovered->from_snapshot);
    EXPECT_EQ(recovered->applied_through, 6u);
    EXPECT_EQ(recovered->wal.batches_applied, 0u);
    EXPECT_EQ(recovered->wal.duplicates_skipped, 6u);
    EXPECT_EQ(recovered->next_seq, 7u);
    ASSERT_EQ(StoreBytes(*recovered->store),
              OracleBytes(f, 6, StorageBackendKind::kRow));

    auto wal = WalWriter::Open(env, dir + "/wal.log",
                               recovered->wal_valid_bytes,
                               recovered->next_seq);
    ASSERT_TRUE(wal.ok()) << wal.status();
    for (size_t b = 6; b < 8; ++b) {
      auto seq = (*wal)->AppendBatch(f.batches[b]);
      ASSERT_TRUE(seq.ok());
      EXPECT_EQ(seq.value(), b + 1);
      for (Event e : f.batches[b]) recovered->store->Append(e);
    }
    // Clean shutdown this time: snapshot + WAL reset.
    ASSERT_TRUE(
        SnapshotDataDir(env, dir, *recovered->store, 8, wal->get()).ok());
    auto size = env->FileSize(dir + "/wal.log");
    ASSERT_TRUE(size.ok());
    EXPECT_EQ(*size, kWalMagicLen);
  }

  // Boot 3: everything comes from the snapshot, nothing from the WAL.
  {
    auto recovered =
        OpenDataDir(env, dir, f.trace_path, Opts(StorageBackendKind::kRow));
    ASSERT_TRUE(recovered.ok()) << recovered.status();
    EXPECT_EQ(recovered->applied_through, 8u);
    EXPECT_EQ(recovered->wal.batches_applied, 0u);
    EXPECT_EQ(recovered->next_seq, 9u);
    ASSERT_EQ(StoreBytes(*recovered->store),
              OracleBytes(f, 8, StorageBackendKind::kRow));
  }
}

TEST(CrashRecoveryTest, ForkedWriterSigkilledAtRandomPointsLosesNothingAcked) {
  FileEnv* env = FileEnv::Posix();
  const DurableFixture f = MakeFixture("crash_fork", 94, 160, 400);
  Rng rng(11);

  constexpr int kRounds = 10;
  for (int round = 0; round < kRounds; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    const std::string dir =
        FreshDir("crash_fork_dir." + std::to_string(round));

    int pipefd[2];
    ASSERT_EQ(pipe(pipefd), 0);
    const pid_t pid = fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
      // Child: the "daemon". Recover the dir, then append batches as
      // fast as the disk acknowledges them, reporting each durable seq
      // through the pipe — the stand-in for the client-visible ack.
      close(pipefd[0]);
      auto recovered = OpenDataDir(FileEnv::Posix(), dir, f.trace_path,
                                   Opts(StorageBackendKind::kRow));
      if (!recovered.ok()) _exit(2);
      auto wal = WalWriter::Open(FileEnv::Posix(), dir + "/wal.log",
                                 recovered->wal_valid_bytes,
                                 recovered->next_seq);
      if (!wal.ok()) _exit(3);
      for (const auto& batch : f.batches) {
        auto seq = (*wal)->AppendBatch(batch);
        if (!seq.ok()) _exit(4);
        const uint64_t acked = seq.value();
        if (write(pipefd[1], &acked, sizeof(acked)) != sizeof(acked)) {
          _exit(5);
        }
      }
      _exit(0);
    }

    // Parent: let the child run for a random slice, then kill -9 — no
    // shutdown hook runs, whatever the WAL holds is what survives.
    close(pipefd[1]);
    usleep(static_cast<useconds_t>(rng.Uniform(15000)));
    kill(pid, SIGKILL);
    int status = 0;
    ASSERT_EQ(waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFSIGNALED(status) ||
                (WIFEXITED(status) && WEXITSTATUS(status) == 0))
        << "child status " << status;

    uint64_t acked = 0, v = 0;
    while (read(pipefd[0], &v, sizeof(v)) == sizeof(v)) acked = v;
    close(pipefd[0]);

    auto recovered =
        OpenDataDir(env, dir, f.trace_path, Opts(StorageBackendKind::kRow));
    ASSERT_TRUE(recovered.ok()) << recovered.status();
    const uint64_t k = recovered->next_seq - 1;
    // The durability contract: every acknowledged batch survives; at
    // most one un-acked batch (in flight at the kill) may surface too.
    EXPECT_GE(k, acked);
    EXPECT_LE(k, acked + 1);
    ASSERT_LE(k, f.batches.size());
    ASSERT_EQ(StoreBytes(*recovered->store),
              OracleBytes(f, k, StorageBackendKind::kRow));
  }
}

TEST(CrashRecoveryTest, DurableMarkRefusesALossyDataDir) {
  FileEnv* env = FileEnv::Posix();
  const DurableFixture f = MakeFixture("crash_mark", 95, 300, 4);
  const std::string dir = FreshDir("crash_mark_dir");
  const std::string script = UnconstrainedScript(f.t);
  const std::string ckpt = dir + "/session.ckpt";

  // Boot 1: durable daemon — stall a session mid-run, ingest a batch,
  // checkpoint. The checkpoint must carry the durable mark.
  std::string expected_graph;
  {
    auto recovered =
        OpenDataDir(env, dir, f.trace_path, Opts(StorageBackendKind::kRow));
    ASSERT_TRUE(recovered.ok()) << recovered.status();
    auto wal = WalWriter::Open(env, dir + "/wal.log",
                               recovered->wal_valid_bytes,
                               recovered->next_seq);
    ASSERT_TRUE(wal.ok()) << wal.status();

    service::ServiceLimits limits;
    limits.update_buffer_cap = 1;  // stall -> stays checkpointable
    service::SessionManager manager(recovered->store.get(), limits);
    manager.EnableDurability(wal->get(), recovered->next_seq - 1);

    service::OpenOptions opts;
    opts.start_event = f.t.alert.id;
    auto id = manager.Open(script, opts);
    ASSERT_TRUE(id.ok()) << id.status();

    auto ack = manager.Ingest(f.batches[0]);
    ASSERT_TRUE(ack.ok()) << ack.status();
    EXPECT_EQ(ack.value().wal_seq, 1u);
    const TimeMicros deadline = MonotonicNowMicros() + 30'000'000;
    while (manager.stats().wal_applied_through < 1 &&
           MonotonicNowMicros() < deadline) {
      usleep(1000);
    }
    ASSERT_EQ(manager.stats().wal_applied_through, 1u);
    ASSERT_TRUE(manager.Checkpoint(id.value(), ckpt).ok());
    manager.StopAndJoin();
  }

  // The checkpoint records what the store durably held.
  {
    auto bytes = env->ReadFileToString(ckpt);
    ASSERT_TRUE(bytes.ok());
    const std::string want =
        "\nD\t" + std::to_string(300 + f.batches[0].size()) + "\t1\n";
    EXPECT_NE(bytes->find(want), std::string::npos)
        << "durable mark missing from checkpoint";
  }

  // A daemon resuming over a store that lost the acknowledged batch
  // (the WAL vanished with the disk) must refuse with STO-E009 — not
  // silently serve a graph over events it does not hold.
  {
    auto lossy = LoadTraceFile(f.trace_path, Opts(StorageBackendKind::kRow));
    ASSERT_TRUE(lossy.ok());
    service::SessionManager manager(lossy->get(), service::ServiceLimits{});
    auto resumed = manager.Resume(ckpt, {});
    ASSERT_FALSE(resumed.ok());
    EXPECT_NE(resumed.status().message().find("STO-E009"), std::string::npos)
        << resumed.status();
    manager.StopAndJoin();
  }

  // Over the properly recovered dir the same checkpoint resumes and
  // finishes normally.
  {
    auto recovered =
        OpenDataDir(env, dir, f.trace_path, Opts(StorageBackendKind::kRow));
    ASSERT_TRUE(recovered.ok()) << recovered.status();
    EXPECT_EQ(recovered->next_seq, 2u);
    service::SessionManager manager(recovered->store.get(),
                                    service::ServiceLimits{});
    auto resumed = manager.Resume(ckpt, {});
    ASSERT_TRUE(resumed.ok()) << resumed.status();
    ASSERT_TRUE(manager.WaitAllTerminal(30'000'000));
    auto graph = manager.GraphJson(resumed.value());
    ASSERT_TRUE(graph.ok()) << graph.status();
    EXPECT_FALSE(graph.value().empty());
    manager.StopAndJoin();
  }
}

}  // namespace
}  // namespace aptrace
