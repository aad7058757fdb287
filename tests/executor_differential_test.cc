// Differential oracle for batched collection: for randomized traces and
// BDL spec variants, the Executor over a store whose collect_batch B is
// 2, 7 or 64 must produce output *bit-identical* to B = 1 (the inline
// path) — the same graph JSON, the same update-log batch sequence with
// its simulated times, the same RunStats and stop reason, and the same
// simulated store charges — across pauses, refines and checkpoint
// resumes, and both must match the BaselineExecutor's reachability. The
// batched stores are 2-shard in-process stores whose shards report the
// chosen B (tests/forwarding_backend.h), so the whole sharded CollectMany
// path runs without a shard daemon.

#include <unistd.h>

#include <gtest/gtest.h>

#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "core/baseline_executor.h"
#include "core/executor.h"
#include "core/session.h"
#include "graph/json_writer.h"
#include "obs/metrics.h"
#include "obs/names.h"
#include "storage/file_env.h"
#include "storage/recovery.h"
#include "storage/trace_io.h"
#include "storage/wal.h"
#include "tests/forwarding_backend.h"
#include "tests/random_trace_util.h"

namespace aptrace {
namespace {

std::string GraphJson(const Executor& exec, const RandomTrace& t) {
  std::ostringstream os;
  WriteGraphJson(exec.graph(), t.store->catalog(), os);
  return os.str();
}

/// Everything a run produces that the determinism contract covers.
/// Wall-clock measurements are timing-dependent by nature and
/// deliberately absent.
struct RunFingerprint {
  std::string graph_json;
  std::vector<UpdateBatch> batches;
  StopReason reason = StopReason::kCompleted;
  size_t work_units = 0;
  size_t events_added = 0;
  size_t events_filtered = 0;
  size_t objects_excluded = 0;
  TimeMicros sim_elapsed = 0;
  DurationMicros scan_cost = 0;
};

bool operator==(const UpdateBatch& a, const UpdateBatch& b) {
  return a.sim_time == b.sim_time && a.new_edges == b.new_edges &&
         a.new_nodes == b.new_nodes && a.total_edges == b.total_edges &&
         a.total_nodes == b.total_nodes;
}

/// Windows collected per CollectMany on the batched axis (1 = inline).
constexpr size_t kBatches[] = {2, 7, 64};

/// `MakeRandomTrace` on a 2-shard store whose shards report collect
/// batch `b`, with the default (non-free) cost model so simulated times
/// and charges are non-trivial.
RandomTrace BatchedTrace(uint64_t seed, size_t num_events,
                         StorageBackendKind backend, size_t b,
                         size_t shards = 2) {
  return MakeRandomTrace(seed, num_events, backend, shards,
                         [b](EventStoreOptions& options) {
                           options.cost_model = CostModel{};
                           UseForwardingShards(options, b);
                         });
}

RunFingerprint Fingerprint(const Executor& exec, const RandomTrace& t,
                           const SimClock& clock, StopReason reason) {
  RunFingerprint fp;
  fp.reason = reason;
  fp.graph_json = GraphJson(exec, t);
  fp.batches = exec.update_log().batches();
  fp.work_units = exec.stats().work_units;
  fp.events_added = exec.stats().events_added;
  fp.events_filtered = exec.stats().events_filtered;
  fp.objects_excluded = exec.stats().objects_excluded;
  fp.sim_elapsed = clock.NowMicros() - exec.stats().run_start;
  fp.scan_cost = exec.scan_cost_total();
  return fp;
}

RunFingerprint RunOnce(const RandomTrace& t, const std::string& script) {
  SimClock clock;
  Executor exec(Ctx(t, script), &clock, 8);
  const StopReason reason = exec.Run({});
  return Fingerprint(exec, t, clock, reason);
}

void ExpectIdentical(const RunFingerprint& seq, const RunFingerprint& par,
                     uint64_t seed, size_t b, const char* variant) {
  const auto label = [&] {
    return std::string(variant) + " seed=" + std::to_string(seed) +
           " B=" + std::to_string(b);
  };
  EXPECT_EQ(par.graph_json, seq.graph_json) << label();
  ASSERT_EQ(par.batches.size(), seq.batches.size()) << label();
  for (size_t i = 0; i < seq.batches.size(); ++i) {
    EXPECT_TRUE(par.batches[i] == seq.batches[i])
        << label() << " batch " << i;
  }
  EXPECT_EQ(par.reason, seq.reason) << label();
  EXPECT_EQ(par.work_units, seq.work_units) << label();
  EXPECT_EQ(par.events_added, seq.events_added) << label();
  EXPECT_EQ(par.events_filtered, seq.events_filtered) << label();
  EXPECT_EQ(par.objects_excluded, seq.objects_excluded) << label();
  EXPECT_EQ(par.sim_elapsed, seq.sim_elapsed) << label();
  EXPECT_EQ(par.scan_cost, seq.scan_cost) << label();
}

class DifferentialOracle : public testing::TestWithParam<uint64_t> {};

void ExpectSameStoreStats(const StoreStats& got, const StoreStats& want,
                          const std::string& label) {
  EXPECT_EQ(got.queries, want.queries) << label;
  EXPECT_EQ(got.rows_matched, want.rows_matched) << label;
  EXPECT_EQ(got.rows_filtered, want.rows_filtered) << label;
  EXPECT_EQ(got.partitions_probed, want.partitions_probed) << label;
  EXPECT_EQ(got.partitions_seeked, want.partitions_seeked) << label;
  EXPECT_EQ(got.segments_pruned, want.segments_pruned) << label;
  EXPECT_EQ(got.simulated_cost, want.simulated_cost) << label;
}

TEST_P(DifferentialOracle, BatchedBitIdenticalToInline) {
  const uint64_t seed = GetParam();
  for (const StorageBackendKind backend :
       {StorageBackendKind::kRow, StorageBackendKind::kColumnar}) {
    const RandomTrace inline_t = BatchedTrace(seed, 400, backend, 1);
    const std::string unconstrained = UnconstrainedScript(inline_t);
    // Spec variants hit the order-sensitive paths: the where filter
    // mutates excluded_ mid-scan, the hop limit drops windows as stale,
    // and forward tracking uses the mirrored scan.
    const struct {
      const char* name;
      std::string script;
    } variants[] = {
        {"unconstrained", unconstrained},
        {"where", unconstrained +
                      " where file.path != \"*.dll\" and "
                      "proc.exename != \"svc.exe\""},
        {"hops", unconstrained + " where hop <= 3"},
    };
    for (const size_t b : kBatches) {
      const RandomTrace batched = BatchedTrace(seed, 400, backend, b);
      ASSERT_EQ(batched.store->backend().capabilities().collect_batch, b);
      for (const auto& variant : variants) {
        inline_t.store->ResetStats();
        batched.store->ResetStats();
        const RunFingerprint want = RunOnce(inline_t, variant.script);
        const RunFingerprint got = RunOnce(batched, variant.script);
        const std::string label = std::string(StorageBackendName(backend)) +
                                  " " + variant.name;
        ExpectIdentical(want, got, seed, b, label.c_str());
        ExpectSameStoreStats(batched.store->stats(), inline_t.store->stats(),
                             label + " B=" + std::to_string(b));
      }
    }
  }
}

TEST_P(DifferentialOracle, BatchedMatchesBaselineReachability) {
  const uint64_t seed = GetParam() ^ 0xd1ff;
  const RandomTrace t = MakeRandomTrace(seed, 350);
  const std::string script = UnconstrainedScript(t);

  SimClock bc;
  BaselineExecutor baseline(Ctx(t, script), &bc);
  ASSERT_EQ(baseline.Run({}), StopReason::kCompleted);
  const std::set<EventId> expected = EdgeSet(baseline.graph());
  // The baseline itself matches the independent reference model.
  EXPECT_EQ(expected, ReferenceClosure(t, [](ObjectId) { return true; }));

  for (const size_t b : kBatches) {
    const RandomTrace batched =
        BatchedTrace(seed, 350, DefaultStorageBackendKind(), b);
    SimClock clock;
    Executor exec(Ctx(batched, script), &clock, 8);
    ASSERT_EQ(exec.Run({}), StopReason::kCompleted);
    EXPECT_EQ(EdgeSet(exec.graph()), expected)
        << "seed=" << seed << " B=" << b;
  }
}

// Paused schedules: every Run returns after two updates, and collected
// rows never outlive a Run, so each resume collects afresh.
TEST_P(DifferentialOracle, SteppedBatchedMatchesOneShotInline) {
  const uint64_t seed = GetParam() ^ 0x57e9;
  const RandomTrace inline_t =
      BatchedTrace(seed, 300, DefaultStorageBackendKind(), 1);
  const std::string script = UnconstrainedScript(inline_t);
  const RunFingerprint want = RunOnce(inline_t, script);

  for (const size_t b : kBatches) {
    const RandomTrace batched =
        BatchedTrace(seed, 300, DefaultStorageBackendKind(), b);
    SimClock clock;
    Executor stepped(Ctx(batched, script), &clock, 8);
    int guard = 0;
    StopReason r = StopReason::kUpdateCap;
    for (;;) {
      RunLimits limits;
      limits.max_updates = 2;
      r = stepped.Run(limits);
      if (r == StopReason::kCompleted) break;
      ASSERT_EQ(r, StopReason::kUpdateCap);
      ASSERT_LT(guard++, 10000);
    }
    ExpectIdentical(want, Fingerprint(stepped, batched, clock, r), seed, b,
                    "stepped");
  }
}

// Refine: run part-way, tighten the where filter through the Refiner
// (the cached graph and queue are pruned and rebuilt), run to the end.
TEST_P(DifferentialOracle, RefinedBatchedMatchesRefinedInline) {
  const uint64_t seed = GetParam() ^ 0x4ef1;
  const auto run = [&](const RandomTrace& t, const std::string& v1,
                       const std::string& v2) {
    SimClock clock;
    Session session(t.store.get(), &clock);
    EXPECT_TRUE(session.Start(v1, t.alert).ok());
    RunLimits limits;
    limits.max_updates = 3;
    EXPECT_TRUE(session.Step(limits).ok());
    EXPECT_TRUE(session.UpdateScript(v2).ok());
    const auto reason = session.Step({});
    EXPECT_TRUE(reason.ok()) << reason.status();
    RunFingerprint fp;
    fp.reason = reason.ok() ? reason.value() : StopReason::kStopped;
    std::ostringstream os;
    WriteGraphJson(session.graph(), t.store->catalog(), os);
    fp.graph_json = os.str();
    fp.batches = session.update_log().batches();
    fp.work_units = session.stats().work_units;
    fp.events_added = session.stats().events_added;
    fp.events_filtered = session.stats().events_filtered;
    fp.objects_excluded = session.stats().objects_excluded;
    fp.sim_elapsed = clock.NowMicros() - session.stats().run_start;
    return fp;
  };
  const RandomTrace inline_t =
      BatchedTrace(seed, 350, DefaultStorageBackendKind(), 1);
  const std::string v1 = UnconstrainedScript(inline_t);
  const std::string v2 = v1 + " where file.path != \"*.dll\"";
  const RunFingerprint want = run(inline_t, v1, v2);
  for (const size_t b : kBatches) {
    const RandomTrace batched =
        BatchedTrace(seed, 350, DefaultStorageBackendKind(), b);
    ExpectIdentical(want, run(batched, v1, v2), seed, b, "refined");
  }
}

// Checkpoint: run part-way, save, restore into a fresh executor over the
// same store, run to the end.
TEST_P(DifferentialOracle, ResumedBatchedMatchesResumedInline) {
  const uint64_t seed = GetParam() ^ 0xc4e7;
  const auto run = [&](const RandomTrace& t, const std::string& script) {
    SimClock clock;
    std::stringstream saved;
    {
      Executor first(Ctx(t, script), &clock, 8);
      RunLimits limits;
      limits.max_updates = 3;
      (void)first.Run(limits);
      EXPECT_TRUE(first.SaveCheckpoint(saved).ok());
    }
    Executor resumed(Ctx(t, script), &clock, 8);
    EXPECT_TRUE(resumed.RestoreCheckpoint(saved).ok());
    const StopReason reason = resumed.Run({});
    return Fingerprint(resumed, t, clock, reason);
  };
  const RandomTrace inline_t =
      BatchedTrace(seed, 350, DefaultStorageBackendKind(), 1);
  const std::string script = UnconstrainedScript(inline_t);
  const RunFingerprint want = run(inline_t, script);
  for (const size_t b : kBatches) {
    const RandomTrace batched =
        BatchedTrace(seed, 350, DefaultStorageBackendKind(), b);
    ExpectIdentical(want, run(batched, script), seed, b, "resumed");
  }
}

// Determinism regression: the same trace + spec + seed run twice at
// B = 64 must yield byte-identical graph JSON and identical
// deterministic counters.
TEST_P(DifferentialOracle, RepeatedBatchedRunsAreByteIdentical) {
  const uint64_t seed = GetParam() ^ 0xbeef;
  const RandomTrace t =
      BatchedTrace(seed, 350, DefaultStorageBackendKind(), 64);
  const std::string script =
      UnconstrainedScript(t) + " where file.path != \"*.dll\"";

  const RunFingerprint first = RunOnce(t, script);
  const RunFingerprint second = RunOnce(t, script);
  ExpectIdentical(first, second, seed, 64, "repeat");
}

// The deterministic executor and store metrics advance by identical
// deltas for a batched and an inline run (the batch-cache hit counter
// and the latency histograms are excluded by design).
TEST_P(DifferentialOracle, DeterministicCountersMatch) {
  const uint64_t seed = GetParam() ^ 0xc0de;
  const RandomTrace inline_t =
      BatchedTrace(seed, 300, DefaultStorageBackendKind(), 1);
  const RandomTrace batched =
      BatchedTrace(seed, 300, DefaultStorageBackendKind(), 64);
  const std::string script = UnconstrainedScript(inline_t);

  const char* const counters[] = {
      obs::names::kExecutorWindowsProcessed,
      obs::names::kExecutorWindowsEnqueued,
      obs::names::kExecutorStaleWindows,
      obs::names::kDedupWindowClips,
      obs::names::kExecutorScanCostMicros,
      obs::names::kStoreQueries,
      obs::names::kStoreEventsScanned,
      obs::names::kStoreShardScans,
      obs::names::kStoreShardFanout,
  };
  const auto snapshot = [&] {
    std::vector<uint64_t> out;
    for (const char* name : counters) {
      out.push_back(obs::Metrics().FindOrCreateCounter(name)->value());
    }
    return out;
  };
  const auto delta = [](const std::vector<uint64_t>& before,
                        const std::vector<uint64_t>& after) {
    std::vector<uint64_t> out(before.size());
    for (size_t i = 0; i < before.size(); ++i) out[i] = after[i] - before[i];
    return out;
  };

  auto before = snapshot();
  (void)RunOnce(inline_t, script);
  const auto inline_delta = delta(before, snapshot());

  before = snapshot();
  (void)RunOnce(batched, script);
  const auto batched_delta = delta(before, snapshot());

  for (size_t i = 0; i < inline_delta.size(); ++i) {
    EXPECT_EQ(batched_delta[i], inline_delta[i])
        << counters[i] << " seed=" << seed;
  }
}

// Backend axis: the same trace stored on the row backend and on the
// columnar segment backend must yield bit-identical analysis output —
// same graph JSON, same update-batch sequence (excluding sim_time: the
// backends charge different simulated costs by design), same
// deterministic RunStats, and the same StoreStats row counts. Zone-map
// pruning may only reduce the number of storage units probed, never the
// rows delivered.
TEST_P(DifferentialOracle, ColumnarBackendBitIdenticalToRow) {
  const uint64_t seed = GetParam() ^ 0x5e67;
  // B = 1 on the default store layout, B = 64 on two batched shards.
  for (const size_t b : {size_t{1}, size_t{64}}) {
    const auto make = [&](StorageBackendKind backend) {
      return b == 1 ? MakeRandomTrace(seed, 350, backend)
                    : MakeRandomTrace(seed, 350, backend, 2,
                                      [b](EventStoreOptions& o) {
                                        UseForwardingShards(o, b);
                                      });
    };
    const RandomTrace row_t = make(StorageBackendKind::kRow);
    const RandomTrace columnar_t = make(StorageBackendKind::kColumnar);
    const std::string script = UnconstrainedScript(row_t);
    ASSERT_EQ(UnconstrainedScript(columnar_t), script);
    const auto label = [&] {
      return std::string("seed=") + std::to_string(seed) +
             " B=" + std::to_string(b);
    };
    row_t.store->ResetStats();
    columnar_t.store->ResetStats();
    const RunFingerprint row_fp = RunOnce(row_t, script);
    const RunFingerprint columnar_fp = RunOnce(columnar_t, script);

    EXPECT_EQ(columnar_fp.graph_json, row_fp.graph_json) << label();
    ASSERT_EQ(columnar_fp.batches.size(), row_fp.batches.size()) << label();
    for (size_t i = 0; i < row_fp.batches.size(); ++i) {
      const UpdateBatch& r = row_fp.batches[i];
      const UpdateBatch& c = columnar_fp.batches[i];
      EXPECT_EQ(c.new_edges, r.new_edges) << label() << " batch " << i;
      EXPECT_EQ(c.new_nodes, r.new_nodes) << label() << " batch " << i;
      EXPECT_EQ(c.total_edges, r.total_edges) << label() << " batch " << i;
      EXPECT_EQ(c.total_nodes, r.total_nodes) << label() << " batch " << i;
    }
    EXPECT_EQ(columnar_fp.reason, row_fp.reason) << label();
    EXPECT_EQ(columnar_fp.work_units, row_fp.work_units) << label();
    EXPECT_EQ(columnar_fp.events_added, row_fp.events_added) << label();
    EXPECT_EQ(columnar_fp.events_filtered, row_fp.events_filtered)
        << label();
    EXPECT_EQ(columnar_fp.objects_excluded, row_fp.objects_excluded)
        << label();

    const StoreStats row_stats = row_t.store->stats();
    const StoreStats columnar_stats = columnar_t.store->stats();
    EXPECT_EQ(columnar_stats.queries, row_stats.queries) << label();
    EXPECT_EQ(columnar_stats.rows_matched, row_stats.rows_matched)
        << label();
    EXPECT_EQ(columnar_stats.rows_filtered, row_stats.rows_filtered)
        << label();
    // Pruning reduces only the probe counters, never the row counts.
    EXPECT_EQ(row_stats.segments_pruned, 0u) << label();
    EXPECT_LE(columnar_stats.partitions_probed, row_stats.partitions_probed)
        << label();
  }
}

// Per-shard counters must sum exactly to the store totals in any
// snapshot — the single-lock aggregation contract of
// ShardedStore::TakeSnapshot (docs/sharding.md). `queries` is excluded:
// one scan that fans out to k shards counts once in the totals but once
// per touched shard in the per-shard rows.
void ExpectShardReconciliation(const EventStore& store,
                               const std::string& label) {
  const ShardedStore::Snapshot snap = store.ShardSnapshot();
  StoreStats sum;
  uint64_t resident = 0;
  for (const auto& row : snap.shards) {
    sum.rows_matched += row.stats.rows_matched;
    sum.rows_filtered += row.stats.rows_filtered;
    sum.partitions_probed += row.stats.partitions_probed;
    sum.partitions_seeked += row.stats.partitions_seeked;
    sum.segments_pruned += row.stats.segments_pruned;
    resident += row.resident_rows;
  }
  EXPECT_EQ(sum.rows_matched, snap.total.rows_matched) << label;
  EXPECT_EQ(sum.rows_filtered, snap.total.rows_filtered) << label;
  EXPECT_EQ(sum.partitions_probed, snap.total.partitions_probed) << label;
  EXPECT_EQ(sum.partitions_seeked, snap.total.partitions_seeked) << label;
  EXPECT_EQ(sum.segments_pruned, snap.total.segments_pruned) << label;
  EXPECT_EQ(resident, store.NumEvents()) << label;
}

// Shard axis: the same trace partitioned across {2, 4, 8} shards must
// yield analysis output bit-identical to the monolithic (shards = 1)
// store — same graph JSON, same update-batch sequence, same
// deterministic RunStats, and the same delivered-row totals — on both
// backends and at any thread count. Scatter-gather may change how many
// storage units are probed (a time slice whose rows span two hosts
// occupies partitions in two shards), so the probe counters are checked
// for within-run reconciliation rather than cross-count equality —
// mirroring the row-vs-columnar contract above.
TEST_P(DifferentialOracle, ShardedStoreBitIdenticalToMonolithic) {
  const uint64_t seed = GetParam() ^ 0x54a2;
  for (const StorageBackendKind backend :
       {StorageBackendKind::kRow, StorageBackendKind::kColumnar}) {
    const RandomTrace mono = MakeRandomTrace(seed, 350, backend, 1);
    const std::string script = UnconstrainedScript(mono);

    for (const size_t shards : {size_t{2}, size_t{4}, size_t{8}}) {
      for (const size_t b : {size_t{1}, size_t{64}}) {
        const RandomTrace sharded = MakeRandomTrace(
            seed, 350, backend, shards, [b](EventStoreOptions& o) {
              if (b > 1) UseForwardingShards(o, b);
            });
        ASSERT_EQ(UnconstrainedScript(sharded), script);
        ASSERT_EQ(sharded.store->shard_count(), shards);
        const auto label = [&] {
          return std::string(StorageBackendName(backend)) +
                 " seed=" + std::to_string(seed) +
                 " shards=" + std::to_string(shards) +
                 " B=" + std::to_string(b);
        };
        mono.store->ResetStats();
        sharded.store->ResetStats();
        const RunFingerprint want = RunOnce(mono, script);
        const RunFingerprint got = RunOnce(sharded, script);

        EXPECT_EQ(got.graph_json, want.graph_json) << label();
        ASSERT_EQ(got.batches.size(), want.batches.size()) << label();
        for (size_t i = 0; i < want.batches.size(); ++i) {
          const UpdateBatch& w = want.batches[i];
          const UpdateBatch& g = got.batches[i];
          EXPECT_EQ(g.new_edges, w.new_edges) << label() << " batch " << i;
          EXPECT_EQ(g.new_nodes, w.new_nodes) << label() << " batch " << i;
          EXPECT_EQ(g.total_edges, w.total_edges)
              << label() << " batch " << i;
          EXPECT_EQ(g.total_nodes, w.total_nodes)
              << label() << " batch " << i;
        }
        EXPECT_EQ(got.reason, want.reason) << label();
        EXPECT_EQ(got.work_units, want.work_units) << label();
        EXPECT_EQ(got.events_added, want.events_added) << label();
        EXPECT_EQ(got.events_filtered, want.events_filtered) << label();
        EXPECT_EQ(got.objects_excluded, want.objects_excluded) << label();

        const StoreStats mono_stats = mono.store->stats();
        const StoreStats shard_stats = sharded.store->stats();
        EXPECT_EQ(shard_stats.queries, mono_stats.queries) << label();
        EXPECT_EQ(shard_stats.rows_matched, mono_stats.rows_matched)
            << label();
        EXPECT_EQ(shard_stats.rows_filtered, mono_stats.rows_filtered)
            << label();
        ExpectShardReconciliation(*sharded.store, label());
      }
    }
  }
}

// Durability axis at shards > 1: the ingest -> seal -> crash -> recover
// cycle of RecoveredStoreBitIdenticalToUninterrupted, rebuilt on a
// 4-way sharded store. WAL replay routes every acknowledged batch
// through the shard map, so the recovered sharded store must be
// bit-identical to the uninterrupted sharded store — and its graphs
// must equal the monolithic store's graphs on top.
TEST_P(DifferentialOracle, ShardedRecoveredStoreBitIdenticalToUninterrupted) {
  const uint64_t seed = GetParam() ^ 0x5dad;
  FileEnv* env = FileEnv::Posix();
  constexpr size_t kShards = 4;
  constexpr size_t kRecoveredBatch = 7;

  for (const StorageBackendKind backend :
       {StorageBackendKind::kRow, StorageBackendKind::kColumnar}) {
    RandomTrace ref = MakeRandomTrace(seed, 250, backend, kShards);
    const std::string script = UnconstrainedScript(ref);
    const RandomTrace mono = MakeRandomTrace(seed, 250, backend, 1);
    const std::string trace_path =
        ::testing::TempDir() + "/exec_shard_durable_" + std::to_string(seed) +
        "." + StorageBackendName(backend) + "." +
        std::to_string(::getpid()) + ".trace";
    ASSERT_TRUE(
        SaveTraceFile(*ref.store, trace_path, TraceFormat::kBinaryV2).ok());

    Rng rng(seed + 23);
    std::vector<std::vector<Event>> batches;
    for (size_t b = 0; b < 5; ++b) {
      std::vector<Event> batch;
      const size_t n = rng.Uniform(3) + 1;
      for (size_t i = 0; i < n; ++i) {
        Event e = ref.events[rng.Uniform(ref.events.size())];
        e.id = kInvalidEventId;
        e.timestamp += static_cast<TimeMicros>(40000 + b * 37 + i);
        batch.push_back(e);
      }
      batches.push_back(std::move(batch));
    }
    for (const auto& batch : batches) {
      for (Event e : batch) {
        ref.store->Append(e);
        mono.store->Append(e);
      }
    }

    const std::string dir = ::testing::TempDir() + "/exec_shard_durable_dir_" +
                            std::to_string(seed) + "." +
                            StorageBackendName(backend) + "." +
                            std::to_string(::getpid());
    ASSERT_TRUE(env->CreateDir(dir).ok());
    std::string wal_bytes(kWalMagic, kWalMagicLen);
    for (size_t b = 0; b < batches.size(); ++b) {
      wal_bytes += EncodeWalRecord(b + 1, batches[b]);
    }
    wal_bytes += EncodeWalRecord(99, batches[0]).substr(0, 11);
    {
      const std::string wal_path = dir + "/wal.log";
      if (env->FileExists(wal_path)) {
        ASSERT_TRUE(env->RemoveFile(wal_path).ok());
      }
      auto f = env->OpenForAppend(wal_path);
      ASSERT_TRUE(f.ok());
      ASSERT_TRUE((*f)->Append(wal_bytes).ok());
      ASSERT_TRUE((*f)->Close().ok());
    }

    EventStoreOptions options;
    options.partition_micros = 500;
    options.segment_rows = 64;
    options.cost_model = CostModel::Free();
    options.backend = backend;
    options.shards = kShards;
    // The recovered store collects in batches; the reference inline.
    UseForwardingShards(options, kRecoveredBatch);
    auto recovered = OpenDataDir(env, dir, trace_path, options);
    ASSERT_TRUE(recovered.ok()) << recovered.status();
    EXPECT_EQ(recovered->wal.batches_applied, batches.size());
    EXPECT_EQ(recovered->store->shard_count(), kShards);

    RandomTrace rec;
    rec.store = std::move(recovered->store);
    rec.events = ref.events;
    rec.alert = ref.alert;

    {
      const RunFingerprint want = RunOnce(ref, script);
      const RunFingerprint unsealed = RunOnce(rec, script);
      ExpectIdentical(want, unsealed, seed, kRecoveredBatch,
                      StorageBackendName(backend));
      // And the sharded answer equals the monolithic one.
      const RunFingerprint mono_fp = RunOnce(mono, script);
      EXPECT_EQ(unsealed.graph_json, mono_fp.graph_json)
          << StorageBackendName(backend) << " seed=" << seed
          << " B=" << kRecoveredBatch;
    }

    rec.store->SealTail();
    EXPECT_EQ(rec.store->TailRows(), 0u);
    {
      const RunFingerprint want = RunOnce(ref, script);
      const RunFingerprint sealed = RunOnce(rec, script);
      const std::string label = std::string("sealed ") +
                                StorageBackendName(backend) +
                                " seed=" + std::to_string(seed) +
                                " B=" + std::to_string(kRecoveredBatch);
      EXPECT_EQ(sealed.graph_json, want.graph_json) << label;
      EXPECT_EQ(sealed.reason, want.reason) << label;
      EXPECT_EQ(sealed.events_added, want.events_added) << label;
      EXPECT_EQ(sealed.events_filtered, want.events_filtered) << label;
      EXPECT_EQ(sealed.objects_excluded, want.objects_excluded) << label;
    }
    ExpectShardReconciliation(*rec.store,
                              std::string("recovered ") +
                                  StorageBackendName(backend) +
                                  " seed=" + std::to_string(seed));
  }
}

// Durability axis: an ingest -> seal -> crash -> recover cycle must be
// invisible to analysis. The executor over a store recovered from a data
// dir (base snapshot + WAL replay + torn-tail repair) is bit-identical
// to the executor over the uninterrupted in-memory store that never
// crashed — across {row, columnar} backends, before and after the
// recovered tail is sealed into segments. (The sharded variant above
// runs its recovered store at B = 7.)
TEST_P(DifferentialOracle, RecoveredStoreBitIdenticalToUninterrupted) {
  const uint64_t seed = GetParam() ^ 0xdead;
  FileEnv* env = FileEnv::Posix();

  for (const StorageBackendKind backend :
       {StorageBackendKind::kRow, StorageBackendKind::kColumnar}) {
    // Uninterrupted reference: sealed base history plus a live-ingested
    // tail appended directly to the store.
    RandomTrace ref = MakeRandomTrace(seed, 250, backend);
    const std::string script = UnconstrainedScript(ref);
    const std::string trace_path =
        ::testing::TempDir() + "/exec_durable_" + std::to_string(seed) +
        "." + StorageBackendName(backend) + "." +
        std::to_string(::getpid()) + ".trace";
    ASSERT_TRUE(
        SaveTraceFile(*ref.store, trace_path, TraceFormat::kBinaryV2).ok());

    Rng rng(seed + 17);
    std::vector<std::vector<Event>> batches;
    for (size_t b = 0; b < 5; ++b) {
      std::vector<Event> batch;
      const size_t n = rng.Uniform(3) + 1;
      for (size_t i = 0; i < n; ++i) {
        Event e = ref.events[rng.Uniform(ref.events.size())];
        e.id = kInvalidEventId;
        e.timestamp += static_cast<TimeMicros>(40000 + b * 31 + i);
        batch.push_back(e);
      }
      batches.push_back(std::move(batch));
    }
    for (const auto& batch : batches) {
      for (Event e : batch) ref.store->Append(e);
    }

    // Crashed daemon's data dir: the fallback trace, a WAL holding every
    // acknowledged batch, and a torn half-record from the fatal append.
    const std::string dir = ::testing::TempDir() + "/exec_durable_dir_" +
                            std::to_string(seed) + "." +
                            StorageBackendName(backend) + "." +
                            std::to_string(::getpid());
    ASSERT_TRUE(env->CreateDir(dir).ok());
    std::string wal_bytes(kWalMagic, kWalMagicLen);
    for (size_t b = 0; b < batches.size(); ++b) {
      wal_bytes += EncodeWalRecord(b + 1, batches[b]);
    }
    wal_bytes += EncodeWalRecord(99, batches[0]).substr(0, 11);
    {
      const std::string wal_path = dir + "/wal.log";
      if (env->FileExists(wal_path)) {
        ASSERT_TRUE(env->RemoveFile(wal_path).ok());
      }
      auto f = env->OpenForAppend(wal_path);
      ASSERT_TRUE(f.ok());
      ASSERT_TRUE((*f)->Append(wal_bytes).ok());
      ASSERT_TRUE((*f)->Close().ok());
    }

    EventStoreOptions options;
    options.partition_micros = 500;
    options.segment_rows = 64;
    options.cost_model = CostModel::Free();
    options.backend = backend;
    auto recovered = OpenDataDir(env, dir, trace_path, options);
    ASSERT_TRUE(recovered.ok()) << recovered.status();
    EXPECT_EQ(recovered->wal.batches_applied, batches.size());
    EXPECT_GT(recovered->wal.truncated_bytes, 0u);
    EXPECT_NE(recovered->wal.diagnostic.find("STO-E00"), std::string::npos);

    RandomTrace rec;
    rec.store = std::move(recovered->store);
    rec.events = ref.events;
    rec.alert = ref.alert;

    {
      const RunFingerprint want = RunOnce(ref, script);
      // Recovered, tail still hot: identical physical layout, so every
      // fingerprint field must match, simulated charges included.
      const RunFingerprint unsealed = RunOnce(rec, script);
      ExpectIdentical(want, unsealed, seed, 1,
                      StorageBackendName(backend));
    }

    // Seal the recovered tail into columnar segments (a no-op on the
    // row backend): the *results* stay bit-identical even though the
    // physical layout — and thus the simulated cost accounting — may
    // legitimately change.
    rec.store->SealTail();
    EXPECT_EQ(rec.store->TailRows(), 0u);
    {
      const RunFingerprint want = RunOnce(ref, script);
      const RunFingerprint sealed = RunOnce(rec, script);
      const std::string label = std::string("sealed ") +
                                StorageBackendName(backend) +
                                " seed=" + std::to_string(seed) +
                                " B=1";
      EXPECT_EQ(sealed.graph_json, want.graph_json) << label;
      ASSERT_EQ(sealed.batches.size(), want.batches.size()) << label;
      for (size_t i = 0; i < want.batches.size(); ++i) {
        EXPECT_EQ(sealed.batches[i].new_edges, want.batches[i].new_edges)
            << label << " batch " << i;
        EXPECT_EQ(sealed.batches[i].total_edges, want.batches[i].total_edges)
            << label << " batch " << i;
      }
      EXPECT_EQ(sealed.reason, want.reason) << label;
      EXPECT_EQ(sealed.events_added, want.events_added) << label;
      EXPECT_EQ(sealed.events_filtered, want.events_filtered) << label;
      EXPECT_EQ(sealed.objects_excluded, want.objects_excluded) << label;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DifferentialOracle,
                         testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55, 89,
                                         144, 233, 377));

}  // namespace
}  // namespace aptrace
