// Scaling lane for the sharded store engine (docs/sharding.md): builds
// the Table II enterprise workload at shard counts {1, 2, 4, 8} from the
// same seed, runs the same backtracking cases on each, and emits
// BENCH_shard_scaling.json — the wall-clock / scan-work trajectory the
// ROADMAP asks for. Two invariants are enforced on every rung, and the
// run fails (non-zero exit) if either breaks:
//
//  * identity — every case's dependency graph, and the store-wide
//    rows_matched / queries totals, must equal the shards=1 rung's
//    (scatter-gather is an implementation detail, not an answer change);
//  * reconciliation — within a rung, the per-shard rows / probe / prune
//    counters must sum *exactly* to that rung's store totals (the
//    single-snapshot-lock contract of ShardedStore::TakeSnapshot).
//
// Partition-probe counts are NOT compared across rungs: a time slice
// whose matching rows span two hosts occupies one partition in a
// monolithic store but up to two across shards, so the fan-out cost is
// reported per rung instead (that is the measured effect).
//
// Cases run uncapped for the same reason as bench_backend_compare: a
// sim-time cap would cut rungs at different points and void the
// identity check.

#include <fstream>
#include <iterator>
#include <set>

#include "bench/bench_common.h"
#include "obs/json_dict.h"

namespace aptrace::bench {
namespace {

constexpr size_t kShardCounts[] = {1, 2, 4, 8};

/// One rung of the shard ladder: the per-case edge sets (for the
/// cross-rung identity check) and one consistent store snapshot.
struct ShardRun {
  size_t shards = 0;
  double wall_seconds = 0;
  std::vector<std::set<EventId>> case_edges;
  std::vector<size_t> case_nodes;
  ShardedStore::Snapshot snapshot;
};

ShardRun RunLadderRung(size_t shards, const BenchArgs& args) {
  workload::TraceConfig config = args.ToConfig();
  config.shards = shards;
  auto store = workload::BuildEnterpriseTrace(config);
  const auto alerts =
      workload::SampleAnomalyEvents(*store, args.num_cases, args.seed);

  ShardRun run;
  run.shards = shards;
  run.case_edges.resize(alerts.size());
  run.case_nodes.resize(alerts.size());
  store->ResetStats();
  const TimeMicros wall_start = MonotonicNowMicros();
  ParallelFor(alerts.size(), args.threads, [&](size_t i) {
    SimClock clock;
    SessionOptions options;
    options.use_baseline = false;
    options.num_windows_k = args.windows_k;
    Session session(store.get(), &clock, options);
    const bdl::TrackingSpec spec =
        workload::GenericSpecFor(*store, alerts[i]);
    if (!session.StartWithSpec(spec, alerts[i]).ok()) return;
    const auto reason = session.Step(RunLimits{});  // uncapped
    (void)reason;
    run.case_nodes[i] = session.graph().NumNodes();
    session.graph().ForEachEdge([&](const DepGraph::Edge& e) {
      run.case_edges[i].insert(e.event);
    });
  });
  run.wall_seconds = MicrosToSeconds(MonotonicNowMicros() - wall_start);
  run.snapshot = store->ShardSnapshot();
  return run;
}

/// Per-shard counters must sum exactly to the rung's totals — the
/// snapshot contract (docs/sharding.md). simulated_cost is excluded:
/// the per-query overhead term is charged once per scan, not per shard.
bool Reconciles(const ShardedStore::Snapshot& snap) {
  StoreStats sum;
  for (const auto& row : snap.shards) {
    sum.rows_matched += row.stats.rows_matched;
    sum.rows_filtered += row.stats.rows_filtered;
    sum.partitions_probed += row.stats.partitions_probed;
    sum.partitions_seeked += row.stats.partitions_seeked;
    sum.segments_pruned += row.stats.segments_pruned;
  }
  return sum.rows_matched == snap.total.rows_matched &&
         sum.rows_filtered == snap.total.rows_filtered &&
         sum.partitions_probed == snap.total.partitions_probed &&
         sum.partitions_seeked == snap.total.partitions_seeked &&
         sum.segments_pruned == snap.total.segments_pruned;
}

std::string TotalsJson(const StoreStats& s) {
  obs::JsonDict d;
  d.Add("queries", s.queries);
  d.Add("rows_matched", s.rows_matched);
  d.Add("rows_filtered", s.rows_filtered);
  d.Add("partitions_probed", s.partitions_probed);
  d.Add("partitions_seeked", s.partitions_seeked);
  d.Add("segments_pruned", s.segments_pruned);
  d.Add("simulated_cost_us", static_cast<uint64_t>(s.simulated_cost));
  return d.Str();
}

std::string RunJson(const ShardRun& run, bool identical, bool reconciled) {
  std::string shards = "[";
  for (size_t i = 0; i < run.snapshot.shards.size(); ++i) {
    const auto& row = run.snapshot.shards[i];
    if (i) shards += ",";
    obs::JsonDict d;
    d.Add("shard", static_cast<uint64_t>(row.shard));
    d.Add("resident_rows", row.resident_rows);
    d.Add("scans", row.stats.queries);
    d.Add("rows_matched", row.stats.rows_matched);
    d.Add("rows_filtered", row.stats.rows_filtered);
    d.Add("partitions_probed", row.stats.partitions_probed);
    d.Add("partitions_seeked", row.stats.partitions_seeked);
    d.Add("segments_pruned", row.stats.segments_pruned);
    d.Add("boundary_rows", row.boundary_rows);
    d.Add("sim_cost_us",
          static_cast<uint64_t>(row.stats.simulated_cost));
    shards += d.Str();
  }
  shards += "]";
  obs::JsonDict d;
  d.Add("shards", static_cast<uint64_t>(run.shards));
  d.Add("wall_seconds", run.wall_seconds);
  d.Add("identical_graphs", identical);
  d.Add("reconciliation_ok", reconciled);
  d.AddRaw("total", TotalsJson(run.snapshot.total));
  d.AddRaw("per_shard", shards);
  return d.Str();
}

int Main(int argc, char** argv) {
  BenchArgs args = BenchArgs::Parse(argc, argv);
  if (args.bench_json.empty()) args.bench_json = "BENCH_shard_scaling.json";
  ObsRun obs_run(args, "bench_shard_scaling");

  // No PrintHeader: the trace is rebuilt per rung (same seed, different
  // shard count), so there is no single store to quote an event count
  // from yet — the per-rung lines carry the sizes instead.
  std::printf(
      "==============================================================\n"
      "Shard scaling: scatter-gather scans vs. the monolithic store\n"
      "trace: %d hosts, %d days | cases: %zu | seed: %llu | k: %d\n"
      "==============================================================\n",
      args.num_hosts, args.days, args.num_cases,
      static_cast<unsigned long long>(args.seed), args.windows_k);
  std::printf("backend: %s | rungs:", StorageBackendName(args.backend));
  for (size_t n : kShardCounts) std::printf(" %zu", n);
  std::printf(" shards\n\n");

  std::vector<ShardRun> runs;
  runs.reserve(std::size(kShardCounts));
  for (size_t n : kShardCounts) runs.push_back(RunLadderRung(n, args));
  const ShardRun& base = runs.front();

  bool failed = false;
  std::string runs_json = "[";
  for (size_t r = 0; r < runs.size(); ++r) {
    const ShardRun& run = runs[r];
    // Identity vs. the shards=1 rung: graphs and delivered-row totals.
    size_t mismatches = 0;
    for (size_t i = 0; i < run.case_edges.size(); ++i) {
      if (run.case_edges[i] != base.case_edges[i] ||
          run.case_nodes[i] != base.case_nodes[i]) {
        ++mismatches;
      }
    }
    const bool identical =
        mismatches == 0 &&
        run.snapshot.total.rows_matched == base.snapshot.total.rows_matched &&
        run.snapshot.total.queries == base.snapshot.total.queries;
    const bool reconciled = Reconciles(run.snapshot);
    if (!identical) {
      std::fprintf(stderr,
                   "FAIL: shards=%zu diverged from shards=1 "
                   "(%zu case graphs differ)\n",
                   run.shards, mismatches);
      failed = true;
    }
    if (!reconciled) {
      std::fprintf(stderr,
                   "FAIL: shards=%zu per-shard counters do not sum to "
                   "the store totals\n",
                   run.shards);
      failed = true;
    }

    uint64_t max_rows = 0;
    uint64_t boundary = 0;
    for (const auto& row : run.snapshot.shards) {
      max_rows = std::max(max_rows, row.stats.rows_matched);
      boundary += row.boundary_rows;
    }
    const double balance =
        run.snapshot.total.rows_matched > 0 && !run.snapshot.shards.empty()
            ? static_cast<double>(max_rows) * run.snapshot.shards.size() /
                  static_cast<double>(run.snapshot.total.rows_matched)
            : 1.0;
    std::printf(
        "shards=%zu  wall %6.2fs  probed %10llu  pruned %10llu  "
        "boundary %8llu  hottest-shard %.2fx  %s\n",
        run.shards, run.wall_seconds,
        static_cast<unsigned long long>(run.snapshot.total.partitions_probed),
        static_cast<unsigned long long>(run.snapshot.total.segments_pruned),
        static_cast<unsigned long long>(boundary), balance,
        identical && reconciled ? "ok" : "FAIL");

    if (r) runs_json += ",";
    runs_json += RunJson(run, identical, reconciled);
  }
  runs_json += "]";

  obs::JsonDict top;
  top.Add("bench", "shard_scaling");
  top.Add("backend", StorageBackendName(args.backend));
  top.Add("cases", static_cast<uint64_t>(args.num_cases));
  top.Add("hosts", static_cast<int64_t>(args.num_hosts));
  top.Add("days", static_cast<int64_t>(args.days));
  top.Add("seed", args.seed);
  top.Add("k", static_cast<int64_t>(args.windows_k));
  top.Add("ok", !failed);
  top.AddRaw("runs", runs_json);
  std::ofstream out(args.bench_json);
  if (!out) {
    std::fprintf(stderr, "cannot open %s\n", args.bench_json.c_str());
    return 1;
  }
  out << top.Str() << "\n";
  out.close();
  std::printf("\n%s: wrote %s\n", failed ? "FAIL" : "PASS",
              args.bench_json.c_str());
  obs_run.Finish();
  return failed ? 1 : 0;
}

}  // namespace
}  // namespace aptrace::bench

int main(int argc, char** argv) { return aptrace::bench::Main(argc, argv); }
