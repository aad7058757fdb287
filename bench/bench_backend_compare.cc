// A/B harness for the pluggable storage backends: builds the Table II
// enterprise workload twice from the same seed — once on the row store,
// once on the columnar segment store — runs the same backtracking cases
// on both, and reports rows-touched and simulated-cost deltas. The run
// fails (non-zero exit) if any case's dependency graph differs between
// backends, or if the columnar store does not probe strictly fewer
// storage units than the row store: identical answers, cheaper scans is
// the whole point of zone-map pruning.
//
// Cases run uncapped: simulated time advances at different rates on the
// two backends (that is the measured effect), so a sim-time cap would
// cut the runs at different points and void the identity check.

#include <fstream>
#include <set>

#include "bench/bench_common.h"
#include "obs/json_dict.h"

namespace aptrace::bench {
namespace {

/// One backtracking case plus the final edge set, for cross-backend
/// graph comparison (RunCase only keeps counts).
struct CompareRun {
  CaseRun run;
  std::set<EventId> edges;
};

CompareRun RunCompareCase(const EventStore& store, const Event& alert,
                          int windows_k) {
  SimClock clock;
  SessionOptions options;
  options.use_baseline = false;
  options.num_windows_k = windows_k;
  Session session(&store, &clock, options);

  const bdl::TrackingSpec spec = workload::GenericSpecFor(store, alert);
  CompareRun out;
  if (!session.StartWithSpec(spec, alert).ok()) return out;

  auto reason = session.Step(RunLimits{});  // uncapped: run to completion
  out.run.reason = reason.ok() ? reason.value() : StopReason::kStopped;
  out.run.graph_edges = session.graph().NumEdges();
  out.run.graph_nodes = session.graph().NumNodes();
  out.run.elapsed = clock.NowMicros() - session.stats().run_start;
  session.graph().ForEachEdge(
      [&](const DepGraph::Edge& e) { out.edges.insert(e.event); });
  return out;
}

struct BackendResult {
  const EventStore* store = nullptr;
  std::vector<CompareRun> cases;
  StoreStats stats;  // one snapshot after all cases
  double wall_seconds = 0;
};

BackendResult RunAll(EventStore& store, const std::vector<Event>& alerts,
                     const BenchArgs& args) {
  BackendResult result;
  result.store = &store;
  result.cases.resize(alerts.size());
  store.ResetStats();
  const TimeMicros wall_start = MonotonicNowMicros();
  ParallelFor(alerts.size(), args.threads, [&](size_t i) {
    result.cases[i] = RunCompareCase(store, alerts[i], args.windows_k);
  });
  result.wall_seconds =
      MicrosToSeconds(MonotonicNowMicros() - wall_start);
  result.stats = store.stats();
  return result;
}

std::string StatsJson(const StoreStats& s, double wall_seconds) {
  obs::JsonDict d;
  d.Add("queries", s.queries);
  d.Add("rows_matched", s.rows_matched);
  d.Add("rows_filtered", s.rows_filtered);
  d.Add("partitions_probed", s.partitions_probed);
  d.Add("partitions_seeked", s.partitions_seeked);
  d.Add("segments_pruned", s.segments_pruned);
  d.Add("simulated_cost_us", static_cast<uint64_t>(s.simulated_cost));
  d.Add("wall_seconds", wall_seconds);
  return d.Str();
}

/// `--bench-json=F`: the machine-readable twin of the printed table, so
/// the A/B lane leaves a perf-trajectory artifact like
/// BENCH_shard_scaling.json does.
bool WriteBenchJson(const std::string& path, const BenchArgs& args,
                    const BackendResult& row, const BackendResult& columnar,
                    size_t cases, size_t mismatches) {
  obs::JsonDict top;
  top.Add("bench", "backend_compare");
  top.Add("cases", static_cast<uint64_t>(cases));
  top.Add("hosts", static_cast<int64_t>(args.num_hosts));
  top.Add("days", static_cast<int64_t>(args.days));
  top.Add("seed", args.seed);
  top.Add("shards", static_cast<uint64_t>(args.shards));
  top.Add("identical_graphs", mismatches == 0);
  top.AddRaw("row", StatsJson(row.stats, row.wall_seconds));
  top.AddRaw("columnar",
             StatsJson(columnar.stats, columnar.wall_seconds));
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    return false;
  }
  out << top.Str() << "\n";
  return true;
}

void ReportRow(const char* label, uint64_t row, uint64_t columnar) {
  const double ratio =
      columnar > 0 ? static_cast<double>(row) / static_cast<double>(columnar)
                   : 0.0;
  std::printf("%-18s %14llu %14llu", label,
              static_cast<unsigned long long>(row),
              static_cast<unsigned long long>(columnar));
  if (columnar > 0 && row > 0) {
    std::printf("   %6.2fx\n", ratio);
  } else {
    std::printf("        -\n");
  }
}

int Main(int argc, char** argv) {
  BenchArgs args = BenchArgs::Parse(argc, argv);
  ObsRun obs_run(args, "bench_backend_compare");

  // Same seed, same generator: the two stores hold identical events in
  // identical order; only the physical layout differs.
  workload::TraceConfig row_config = args.ToConfig();
  row_config.backend = StorageBackendKind::kRow;
  workload::TraceConfig columnar_config = args.ToConfig();
  columnar_config.backend = StorageBackendKind::kColumnar;
  auto row_store = workload::BuildEnterpriseTrace(row_config);
  auto columnar_store = workload::BuildEnterpriseTrace(columnar_config);

  PrintHeader("Backend A/B: row store vs. columnar segments + zone maps",
              args, row_store->NumEvents());
  if (row_store->NumEvents() != columnar_store->NumEvents()) {
    std::fprintf(stderr, "store size mismatch: row=%zu columnar=%zu\n",
                 row_store->NumEvents(), columnar_store->NumEvents());
    return 1;
  }

  const auto alerts =
      workload::SampleAnomalyEvents(*row_store, args.num_cases, args.seed);
  const BackendResult row = RunAll(*row_store, alerts, args);
  const BackendResult columnar = RunAll(*columnar_store, alerts, args);

  // Identity check: every case must produce the same dependency graph.
  size_t mismatches = 0;
  for (size_t i = 0; i < alerts.size(); ++i) {
    if (row.cases[i].edges != columnar.cases[i].edges ||
        row.cases[i].run.graph_nodes != columnar.cases[i].run.graph_nodes) {
      if (++mismatches <= 5) {
        std::fprintf(stderr,
                     "case %zu: graph mismatch (row %zu edges / %zu nodes, "
                     "columnar %zu edges / %zu nodes)\n",
                     i, row.cases[i].edges.size(),
                     row.cases[i].run.graph_nodes,
                     columnar.cases[i].edges.size(),
                     columnar.cases[i].run.graph_nodes);
      }
    }
  }

  std::printf("graphs: %zu/%zu cases identical across backends\n",
              alerts.size() - mismatches, alerts.size());
  std::printf("probe unit: row = %s, columnar = %s\n\n",
              row_store->backend().capabilities().probe_unit,
              columnar_store->backend().capabilities().probe_unit);

  std::printf("%-18s %14s %14s %9s\n", "", "row", "columnar", "row/col");
  ReportRow("queries", row.stats.queries, columnar.stats.queries);
  ReportRow("rows_matched", row.stats.rows_matched,
            columnar.stats.rows_matched);
  ReportRow("rows_filtered", row.stats.rows_filtered,
            columnar.stats.rows_filtered);
  ReportRow("units_probed", row.stats.partitions_probed,
            columnar.stats.partitions_probed);
  ReportRow("units_seeked", row.stats.partitions_seeked,
            columnar.stats.partitions_seeked);
  ReportRow("segments_pruned", row.stats.segments_pruned,
            columnar.stats.segments_pruned);
  ReportRow("simulated_cost_us",
            static_cast<uint64_t>(row.stats.simulated_cost),
            static_cast<uint64_t>(columnar.stats.simulated_cost));
  std::printf("\nwall seconds: row %.2f, columnar %.2f\n", row.wall_seconds,
              columnar.wall_seconds);

  bool failed = false;
  if (mismatches > 0) {
    std::fprintf(stderr, "FAIL: %zu cases diverged across backends\n",
                 mismatches);
    failed = true;
  }
  if (columnar.stats.partitions_probed >= row.stats.partitions_probed) {
    std::fprintf(stderr,
                 "FAIL: columnar probed %llu units, expected strictly "
                 "fewer than the row store's %llu\n",
                 static_cast<unsigned long long>(
                     columnar.stats.partitions_probed),
                 static_cast<unsigned long long>(
                     row.stats.partitions_probed));
    failed = true;
  }
  if (!failed) {
    std::printf("\nPASS: identical graphs, columnar probed %.2fx fewer "
                "units at %.2fx lower simulated cost\n",
                static_cast<double>(row.stats.partitions_probed) /
                    static_cast<double>(
                        std::max<uint64_t>(1,
                                           columnar.stats.partitions_probed)),
                static_cast<double>(row.stats.simulated_cost) /
                    std::max<double>(
                        1.0,
                        static_cast<double>(columnar.stats.simulated_cost)));
  }
  if (!args.bench_json.empty() &&
      !WriteBenchJson(args.bench_json, args, row, columnar, alerts.size(),
                      mismatches)) {
    failed = true;
  }
  obs_run.Finish(*row_store);
  return failed ? 1 : 0;
}

}  // namespace
}  // namespace aptrace::bench

int main(int argc, char** argv) { return aptrace::bench::Main(argc, argv); }
