// Wall-clock ladder of the parallel scan pipeline: runs the Table-II
// workload (random anomaly alerts over the enterprise trace, two
// simulated hours per case) at a ladder of scan-thread counts and
// reports each rung's wall time and its ratio to the one-thread rung.
// Over an in-process store the prefetch only adds hand-offs, so rungs
// above 1 are expected to be slower; the pipeline pays when scans cross
// a network (bench_dist_fanout, docs/parallel_execution.md).
//
// Every rung must produce identical graphs — the bench exits nonzero if
// edge/node/scan-cost totals diverge anywhere, making it a cheap
// determinism smoke test on top of tests/executor_differential_test.cc.
//
//   --max-threads=N   highest ladder rung (default 8, ladder 1/2/4/8)
//   --json-out=FILE   machine-readable results for CI trend tracking
//   --bench-json=FILE alias for --json-out following the BENCH_*.json
//                     artifact convention (CI uploads these)

#include <cstring>
#include <fstream>

#include "bench/bench_common.h"
#include "obs/json_dict.h"

namespace aptrace::bench {
namespace {

struct RungResult {
  int scan_threads = 0;
  size_t edges = 0;
  size_t nodes = 0;
  DurationMicros scan_cost = 0;  // summed over cases
  double wall_seconds = 0;
};

int Main(int argc, char** argv) {
  const BenchArgs args = BenchArgs::Parse(argc, argv);
  int max_threads = 8;
  std::string json_out;
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    if (std::strncmp(a, "--max-threads=", 14) == 0) {
      max_threads = std::atoi(a + 14);
    } else if (std::strncmp(a, "--json-out=", 11) == 0) {
      json_out = a + 11;
    }
  }
  if (json_out.empty()) json_out = args.bench_json;

  ObsRun obs_run(args, "bench_parallel_scaling");
  auto store = workload::BuildEnterpriseTrace(args.ToConfig());
  PrintHeader("Parallel scan pipeline: wall clock vs scan threads",
              args, store->NumEvents());

  const auto alerts =
      workload::SampleAnomalyEvents(*store, args.num_cases, args.seed);
  const DurationMicros cap = 2 * kMicrosPerHour;

  std::vector<RungResult> rungs;
  for (const int n : {1, 2, 4, 8}) {
    if (n > max_threads && n != 1) continue;
    RungResult rung;
    rung.scan_threads = n;
    const TimeMicros wall_start = MonotonicNowMicros();
    // Cases run one at a time: the rung's parallelism is *inside* each
    // executor, and wall-clock per rung should measure exactly that.
    for (const Event& alert : alerts) {
      const CaseRun run = RunCase(*store, alert, /*use_baseline=*/false,
                                  args.windows_k, cap, {}, n);
      rung.edges += run.graph_edges;
      rung.nodes += run.graph_nodes;
      rung.scan_cost += run.scan_cost_total;
    }
    rung.wall_seconds = MicrosToSeconds(MonotonicNowMicros() - wall_start);
    rungs.push_back(rung);
  }

  std::printf("%8s %10s %10s %14s %9s %9s\n", "threads", "edges", "nodes",
              "scan_cost_us", "wall_s", "vs_1");
  bool identical = true;
  const double base_wall = rungs.front().wall_seconds;
  for (const RungResult& rung : rungs) {
    std::printf("%8d %10zu %10zu %14llu %9.3f %8.2fx\n", rung.scan_threads,
                rung.edges, rung.nodes,
                static_cast<unsigned long long>(rung.scan_cost),
                rung.wall_seconds,
                base_wall > 0 ? rung.wall_seconds / base_wall : 1.0);
    identical = identical && rung.edges == rungs.front().edges &&
                rung.nodes == rungs.front().nodes &&
                rung.scan_cost == rungs.front().scan_cost;
  }
  if (!identical) {
    std::fprintf(stderr,
                 "FAIL: graph or scan-cost totals differ across thread "
                 "counts — the parallel pipeline broke determinism\n");
    return 1;
  }

  if (!json_out.empty()) {
    std::string entries = "[";
    for (size_t i = 0; i < rungs.size(); ++i) {
      if (i) entries += ",";
      obs::JsonDict entry;
      entry.Add("scan_threads", static_cast<uint64_t>(rungs[i].scan_threads));
      entry.Add("edges", static_cast<uint64_t>(rungs[i].edges));
      entry.Add("nodes", static_cast<uint64_t>(rungs[i].nodes));
      entry.Add("scan_cost_micros", static_cast<uint64_t>(rungs[i].scan_cost));
      entry.Add("wall_seconds", rungs[i].wall_seconds);
      entries += entry.Str();
    }
    entries += "]";
    obs::JsonDict root;
    root.Add("bench", std::string_view("bench_parallel_scaling"));
    root.Add("cases", static_cast<uint64_t>(alerts.size()));
    root.Add("seed", args.seed);
    root.Add("identical_graphs", identical);
    root.AddRaw("rungs", entries);
    std::ofstream f(json_out);
    if (!f) {
      std::fprintf(stderr, "cannot open for write: %s\n", json_out.c_str());
      return 1;
    }
    f << root.Str() << "\n";
    std::printf("JSON written to %s\n", json_out.c_str());
  }

  obs_run.Finish(*store);
  return 0;
}

}  // namespace
}  // namespace aptrace::bench

int main(int argc, char** argv) { return aptrace::bench::Main(argc, argv); }
