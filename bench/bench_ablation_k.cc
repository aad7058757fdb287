// Ablation of the execution-window count k (the user-configurable
// parameter of the partitioning algorithm; the paper's blue team used the
// empirical value 8). k = 1 degenerates to the baseline's monolithic
// per-node scan; very large k multiplies per-query overhead. The metric
// is Table II's: waiting time between updates, over the same random
// alerts.

#include "bench/bench_common.h"
#include "util/stats.h"

namespace aptrace::bench {
namespace {

int Main(int argc, char** argv) {
  BenchArgs args = BenchArgs::Parse(argc, argv);
  ObsRun obs_run(args, "bench_ablation_k");
  if (args.num_cases == 200) args.num_cases = 60;  // per-k runs multiply
  auto store = workload::BuildEnterpriseTrace(args.ToConfig());
  PrintHeader("Ablation: window count k vs. update waiting time (seconds)",
              args, store->NumEvents());

  const auto alerts =
      workload::SampleAnomalyEvents(*store, args.num_cases, args.seed);
  const DurationMicros cap = 2 * kMicrosPerHour;

  std::printf("%6s %8s %8s %8s %8s %8s %10s\n", "k", "Average", "STD",
              "90%", "95%", "99%", "updates");
  for (int k : {1, 2, 4, 8, 12, 16, 24}) {
    std::vector<CaseRun> runs(alerts.size());
    ParallelFor(alerts.size(), args.threads, [&](size_t i) {
      runs[i] = RunCase(*store, alerts[i], /*use_baseline=*/false, k, cap);
    });
    SampleStats waits;
    for (const CaseRun& run : runs) waits.AddAll(run.waits_seconds);
    std::printf("%6d %8.1f %8.1f %8.1f %8.1f %8.1f %10zu\n", k,
                waits.Mean(), waits.Stddev(), waits.Percentile(90),
                waits.Percentile(95), waits.Percentile(99), waits.count());
  }
  std::printf(
      "\nshape to check: the tail (p95/p99) shrinks sharply from k=1 to "
      "moderate k and\nflattens (or regresses via per-query overhead) "
      "beyond; k=8 is the paper's choice.\n");
  obs_run.Finish(*store);
  return 0;
}

}  // namespace
}  // namespace aptrace::bench

int main(int argc, char** argv) { return aptrace::bench::Main(argc, argv); }
