// Reproduces Table II of the paper: waiting time between dependency-graph
// updates (seconds) — average, standard deviation, and the 90/95/99
// percentiles — for the execute-to-complete baseline vs. APTrace's
// execution-window partitioning, over random anomaly alerts drawn from
// the enterprise trace. Each run is capped at two simulated hours, as in
// Section IV-B1.

#include "bench/bench_common.h"
#include "util/stats.h"

namespace aptrace::bench {
namespace {

// Methodology note. The unit of measurement is one backtracking analysis
// *case* (the paper ran 200). Average/STD are computed over all updates
// pooled; the percentile columns are computed over the per-case worst
// waits, i.e. "in 99% of cases the (longest) update wait is at most X" —
// this is the only reading under which the paper's own row (mean 7 s yet
// p95 = 613 s) is internally consistent (a pooled distribution with 5% of
// mass >= 613 cannot have mean 7), and it matches the paper's narrative:
// "nearly in every backtracking analysis, there will be at least one
// update being blocked for more than 20 minutes".
struct WaitAggregate {
  SampleStats pooled;
  SampleStats per_case_max;

  void AddCase(const std::vector<double>& waits) {
    double mx = 0;
    for (double w : waits) {
      pooled.Add(w);
      mx = std::max(mx, w);
    }
    if (!waits.empty()) per_case_max.Add(mx);
  }
};

void Report(const char* name, const WaitAggregate& agg) {
  std::printf("%-10s %8.0f %8.0f %8.0f %8.0f %8.0f   (updates=%zu)\n", name,
              agg.pooled.Mean(), agg.pooled.Stddev(),
              agg.per_case_max.Percentile(90),
              agg.per_case_max.Percentile(95),
              agg.per_case_max.Percentile(99), agg.pooled.count());
}

int Main(int argc, char** argv) {
  const BenchArgs args = BenchArgs::Parse(argc, argv);
  ObsRun obs_run(args, "bench_table2");
  auto store = workload::BuildEnterpriseTrace(args.ToConfig());
  PrintHeader("Table II: waiting time between updates (unit: second)", args,
              store->NumEvents());

  const auto alerts =
      workload::SampleAnomalyEvents(*store, args.num_cases, args.seed);
  const DurationMicros cap = 2 * kMicrosPerHour;

  std::vector<CaseRun> baseline_runs(alerts.size());
  std::vector<CaseRun> aptrace_runs(alerts.size());
  ParallelFor(alerts.size(), args.threads, [&](size_t i) {
    baseline_runs[i] = RunCase(*store, alerts[i], /*use_baseline=*/true,
                               args.windows_k, cap);
    aptrace_runs[i] = RunCase(*store, alerts[i], /*use_baseline=*/false,
                              args.windows_k, cap);
  });
  WaitAggregate baseline;
  WaitAggregate aptrace;
  for (size_t i = 0; i < alerts.size(); ++i) {
    baseline.AddCase(baseline_runs[i].waits_seconds);
    aptrace.AddCase(aptrace_runs[i].waits_seconds);
  }

  std::printf("%-10s %8s %8s %8s %8s %8s\n", "", "Average", "STD", "90%",
              "95%", "99%");
  Report("Baseline", baseline);
  Report("APTrace", aptrace);
  std::printf(
      "\n(Average/STD over all updates pooled; percentiles over the "
      "per-case worst waits.)\n");
  std::printf("paper reports: Baseline 7 / 210 / 58 / 613 / 1149,"
              " APTrace 2 / 20 / 4 / 9 / 19\n");
  const auto& bm = baseline.per_case_max;
  const auto& am = aptrace.per_case_max;
  if (am.Percentile(90) > 0 && am.Percentile(99) > 0) {
    std::printf(
        "reduction: p90 %.0fx, p95 %.0fx, p99 %.0fx (paper: 15x, 68x, 57x)\n",
        bm.Percentile(90) / am.Percentile(90),
        bm.Percentile(95) / am.Percentile(95),
        bm.Percentile(99) / am.Percentile(99));
  }
  obs_run.Finish(*store);
  return 0;
}

}  // namespace
}  // namespace aptrace::bench

int main(int argc, char** argv) { return aptrace::bench::Main(argc, argv); }
