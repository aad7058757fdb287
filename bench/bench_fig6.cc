// Reproduces Figure 6 of the paper: average CPU and memory utilization of
// the APTrace server over the first ~30 minutes of responsive
// backtracking analysis. The shape to reproduce: memory peaks early
// (~15%: database init, BDL compilation, heuristics loading) and settles
// near 3%, while CPU ramps from ~3% toward ~11% as the search frontier
// widens. Utilization comes from the analytic resource model fed by live
// engine counters (see DESIGN.md's substitution table).

#include <array>

#include "bench/bench_common.h"
#include "util/stats.h"

namespace aptrace::bench {
namespace {

constexpr int kMinutes = 30;

int Main(int argc, char** argv) {
  BenchArgs args = BenchArgs::Parse(argc, argv);
  ObsRun obs_run(args, "bench_fig6");
  // Resource curves stabilize with fewer cases; keep the default modest.
  if (args.num_cases == 200) args.num_cases = 50;
  auto store = workload::BuildEnterpriseTrace(args.ToConfig());
  PrintHeader("Figure 6: CPU and memory usage of APTrace (simulated, %)",
              args, store->NumEvents());

  const auto alerts =
      workload::SampleAnomalyEvents(*store, args.num_cases, args.seed);
  const ResourceModel model;

  std::array<SampleStats, kMinutes> cpu;
  std::array<SampleStats, kMinutes> mem;
  for (const Event& alert : alerts) {
    SimClock clock;
    SessionOptions options;
    options.num_windows_k = args.windows_k;
    Session session(store.get(), &clock, options);
    const bdl::TrackingSpec spec = workload::GenericSpecFor(*store, alert);
    if (!session.StartWithSpec(spec, alert).ok()) continue;

    store->ResetStats();
    int next_minute = 1;
    ResourceInputs inputs;
    RunLimits limits;
    limits.sim_time = kMinutes * kMicrosPerMinute;
    limits.on_update = [&](const UpdateBatch& b) {
      const TimeMicros elapsed = clock.NowMicros();
      while (next_minute <= kMinutes &&
             elapsed > next_minute * kMicrosPerMinute) {
        inputs.elapsed = next_minute * kMicrosPerMinute;
        const ResourceSample s = model.Sample(inputs);
        cpu[next_minute - 1].Add(s.cpu_pct);
        mem[next_minute - 1].Add(s.mem_pct);
        next_minute++;
      }
      inputs.graph_nodes = b.total_nodes;
      inputs.graph_edges = b.total_edges;
      inputs.rows_matched = store->stats().rows_matched;
    };
    (void)session.Step(limits);
    // Runs that completed early hold their final state for the remaining
    // minutes.
    for (int m = next_minute; m <= kMinutes; ++m) {
      inputs.elapsed = m * kMicrosPerMinute;
      const ResourceSample s = model.Sample(inputs);
      cpu[m - 1].Add(s.cpu_pct);
      mem[m - 1].Add(s.mem_pct);
    }
  }

  std::printf("%7s %10s %10s\n", "minute", "cpu_pct", "mem_pct");
  for (int m = 0; m < kMinutes; ++m) {
    std::printf("%7d %10.2f %10.2f\n", m + 1, cpu[m].Mean(), mem[m].Mean());
  }
  std::printf(
      "\nshape to check: memory starts high (paper peak ~15%%) and decays "
      "to a low plateau (~3%%);\nCPU ramps from ~3%% toward ~11%% over the "
      "run.\n");
  obs_run.Finish(*store);
  return 0;
}

}  // namespace
}  // namespace aptrace::bench

int main(int argc, char** argv) { return aptrace::bench::Main(argc, argv); }
