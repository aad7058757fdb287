// Reproduces Table I of the paper: the five staged attack cases, with the
// size of the dependency graph without heuristics (No Opt), the number of
// events checked with the BDL refinement sequence applied (Opt), the
// number of heuristics, and the total (simulated) analysis time.
//
// The Opt column drives the exact blue-team workflow of Section IV-D:
// start the unguided script, watch the first updates, pause, add each
// heuristic through the Refiner, resume, and stop as soon as the whole
// ground-truth chain is visible in the graph.

#include "bench/bench_common.h"
#include "util/string_util.h"

namespace aptrace::bench {
namespace {

struct CaseRow {
  std::string title;
  size_t no_opt = 0;
  bool no_opt_capped = false;
  size_t opt = 0;
  size_t heuristics = 0;
  DurationMicros time = 0;
  bool recovered = false;
};

CaseRow RunAttackCase(const std::string& name, const BenchArgs& args) {
  workload::TraceConfig config = args.ToConfig();
  auto built = workload::BuildAttackCase(name, config);
  CaseRow row;
  if (!built.ok()) {
    std::fprintf(stderr, "build failed: %s\n",
                 built.status().ToString().c_str());
    return row;
  }
  const workload::AttackScenario& scenario = built->scenario;
  const EventStore& store = *built->store;
  row.title = scenario.title;
  row.heuristics = scenario.num_heuristics;

  // ---- No Opt: unguided backtracking, capped at 4 simulated hours (the
  // paper terminated every unguided run past the four-hour mark).
  {
    SimClock clock;
    Session session(&store, &clock);
    if (session.Start(scenario.bdl_scripts[0]).ok()) {
      RunLimits limits;
      limits.sim_time = 4 * kMicrosPerHour;
      auto reason = session.Step(limits);
      row.no_opt = session.graph().NumEdges();
      row.no_opt_capped =
          reason.ok() && reason.value() == StopReason::kExternalLimit;
    }
  }

  // ---- Opt: the interactive refinement loop.
  {
    SimClock clock;
    SessionOptions options;
    options.num_windows_k = args.windows_k;
    Session session(&store, &clock, options);
    if (!session.Start(scenario.bdl_scripts[0]).ok()) return row;
    const auto found = [&] {
      return workload::ChainRecovered(session.graph(), scenario);
    };
    RunLimits peek;
    peek.max_updates = 5;
    peek.sim_time = 3 * kMicrosPerMinute;  // "after viewing two events in
                                           // less than three minutes"
    peek.should_stop = found;
    (void)session.Step(peek);
    for (size_t v = 1; v < scenario.bdl_scripts.size() && !found(); ++v) {
      if (!session.UpdateScript(scenario.bdl_scripts[v]).ok()) break;
      RunLimits limits;
      limits.should_stop = found;
      if (v + 1 < scenario.bdl_scripts.size()) {
        // Between refinements the analyst watches only a couple of
        // minutes of updates before estimating the next heuristic
        // (Section IV-D: "after viewing eight more events in two
        // minutes...").
        limits.max_updates = 10;
        limits.sim_time = 2 * kMicrosPerMinute;
      }
      (void)session.Step(limits);
    }
    row.recovered = found();
    row.opt = session.graph().NumEdges();
    row.time = clock.NowMicros() - session.stats().run_start;
  }
  return row;
}

int Main(int argc, char** argv) {
  const BenchArgs args = BenchArgs::Parse(argc, argv);
  ObsRun obs_run(args, "bench_table1");
  std::printf(
      "==============================================================\n"
      "Table I: the five attack cases (sizes in events; time simulated)\n"
      "==============================================================\n");
  std::printf("%-22s %10s %7s %12s %10s %10s\n", "Attack", "No Opt", "Opt",
              "# Heuristics", "Time", "Recovered");

  struct PaperRow {
    const char* no_opt;
    const char* opt;
    const char* h;
    const char* t;
  };
  const std::vector<PaperRow> paper = {{"30.75K", "140", "2", "10m"},
                                       {"5.34K", "45", "3", "10m"},
                                       {"32.25K", "154", "2", "5m"},
                                       {"43.64K", "152", "3", "9m"},
                                       {"121.26K", "75", "2", "10m"}};
  const auto names = workload::AttackCaseNames();
  for (size_t i = 0; i < names.size(); ++i) {
    const CaseRow row = RunAttackCase(names[i], args);
    std::string no_opt = std::to_string(row.no_opt);
    if (row.no_opt_capped) no_opt += "+";  // still growing at the 4h cap
    std::printf("%-22s %10s %7zu %12zu %10s %10s\n", row.title.c_str(),
                no_opt.c_str(), row.opt, row.heuristics,
                FormatDuration(row.time).c_str(),
                row.recovered ? "yes" : "NO");
    std::printf("%-22s %10s %7s %12s %10s   (paper)\n", "", paper[i].no_opt,
                paper[i].opt, paper[i].h, paper[i].t);
  }
  std::printf(
      "\n'+' marks runs still exploring when the 4h no-heuristics cap "
      "fired.\nShapes to check: Opt is orders of magnitude below No Opt; "
      "2-3 heuristics per case;\nanalysis finishes within the scripts' "
      "10-minute budget with the chain recovered.\n");
  obs_run.Finish();
  return 0;
}

}  // namespace
}  // namespace aptrace::bench

int main(int argc, char** argv) { return aptrace::bench::Main(argc, argv); }
