// aptrace — command-line front end for the APTrace library.
//
//   aptrace scenarios
//       List the built-in staged attack cases.
//
//   aptrace export --scenario=<name> --out=<trace.tsv> [--script-out=<f>]
//       Stage an attack case and save its audit trace (and the unguided
//       v1 BDL script) to disk.
//         --trace-format=v1|v2  container: v1 text (default) or the v2
//                             binary columnar container; `run`/`shell`/
//                             `detect` auto-detect either on load
//
//   aptrace run --trace=<trace.tsv> --script=<file.bdl> [options]
//       Load a trace, run a BDL script over it, stream graph updates,
//       and write the requested outputs.
//         --baseline          use the execute-to-complete engine
//         --k=N               execution-window count (default 8)
//         --backend=row|columnar
//                             storage backend (default: APTRACE_BACKEND
//                             env var, else row); graph output is
//                             bit-identical across backends — only the
//                             simulated scan cost differs
//         --shards=N          store shard count in [1, 64] (default:
//                             APTRACE_SHARDS env var, else 1); N > 1
//                             partitions the store by (host, time) and
//                             scans scatter-gather — graph output is
//                             bit-identical at any shard count
//         --sim-limit=<dur>   stop after this much simulated time (2h...)
//         --max-updates=N     stop after N updates
//         --dot=<file>        write the graph as Graphviz DOT
//         --json=<file>       write the graph as JSON
//         --metrics-out=<f>   write a metrics snapshot ("-" = stdout,
//                             *.json selects the JSON export)
//         --trace-out=<f>     record spans; write Chrome trace JSON
//         --profile           after the run, print the per-hop /
//                             per-rule query profile table plus one
//                             `profile:` JSON line (the profile observes
//                             the run — graphs are bit-identical with or
//                             without it)
//         --quiet             no per-update lines
//         --lint              lint the script against the loaded trace
//                             before running; errors abort the run
//         --werror            with --lint (implied): treat lint warnings
//                             as errors and refuse to run
//
//   aptrace investigate --scenario=<name>
//       Replay the scripted blue-team refinement loop for a case and
//       report whether the ground-truth chain was recovered.
//
//   aptrace shell --trace=<trace.tsv>
//       Interactive analyst console: start/refine/step/run/path/alerts —
//       the paper's monitor-pause-refine-resume loop at a prompt.
//
//   aptrace fmt --script=<file.bdl>
//       Compile a BDL script and print its canonical formatted form
//       (errors report line/column).
//
//   aptrace detect --trace=<trace.tsv> [--train-days=N]
//       Run the standard anomaly detectors over a trace (the first N
//       days train the baselines; default 60% of the span) and print the
//       alerts — each is a valid starting point for `aptrace run`.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>

#include "bdl/formatter.h"
#include "bdl/lint.h"
#include "core/engine.h"
#include "core/query_profile.h"
#include "detect/detector.h"
#include "graph/json_writer.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "storage/trace_io.h"
#include "tools/aptrace_shell.h"
#include "util/string_util.h"
#include "workload/scenario.h"

namespace aptrace {
namespace {

struct Flags {
  std::string command;
  std::string scenario;
  std::string trace_path;
  std::string script_path;
  std::string out_path;
  std::string script_out_path;
  std::string dot_path;
  std::string json_path;
  std::string metrics_out;
  std::string trace_out;
  std::string sim_limit;
  size_t max_updates = 0;
  int k = 8;
  int train_days = -1;
  StorageBackendKind backend = DefaultStorageBackendKind();
  size_t shards = DefaultShardCount();
  TraceFormat trace_format = TraceFormat::kTextV1;
  bool baseline = false;
  bool quiet = false;
  bool lint = false;
  bool werror = false;
  bool profile = false;
};

bool TakeValue(const char* arg, const char* name, std::string* out) {
  const size_t n = std::strlen(name);
  if (std::strncmp(arg, name, n) == 0 && arg[n] == '=') {
    *out = arg + n + 1;
    return true;
  }
  return false;
}

/// Validates a `--backend` value against the storage layer's registry.
bool ParseBackend(const std::string& value, StorageBackendKind* out) {
  const auto parsed = ParseStorageBackendKind(value);
  if (!parsed.has_value()) {
    std::fprintf(stderr,
                 "--backend: error[CLI-E002]: expected 'row' or 'columnar', "
                 "got '%s'\n",
                 value.c_str());
    return false;
  }
  *out = *parsed;
  return true;
}

/// Validates a `--shards` value: an integer shard count in [1, 64]
/// (docs/sharding.md). Zero is rejected — a store needs at least one
/// shard — as is anything beyond the routing mask's 64-bit width.
bool ParseShards(const std::string& value, size_t* out) {
  char* end = nullptr;
  const long n = std::strtol(value.c_str(), &end, 10);
  if (value.empty() || *end != '\0' || n < 1 ||
      n > static_cast<long>(kMaxStoreShards)) {
    std::fprintf(stderr,
                 "--shards: error[CLI-E005]: expected a shard count in "
                 "[1, 64], got '%s'\n",
                 value.c_str());
    return false;
  }
  *out = static_cast<size_t>(n);
  return true;
}

/// Validates a `--trace-format` value for `export`.
bool ParseTraceFormat(const std::string& value, TraceFormat* out) {
  if (value == "v1") {
    *out = TraceFormat::kTextV1;
    return true;
  }
  if (value == "v2") {
    *out = TraceFormat::kBinaryV2;
    return true;
  }
  std::fprintf(stderr,
               "--trace-format: error[CLI-E003]: expected 'v1' or 'v2', "
               "got '%s'\n",
               value.c_str());
  return false;
}

/// Store options shared by every command that loads a trace.
EventStoreOptions StoreOptions(const Flags& flags) {
  EventStoreOptions options;
  options.backend = flags.backend;
  options.shards = flags.shards;
  return options;
}

int Usage() {
  std::fprintf(
      stderr,
      "usage: aptrace <scenarios|export|run|investigate|detect|fmt|shell> [flags]\n"
      "  see the header comment of tools/aptrace_cli.cc or README.md\n");
  return 2;
}

Flags ParseFlags(int argc, char** argv) {
  Flags f;
  if (argc >= 2) f.command = argv[1];
  std::string v;
  for (int i = 2; i < argc; ++i) {
    const char* a = argv[i];
    if (TakeValue(a, "--scenario", &f.scenario) ||
        TakeValue(a, "--trace", &f.trace_path) ||
        TakeValue(a, "--script", &f.script_path) ||
        TakeValue(a, "--out", &f.out_path) ||
        TakeValue(a, "--script-out", &f.script_out_path) ||
        TakeValue(a, "--dot", &f.dot_path) ||
        TakeValue(a, "--json", &f.json_path) ||
        TakeValue(a, "--metrics-out", &f.metrics_out) ||
        TakeValue(a, "--trace-out", &f.trace_out) ||
        TakeValue(a, "--sim-limit", &f.sim_limit)) {
      continue;
    }
    if (TakeValue(a, "--max-updates", &v)) {
      f.max_updates = static_cast<size_t>(std::atoll(v.c_str()));
    } else if (TakeValue(a, "--train-days", &v)) {
      f.train_days = std::atoi(v.c_str());
    } else if (TakeValue(a, "--k", &v)) {
      f.k = std::atoi(v.c_str());
    } else if (TakeValue(a, "--backend", &v)) {
      if (!ParseBackend(v, &f.backend)) f.command.clear();
    } else if (TakeValue(a, "--shards", &v)) {
      if (!ParseShards(v, &f.shards)) f.command.clear();
    } else if (TakeValue(a, "--trace-format", &v)) {
      if (!ParseTraceFormat(v, &f.trace_format)) f.command.clear();
    } else if (std::strcmp(a, "--baseline") == 0) {
      f.baseline = true;
    } else if (std::strcmp(a, "--quiet") == 0) {
      f.quiet = true;
    } else if (std::strcmp(a, "--lint") == 0) {
      f.lint = true;
    } else if (std::strcmp(a, "--werror") == 0) {
      f.lint = true;
      f.werror = true;
    } else if (std::strcmp(a, "--profile") == 0) {
      f.profile = true;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", a);
      f.command.clear();
    }
  }
  return f;
}

int CmdScenarios() {
  std::printf("%-18s %s\n", "name", "description");
  for (const std::string& name : workload::AttackCaseNames()) {
    auto built = workload::BuildAttackCase(name, workload::TraceConfig::Small());
    if (!built.ok()) continue;
    std::printf("%-18s %s\n", name.c_str(),
                built->scenario.description.c_str());
  }
  return 0;
}

int CmdExport(const Flags& flags) {
  if (flags.scenario.empty() || flags.out_path.empty()) return Usage();
  workload::TraceConfig config;
  config.backend = flags.backend;
  auto built = workload::BuildAttackCase(flags.scenario, config);
  if (!built.ok()) {
    std::fprintf(stderr, "%s\n", built.status().ToString().c_str());
    return 1;
  }
  if (auto s =
          SaveTraceFile(*built->store, flags.out_path, flags.trace_format);
      !s.ok()) {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
    return 1;
  }
  std::printf("wrote %zu events / %zu objects to %s\n",
              built->store->NumEvents(), built->store->catalog().size(),
              flags.out_path.c_str());
  const std::string script_path =
      flags.script_out_path.empty() ? flags.out_path + ".bdl"
                                    : flags.script_out_path;
  std::ofstream sf(script_path);
  if (sf) {
    sf << built->scenario.bdl_scripts[0];
    std::printf("wrote the unguided v1 script to %s\n", script_path.c_str());
  }
  std::printf("alert event id %llu at %s; %zu refinement scripts staged\n",
              static_cast<unsigned long long>(built->scenario.alert_event),
              FormatBdlTime(built->scenario.alert.timestamp).c_str(),
              built->scenario.bdl_scripts.size());
  return 0;
}

int CmdRun(const Flags& flags) {
  if (flags.trace_path.empty() || flags.script_path.empty()) return Usage();

  // Enable span recording before the store loads so Seal and the scans
  // all land in the dump.
  if (!flags.trace_out.empty()) obs::Tracer::Global().SetEnabled(true);
  auto store = LoadTraceFile(flags.trace_path, StoreOptions(flags));
  if (!store.ok()) {
    std::fprintf(stderr, "%s\n", store.status().ToString().c_str());
    return 1;
  }
  std::ifstream sf(flags.script_path);
  if (!sf) {
    std::fprintf(stderr, "cannot open script: %s\n",
                 flags.script_path.c_str());
    return 1;
  }
  std::stringstream script;
  script << sf.rdbuf();

  if (flags.lint) {
    bdl::LintOptions lint_options;
    lint_options.store = store.value().get();
    const bdl::LintReport report = bdl::LintBdl(script.str(), lint_options);
    if (!report.diagnostics.empty()) {
      std::fputs(bdl::RenderHuman(script.str(), flags.script_path,
                                  report.diagnostics)
                     .c_str(),
                 stderr);
    }
    if (!report.ok() || (flags.werror && report.num_warnings > 0)) {
      std::fprintf(stderr,
                   "lint: %zu error(s), %zu warning(s)%s — not running\n",
                   report.num_errors, report.num_warnings,
                   flags.werror && report.ok() ? " (warnings are errors)"
                                               : "");
      return 1;
    }
  }

  SimClock clock;
  SessionOptions options;
  options.use_baseline = flags.baseline;
  options.num_windows_k = flags.k;
  Session session(store.value().get(), &clock, options);
  if (auto s = session.Start(script.str()); !s.ok()) {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
    return 1;
  }
  std::printf("start point: event %llu, node %s\n",
              static_cast<unsigned long long>(
                  session.context().start_event.id),
              store.value()
                  ->catalog()
                  .Get(session.context().start_node)
                  .Label()
                  .c_str());

  RunLimits limits;
  limits.max_updates = flags.max_updates;
  if (!flags.sim_limit.empty()) {
    auto d = ParseBdlDuration(flags.sim_limit);
    if (!d.ok()) {
      std::fprintf(stderr, "%s\n", d.status().ToString().c_str());
      return 1;
    }
    limits.sim_time = d.value();
  }
  if (!flags.quiet) {
    limits.on_update = [&](const UpdateBatch& b) {
      std::printf("[%8s] +%zu edges (%zu new nodes) -> %zu edges / %zu "
                  "nodes\n",
                  FormatDuration(b.sim_time - session.stats().run_start)
                      .c_str(),
                  b.new_edges, b.new_nodes, b.total_edges, b.total_nodes);
    };
  }

  auto reason = session.Step(limits);
  if (!reason.ok()) {
    std::fprintf(stderr, "%s\n", reason.status().ToString().c_str());
    return 1;
  }
  if (auto s = session.Finish(); !s.ok()) {
    std::fprintf(stderr, "finish: %s\n", s.ToString().c_str());
  }
  std::printf(
      "\n%s after %s simulated: %zu edges / %zu nodes, %zu updates, "
      "max hop %d\n",
      StopReasonName(reason.value()),
      FormatDuration(clock.NowMicros() - session.stats().run_start).c_str(),
      session.graph().NumEdges(), session.graph().NumNodes(),
      session.update_log().size(), session.graph().MaxHop());

  if (flags.profile) {
    if (const QueryProfile* profile = session.profile();
        profile != nullptr) {
      std::fputs(
          RenderQueryProfileTable(
              *profile,
              store.value()->backend().capabilities().probe_unit)
              .c_str(),
          stdout);
      std::printf("profile: %s\n", QueryProfileToJson(*profile).c_str());
    } else {
      std::fprintf(stderr,
                   "--profile: warning[CLI-W002]: the baseline engine "
                   "keeps no query profile\n");
    }
  }

  if (!flags.dot_path.empty()) {
    DotOptions dot_options;
    dot_options.alert_event = session.context().start_event.id;
    if (auto s = WriteDotFile(session.graph(), store.value()->catalog(),
                              flags.dot_path, dot_options);
        s.ok()) {
      std::printf("DOT written to %s\n", flags.dot_path.c_str());
    }
  }
  if (!flags.json_path.empty()) {
    if (auto s = WriteGraphJsonFile(session.graph(),
                                    store.value()->catalog(),
                                    flags.json_path);
        s.ok()) {
      std::printf("JSON written to %s\n", flags.json_path.c_str());
    }
  }
  if (!flags.metrics_out.empty()) {
    if (auto s = obs::WriteMetricsFile(obs::Metrics(), flags.metrics_out);
        !s.ok()) {
      std::fprintf(stderr, "metrics: %s\n", s.ToString().c_str());
    } else if (flags.metrics_out != "-") {
      std::printf("metrics written to %s\n", flags.metrics_out.c_str());
    }
  }
  if (!flags.trace_out.empty()) {
    if (auto s = obs::Tracer::Global().WriteChromeTrace(flags.trace_out);
        !s.ok()) {
      std::fprintf(stderr, "trace: %s\n", s.ToString().c_str());
    } else if (flags.trace_out != "-") {
      std::printf("trace written to %s (load in ui.perfetto.dev)\n",
                  flags.trace_out.c_str());
    }
  }
  return 0;
}

int CmdInvestigate(const Flags& flags) {
  if (flags.scenario.empty()) return Usage();
  workload::TraceConfig investigate_config;
  investigate_config.backend = flags.backend;
  auto built = workload::BuildAttackCase(flags.scenario, investigate_config);
  if (!built.ok()) {
    std::fprintf(stderr, "%s\n", built.status().ToString().c_str());
    return 1;
  }
  const workload::AttackScenario& scenario = built->scenario;
  std::printf("%s — %s\n\n", scenario.title.c_str(),
              scenario.description.c_str());

  SimClock clock;
  SessionOptions options;
  options.num_windows_k = flags.k;
  Session session(built->store.get(), &clock, options);
  const auto found = [&] {
    return workload::ChainRecovered(session.graph(), scenario);
  };

  if (auto s = session.Start(scenario.bdl_scripts[0]); !s.ok()) {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
    return 1;
  }
  RunLimits peek;
  peek.max_updates = 5;
  peek.sim_time = 3 * kMicrosPerMinute;
  peek.should_stop = found;
  (void)session.Step(peek);
  std::printf("v1: %zu events after the first look (%s)\n",
              session.graph().NumEdges(),
              FormatDuration(clock.NowMicros()).c_str());

  for (size_t v = 1; v < scenario.bdl_scripts.size() && !found(); ++v) {
    (void)session.UpdateScript(scenario.bdl_scripts[v]);
    RunLimits limits;
    limits.should_stop = found;
    if (v + 1 < scenario.bdl_scripts.size()) {
      limits.max_updates = 10;
      limits.sim_time = 2 * kMicrosPerMinute;
    }
    (void)session.Step(limits);
    std::printf("v%zu: refiner=%s, %zu events (%s)\n", v + 1,
                RefineActionName(session.last_refine_action()),
                session.graph().NumEdges(),
                FormatDuration(clock.NowMicros()).c_str());
  }

  std::printf("\nchain recovered: %s; events checked: %zu\n",
              found() ? "yes" : "NO", session.graph().NumEdges());
  for (ObjectId id : scenario.ground_truth) {
    std::printf("  %-55s %s\n",
                built->store->catalog().Get(id).Label().c_str(),
                session.graph().HasNode(id) ? "found" : "missing");
  }
  return found() ? 0 : 1;
}

int CmdFmt(const Flags& flags) {
  if (flags.script_path.empty()) return Usage();
  std::ifstream sf(flags.script_path);
  if (!sf) {
    std::fprintf(stderr, "cannot open script: %s\n",
                 flags.script_path.c_str());
    return 1;
  }
  std::stringstream text;
  text << sf.rdbuf();
  auto spec = bdl::CompileBdl(text.str());
  if (!spec.ok()) {
    std::fprintf(stderr, "%s\n", spec.status().ToString().c_str());
    return 1;
  }
  std::fputs(bdl::FormatSpec(spec.value()).c_str(), stdout);
  return 0;
}

int CmdDetect(const Flags& flags) {
  if (flags.trace_path.empty()) return Usage();
  auto store = LoadTraceFile(flags.trace_path, StoreOptions(flags));
  if (!store.ok()) {
    std::fprintf(stderr, "%s\n", store.status().ToString().c_str());
    return 1;
  }
  const TimeMicros span =
      (*store)->MaxTime() - (*store)->MinTime();
  const TimeMicros train_until =
      flags.train_days >= 0
          ? (*store)->MinTime() + flags.train_days * kMicrosPerDay
          : (*store)->MinTime() + span * 6 / 10;
  std::printf("training on events before %s\n",
              FormatBdlTime(train_until).c_str());

  auto pipeline = detect::DetectorPipeline::Standard();
  const auto alerts = pipeline.Run(**store, train_until);
  std::printf("%zu alerts\n", alerts.size());
  for (const auto& a : alerts) {
    const Event& e = (*store)->Get(a.event);
    std::printf("[%.1f] %-20s event %-8llu %s  %s\n", a.severity,
                a.rule.c_str(), static_cast<unsigned long long>(a.event),
                FormatBdlTime(e.timestamp).c_str(), a.message.c_str());
  }
  return 0;
}

int CmdShell(const Flags& flags) {
  if (flags.trace_path.empty()) return Usage();
  auto store = LoadTraceFile(flags.trace_path, StoreOptions(flags));
  if (!store.ok()) {
    std::fprintf(stderr, "%s\n", store.status().ToString().c_str());
    return 1;
  }
  return tools::RunShell(store.value().get(), std::cin, std::cout);
}

int Main(int argc, char** argv) {
  const Flags flags = ParseFlags(argc, argv);
  if (flags.command == "scenarios") return CmdScenarios();
  if (flags.command == "detect") return CmdDetect(flags);
  if (flags.command == "fmt") return CmdFmt(flags);
  if (flags.command == "shell") return CmdShell(flags);
  if (flags.command == "export") return CmdExport(flags);
  if (flags.command == "run") return CmdRun(flags);
  if (flags.command == "investigate") return CmdInvestigate(flags);
  return Usage();
}

}  // namespace
}  // namespace aptrace

int main(int argc, char** argv) { return aptrace::Main(argc, argv); }
