#include "tools/aptrace_shell.h"

#include <fstream>
#include <istream>
#include <ostream>
#include <sstream>
#include <string>
#include <vector>

#include "bdl/formatter.h"
#include "bdl/lint.h"
#include "core/engine.h"
#include "detect/detector.h"
#include "graph/json_writer.h"
#include "graph/path.h"
#include "graph/summarize.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/string_util.h"

namespace aptrace::tools {

namespace {

constexpr char kHelp[] =
    "commands:\n"
    "  start <file.bdl>     begin an analysis from a script file\n"
    "  refine <file.bdl>    pause + update the script (Refiner reuses the "
    "graph)\n"
    "  from <event-id>      unconstrained backtrack from an event\n"
    "  step [n]             process until n more updates arrive (default "
    "1)\n"
    "  run [duration]       run until done or simulated duration elapses\n"
    "  status               graph size, pending queue, elapsed\n"
    "  alerts [train-days]  run the anomaly detectors over the trace\n"
    "  path <object-id>     causal chain from the start to the object\n"
    "  dot <file> | json <file> | summary <file>   export the graph\n"
    "  save <file> | load <file>  checkpoint / resume the investigation\n"
    "  lint <file.bdl>      check a script against this trace without "
    "running it\n"
    "  fmt                  print the current script, formatted\n"
    "  stats                print the process metrics (Prometheus text)\n"
    "  trace-dump <file>    write recorded spans as Chrome trace JSON\n"
    "  help | quit\n";

struct ShellState {
  EventStore* store = nullptr;
  SimClock clock;
  std::unique_ptr<Session> session;
  bool session_started = false;

  Session* NewSession() {
    session = std::make_unique<Session>(store, &clock);
    session_started = false;
    return session.get();
  }
};

std::string ReadFileOr(const std::string& path, std::ostream& out) {
  std::ifstream f(path);
  if (!f) {
    out << "error: cannot open " << path << "\n";
    return {};
  }
  std::stringstream ss;
  ss << f.rdbuf();
  return ss.str();
}

void PrintStatus(ShellState& st, std::ostream& out) {
  if (!st.session_started) {
    out << "no analysis running; use `start`, `from`, or `alerts`\n";
    return;
  }
  // One consistent Snapshot() read instead of piecemeal accessor calls:
  // every figure below comes from the same instant, so a status printed
  // while a Step is advancing elsewhere (the daemon reuses this path)
  // can never pair a fresh edge count with a stale update count.
  const SessionSnapshot snap = st.session->Snapshot();
  out << "graph: " << snap.graph_edges << " events / " << snap.graph_nodes
      << " nodes, max hop " << snap.max_hop << "\n";
  out << "updates: " << snap.update_batches << ", elapsed "
      << FormatDuration(snap.sim_now - snap.run_start) << " (simulated), "
      << (snap.exhausted ? "done" : "paused") << "\n";
  out << "direction: " << bdl::TrackDirectionName(snap.direction)
      << ", start node " << st.store->catalog().Get(snap.start_node).Label()
      << "\n";
  if (st.store->shard_count() > 1) {
    out << "store shards: " << st.store->shard_count()
        << " (scatter-gather scans; see docs/sharding.md)\n";
  }
}

void Step(ShellState& st, std::ostream& out, const RunLimits& limits) {
  auto reason = st.session->Step(limits);
  if (!reason.ok()) {
    out << "error: " << reason.status() << "\n";
    return;
  }
  out << StopReasonName(reason.value()) << "; ";
  PrintStatus(st, out);
}

}  // namespace

int RunShell(EventStore* store, std::istream& in, std::ostream& out) {
  ShellState st;
  st.store = store;
  // Interactive sessions record spans so `trace-dump` always has data;
  // the per-command cost is noise at analyst speed.
  obs::Tracer::Global().SetEnabled(true);
  out << "aptrace shell — " << store->NumEvents() << " events, "
      << store->catalog().NumHosts() << " hosts. Type `help`.\n";

  std::string line;
  while ((out << "aptrace> " << std::flush, std::getline(in, line))) {
    const std::string trimmed(Trim(line));
    if (trimmed.empty()) continue;
    std::istringstream args(trimmed);
    std::string cmd;
    args >> cmd;
    cmd = ToLower(cmd);

    if (cmd == "quit" || cmd == "exit") break;
    if (cmd == "help") {
      out << kHelp;
      continue;
    }
    if (cmd == "stats") {
      out << obs::Metrics().ExportPrometheus();
      continue;
    }
    if (cmd == "trace-dump") {
      std::string path;
      args >> path;
      if (path.empty()) {
        out << "error: need an output path\n";
        continue;
      }
      const Status s = obs::Tracer::Global().WriteChromeTrace(path);
      out << (s.ok() ? "trace written to " + path +
                           " (load in ui.perfetto.dev)"
                     : "error: " + s.ToString())
          << "\n";
      continue;
    }
    if (cmd == "load") {
      std::string path;
      args >> path;
      const Status s = st.NewSession()->LoadCheckpoint(path);
      st.session_started = s.ok();
      if (s.ok()) {
        out << "resumed from " << path << "\n";
        PrintStatus(st, out);
      } else {
        out << "error: " << s << "\n";
      }
      continue;
    }
    if (cmd == "lint") {
      std::string path;
      args >> path;
      const std::string text = ReadFileOr(path, out);
      if (text.empty()) continue;
      bdl::LintOptions options;
      options.store = st.store;
      const bdl::LintReport report = bdl::LintBdl(text, options);
      out << bdl::RenderHuman(text, path, report.diagnostics);
      out << report.num_errors << " error(s), " << report.num_warnings
          << " warning(s)"
          << (report.ok() ? "; the script compiles" : "") << "\n";
      continue;
    }
    if (cmd == "start" || cmd == "refine") {
      std::string path;
      args >> path;
      const std::string text = ReadFileOr(path, out);
      if (text.empty()) continue;
      Status s;
      if (cmd == "start" || !st.session_started) {
        s = st.NewSession()->Start(text);
        st.session_started = s.ok();
      } else {
        s = st.session->UpdateScript(text);
        if (s.ok()) {
          out << "refiner: "
              << RefineActionName(st.session->last_refine_action()) << "\n";
        }
      }
      if (!s.ok()) out << "error: " << s << "\n";
      continue;
    }
    if (cmd == "from") {
      unsigned long long id = 0;
      if (!(args >> id) || id >= store->NumEvents()) {
        out << "error: need a valid event id (< " << store->NumEvents()
            << ")\n";
        continue;
      }
      const Event alert = store->Get(id);
      const ObjectType type = store->catalog().Get(alert.FlowDest()).type();
      const std::string script =
          std::string("backward ") + ObjectTypeName(type) + " x[] -> *";
      const Status s = st.NewSession()->Start(script, alert);
      st.session_started = s.ok();
      if (!s.ok()) {
        out << "error: " << s << "\n";
      } else {
        out << "tracking backward from event " << id << "\n";
      }
      continue;
    }
    if (!st.session_started &&
        (cmd == "step" || cmd == "run" || cmd == "status" || cmd == "path" ||
         cmd == "dot" || cmd == "json" || cmd == "fmt" || cmd == "save" ||
         cmd == "summary")) {
      out << "no analysis running; use `start`, `from`, or `alerts`\n";
      continue;
    }
    if (cmd == "step") {
      size_t n = 1;
      args >> n;
      RunLimits limits;
      limits.max_updates = n == 0 ? 1 : n;
      Step(st, out, limits);
      continue;
    }
    if (cmd == "run") {
      std::string dur;
      args >> dur;
      RunLimits limits;
      if (!dur.empty()) {
        auto d = ParseBdlDuration(dur);
        if (!d.ok()) {
          out << "error: " << d.status() << "\n";
          continue;
        }
        limits.sim_time = d.value();
      }
      Step(st, out, limits);
      continue;
    }
    if (cmd == "status") {
      PrintStatus(st, out);
      continue;
    }
    if (cmd == "alerts") {
      int train_days = -1;
      args >> train_days;
      const TimeMicros span = store->MaxTime() - store->MinTime();
      const TimeMicros train_until =
          train_days >= 0 ? store->MinTime() + train_days * kMicrosPerDay
                          : store->MinTime() + span * 6 / 10;
      auto pipeline = detect::DetectorPipeline::Standard();
      const auto alerts = pipeline.Run(*store, train_until);
      out << alerts.size() << " alerts (training before "
          << FormatBdlTime(train_until) << "); `from <event-id>` to "
          << "backtrack one\n";
      for (const auto& a : alerts) {
        out << "  event " << a.event << "  [" << a.rule << "] " << a.message
            << "\n";
      }
      continue;
    }
    if (cmd == "path") {
      unsigned long long id = 0;
      if (!(args >> id)) {
        out << "error: need an object id\n";
        continue;
      }
      const bool forward = st.session->context().spec.direction ==
                           bdl::TrackDirection::kForward;
      const CausalPath path =
          FindCausalPath(st.session->graph(), id, forward);
      if (path.empty()) {
        out << "object " << id << " is not in the graph\n";
        continue;
      }
      out << store->catalog().Get(path.origin).Label() << "\n";
      for (const PathStep& step : path.steps) {
        const auto& edge = st.session->graph().GetEdge(step.event);
        out << "  " << (forward ? "->" : "<-") << " ["
            << ActionTypeName(edge.action) << " "
            << FormatBdlTime(edge.timestamp) << "] "
            << store->catalog().Get(step.node).Label() << "\n";
      }
      continue;
    }
    if (cmd == "summary") {
      std::string path;
      args >> path;
      if (path.empty()) {
        out << "error: need an output path\n";
        continue;
      }
      std::ofstream f(path);
      if (!f) {
        out << "error: cannot open " << path << "\n";
        continue;
      }
      SummarizeOptions options;
      options.alert_event = st.session->context().start_event.id;
      const SummaryStats stats = WriteDotSummarized(
          st.session->graph(), store->catalog(), f, options);
      out << "written to " << path << ": " << stats.original_nodes
          << " nodes drawn as " << stats.summary_nodes << " ("
          << stats.groups << " groups hide " << stats.collapsed_nodes
          << " nodes)\n";
      continue;
    }
    if (cmd == "dot" || cmd == "json") {
      std::string path;
      args >> path;
      if (path.empty()) {
        out << "error: need an output path\n";
        continue;
      }
      Status s;
      if (cmd == "dot") {
        DotOptions options;
        options.alert_event = st.session->context().start_event.id;
        s = WriteDotFile(st.session->graph(), store->catalog(), path,
                         options);
      } else {
        s = WriteGraphJsonFile(st.session->graph(), store->catalog(), path);
      }
      out << (s.ok() ? "written to " + path : "error: " + s.ToString())
          << "\n";
      continue;
    }
    if (cmd == "fmt") {
      out << bdl::FormatSpec(st.session->context().spec);
      continue;
    }
    if (cmd == "save") {
      std::string path;
      args >> path;
      const Status s = st.session->SaveCheckpoint(path);
      out << (s.ok() ? "checkpoint written to " + path
                     : "error: " + s.ToString())
          << "\n";
      continue;
    }
    out << "unknown command '" << cmd << "'; type `help`\n";
  }
  return 0;
}

}  // namespace aptrace::tools
