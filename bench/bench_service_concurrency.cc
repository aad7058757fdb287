// Multi-tenant responsiveness of the daemon's fair-share scheduler: one
// large (unconstrained, full-trace) tracking session plus several small
// (hop-limited) ones share a SessionManager, and the report shows how
// quickly each small session saw service — its first update batch or
// completion — relative to the large session's completion.
//
// The fairness claim under test: no small session waits for the large
// closure to finish. The bench exits nonzero if any small session's
// first service arrives after the large session completes, making it a
// CI-runnable fairness gate on top of
// tests/service_test.cc (FairShareServesSmallSessionsUnderALargeOne).
//
//   --small=N         number of small sessions (default 3)
//   --large-budget=N  window budget for the large session (default
//                     20000; 0 = unbounded). An unconstrained backward
//                     closure from a hot file on the full enterprise
//                     trace is exactly the dependency explosion the
//                     paper warns about — bounding it keeps the bench
//                     CI-runnable while still dwarfing the smalls.
//   --json-out=F      machine-readable results
//   --bench-json=F    alias for --json-out following the BENCH_*.json
//                     artifact convention (CI uploads these)

#include <chrono>
#include <cstring>
#include <fstream>
#include <thread>

#include "bench/bench_common.h"
#include "obs/json_dict.h"
#include "service/session_manager.h"

namespace aptrace::bench {
namespace {

struct SessionReport {
  uint64_t id = 0;
  bool small = false;
  uint64_t cursor = 0;           // acks delivered batches (keeps the
                                 // buffer draining so the scheduler
                                 // never parks us on backpressure)
  double first_service_ms = -1;  // wall ms from open to first batch/done
  double done_ms = -1;           // wall ms from open to terminal
  size_t edges = 0;
};

int Main(int argc, char** argv) {
  const BenchArgs args = BenchArgs::Parse(argc, argv);
  int num_small = 3;
  uint64_t large_budget = 20000;
  std::string json_out;
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    if (std::strncmp(a, "--small=", 8) == 0) {
      num_small = std::atoi(a + 8);
    } else if (std::strncmp(a, "--large-budget=", 15) == 0) {
      large_budget = std::strtoull(a + 15, nullptr, 10);
    } else if (std::strncmp(a, "--json-out=", 11) == 0) {
      json_out = a + 11;
    }
  }
  if (json_out.empty()) json_out = args.bench_json;

  workload::TraceConfig config = workload::TraceConfig::Small();
  config.num_hosts = args.num_hosts;
  config.days = args.days;
  config.seed = args.seed;
  config.backend = args.backend;
  auto store = workload::BuildEnterpriseTrace(config);
  const auto alerts =
      workload::SampleAnomalyEvents(*store, 1 + num_small, args.seed);
  if (alerts.size() < static_cast<size_t>(1 + num_small)) {
    std::fprintf(stderr, "not enough anomaly events sampled\n");
    return 2;
  }

  service::ServiceLimits limits;
  limits.max_live_sessions = 1 + num_small;
  service::SessionManager manager(store.get(), limits);

  const auto script_for = [&](const Event& alert, bool small) {
    const ObjectType type = store->catalog().Get(alert.FlowDest()).type();
    std::string script =
        std::string("backward ") + ObjectTypeName(type) + " x[] -> *";
    if (small) script += " where hop <= 1";
    return script;
  };

  const TimeMicros t0 = MonotonicNowMicros();
  std::vector<SessionReport> reports;
  // The large session first, then the smalls arriving behind it — the
  // adversarial order for a FIFO scheduler.
  for (int i = 0; i < 1 + num_small; ++i) {
    const bool small = i > 0;
    service::OpenOptions opts;
    opts.start_event = alerts[i].id;
    if (!small && large_budget > 0) opts.window_budget = large_budget;
    auto id = manager.Open(script_for(alerts[i], small), opts);
    if (!id.ok()) {
      std::fprintf(stderr, "open failed: %s\n",
                   id.status().message().c_str());
      return 2;
    }
    SessionReport r;
    r.id = id.value();
    r.small = small;
    reports.push_back(r);
  }

  // Poll everything until all terminal, recording first-service times.
  const auto ms_since_open = [&] {
    return static_cast<double>(MonotonicNowMicros() - t0) / 1000.0;
  };
  bool all_terminal = false;
  while (!all_terminal) {
    all_terminal = true;
    for (SessionReport& r : reports) {
      if (r.done_ms >= 0) continue;
      auto p = manager.Poll(r.id, r.cursor, 0);
      if (!p.ok()) return 2;
      r.cursor = p->next_cursor;
      if (r.first_service_ms < 0 && (!p->batches.empty() || p->terminal)) {
        r.first_service_ms = ms_since_open();
      }
      if (p->terminal) {
        r.done_ms = ms_since_open();
        r.edges = p->snapshot.graph_edges;
      } else {
        all_terminal = false;
      }
    }
    // Yield between rounds: polling is cheap, the scans are not, and on
    // a small machine a hot poll loop steals cycles from the scheduler.
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  const SessionReport& large = reports.front();
  std::printf("service fairness: 1 large + %d small sessions, "
              "%zu events, backend=%s\n",
              num_small, store->NumEvents(),
              StorageBackendName(args.backend));
  std::printf("%-8s %-6s %18s %14s %10s\n", "session", "kind",
              "first_service_ms", "done_ms", "edges");
  bool fair = true;
  for (const SessionReport& r : reports) {
    std::printf("%-8llu %-6s %18.2f %14.2f %10zu\n",
                static_cast<unsigned long long>(r.id),
                r.small ? "small" : "large", r.first_service_ms, r.done_ms,
                r.edges);
    if (r.small && r.first_service_ms > large.done_ms) fair = false;
  }
  std::printf("large done at %.2f ms; fairness %s\n", large.done_ms,
              fair ? "OK" : "VIOLATED");

  if (!json_out.empty()) {
    obs::JsonDict root;
    root.Add("bench", "service_concurrency");
    root.Add("num_small", static_cast<int64_t>(num_small));
    root.Add("large_done_ms", large.done_ms);
    root.Add("fair", fair);
    std::string sessions;
    for (const SessionReport& r : reports) {
      obs::JsonDict d;
      d.Add("id", r.id);
      d.Add("kind", r.small ? "small" : "large");
      d.Add("first_service_ms", r.first_service_ms);
      d.Add("done_ms", r.done_ms);
      d.Add("edges", static_cast<uint64_t>(r.edges));
      if (!sessions.empty()) sessions += ',';
      sessions += d.Str();
    }
    root.AddRaw("sessions", "[" + sessions + "]");
    std::ofstream out(json_out);
    out << root.Str() << "\n";
  }
  return fair ? 0 : 1;
}

}  // namespace
}  // namespace aptrace::bench

int main(int argc, char** argv) { return aptrace::bench::Main(argc, argv); }
