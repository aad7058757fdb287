#ifndef APTRACE_BENCH_BENCH_COMMON_H_
#define APTRACE_BENCH_BENCH_COMMON_H_

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/engine.h"
#include "obs/metrics.h"
#include "obs/run_metadata.h"
#include "obs/trace.h"
#include "workload/enterprise.h"
#include "workload/scenario.h"

namespace aptrace::bench {

/// Command-line knobs shared by the experiment binaries. All experiments
/// are deterministic for a given seed.
struct BenchArgs {
  size_t num_cases = 200;  // random starting events (paper: 200)
  int num_hosts = 12;      // enterprise fleet size (paper: 256, scaled)
  int days = 30;
  uint64_t seed = 42;
  int windows_k = 8;       // the paper's empirical k
  int threads = 0;         // 0 = hardware concurrency (results identical)
  /// Storage backend (default: APTRACE_BACKEND env var, else row).
  /// Results are identical across backends; only simulated cost differs.
  StorageBackendKind backend = DefaultStorageBackendKind();
  /// Store shard count (default: APTRACE_SHARDS env var, else 1).
  /// Results are identical at any count; only scan fan-out differs.
  size_t shards = DefaultShardCount();
  std::string bench_json;  // machine-readable result file (BENCH_*.json)
  std::string metrics_out;  // "-" = stdout, *.json = JSON export
  std::string trace_out;    // Chrome trace JSON; enables span recording
  std::string meta_out;     // run metadata JSON (default: <metrics>.meta.json)
  std::string invocation;   // argv joined, recorded in the run metadata

  static BenchArgs Parse(int argc, char** argv) {
    return Parse(argc, argv, BenchArgs());
  }

  /// Parses argv over `args`, whose fields are the defaults a flag
  /// overrides.
  static BenchArgs Parse(int argc, char** argv, BenchArgs args) {
    for (int i = 0; i < argc; ++i) {
      if (i) args.invocation += ' ';
      args.invocation += argv[i];
    }
    for (int i = 1; i < argc; ++i) {
      const char* a = argv[i];
      if (std::strncmp(a, "--cases=", 8) == 0) {
        args.num_cases = static_cast<size_t>(std::atoll(a + 8));
      } else if (std::strncmp(a, "--hosts=", 8) == 0) {
        args.num_hosts = std::atoi(a + 8);
      } else if (std::strncmp(a, "--days=", 7) == 0) {
        args.days = std::atoi(a + 7);
      } else if (std::strncmp(a, "--seed=", 7) == 0) {
        args.seed = static_cast<uint64_t>(std::atoll(a + 7));
      } else if (std::strncmp(a, "--k=", 4) == 0) {
        args.windows_k = std::atoi(a + 4);
      } else if (std::strncmp(a, "--threads=", 10) == 0) {
        args.threads = std::atoi(a + 10);
      } else if (std::strncmp(a, "--backend=", 10) == 0) {
        const auto parsed = ParseStorageBackendKind(a + 10);
        if (!parsed.has_value()) {
          std::fprintf(stderr,
                       "--backend: expected 'row' or 'columnar', got '%s'\n",
                       a + 10);
          // Single-threaded flag parsing at process start.
          std::exit(2);  // NOLINT(concurrency-mt-unsafe)
        }
        args.backend = *parsed;
      } else if (std::strncmp(a, "--shards=", 9) == 0) {
        const long n = std::atol(a + 9);
        if (n < 1 || n > static_cast<long>(kMaxStoreShards)) {
          std::fprintf(stderr,
                       "--shards: expected a shard count in [1, %d], "
                       "got '%s'\n",
                       static_cast<int>(kMaxStoreShards), a + 9);
          // Single-threaded flag parsing at process start.
          std::exit(2);  // NOLINT(concurrency-mt-unsafe)
        }
        args.shards = static_cast<size_t>(n);
      } else if (std::strncmp(a, "--bench-json=", 13) == 0) {
        args.bench_json = a + 13;
      } else if (std::strncmp(a, "--metrics-out=", 14) == 0) {
        args.metrics_out = a + 14;
      } else if (std::strncmp(a, "--trace-out=", 12) == 0) {
        args.trace_out = a + 12;
      } else if (std::strncmp(a, "--meta-out=", 11) == 0) {
        args.meta_out = a + 11;
      } else if (std::strcmp(a, "--help") == 0) {
        std::printf(
            "flags: --cases=N --hosts=N --days=N --seed=N --k=N "
            "--threads=N --backend=row|columnar "
            "--shards=N --bench-json=F "
            "--metrics-out=F --trace-out=F --meta-out=F\n");
        // Single-threaded flag parsing at process start.
        std::exit(0);  // NOLINT(concurrency-mt-unsafe)
      }
    }
    return args;
  }

  workload::TraceConfig ToConfig() const {
    workload::TraceConfig config;
    config.num_hosts = num_hosts;
    config.days = days;
    config.seed = seed;
    config.backend = backend;
    config.shards = shards;
    return config;
  }
};

/// Result of one backtracking run over the enterprise trace.
struct CaseRun {
  StopReason reason = StopReason::kCompleted;
  std::vector<double> waits_seconds;  // between consecutive updates
  size_t graph_edges = 0;
  size_t graph_nodes = 0;
  DurationMicros elapsed = 0;  // simulated
  /// Summed simulated scan cost from the responsive engine (0 on the
  /// baseline); deterministic per input.
  DurationMicros scan_cost_total = 0;
};

/// Backtracks from `alert` with either engine, capped at `sim_cap`
/// simulated time (negative = uncapped). `on_update` is optional.
inline CaseRun RunCase(const EventStore& store, const Event& alert,
                       bool use_baseline, int windows_k,
                       DurationMicros sim_cap,
                       const std::function<void(const UpdateBatch&,
                                                Clock&)>& on_update = {}) {
  SimClock clock;
  SessionOptions options;
  options.use_baseline = use_baseline;
  options.num_windows_k = windows_k;
  Session session(&store, &clock, options);

  const bdl::TrackingSpec spec = workload::GenericSpecFor(store, alert);
  CaseRun run;
  if (!session.StartWithSpec(spec, alert).ok()) return run;

  RunLimits limits;
  limits.sim_time = sim_cap;
  if (on_update) {
    limits.on_update = [&](const UpdateBatch& b) { on_update(b, clock); };
  }
  auto reason = session.Step(limits);
  run.reason = reason.ok() ? reason.value() : StopReason::kStopped;
  run.waits_seconds = session.update_log().WaitingTimesSeconds();
  run.graph_edges = session.graph().NumEdges();
  run.graph_nodes = session.graph().NumNodes();
  run.elapsed = clock.NowMicros() - session.stats().run_start;
  if (const auto* executor = dynamic_cast<Executor*>(session.engine())) {
    run.scan_cost_total = executor->scan_cost_total();
  }
  return run;
}

/// Runs fn(i) for every i in [0, n) across worker threads (the store is
/// safe for concurrent read-only sessions). Each i must write only its own
/// pre-sized result slot; aggregation stays serial and deterministic.
inline void ParallelFor(size_t n, int requested_threads,
                        const std::function<void(size_t)>& fn) {
  int threads = requested_threads > 0
                    ? requested_threads
                    : static_cast<int>(std::thread::hardware_concurrency());
  threads = std::max(1, std::min<int>(threads, 32));
  if (threads == 1 || n <= 1) {
    for (size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  std::atomic<size_t> next{0};
  std::vector<std::thread> pool;
  pool.reserve(static_cast<size_t>(threads));
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&] {
      for (;;) {
        const size_t i = next.fetch_add(1);
        if (i >= n) return;
        fn(i);
      }
    });
  }
  for (auto& t : pool) t.join();
}

/// Observability bracket around one experiment binary: construct right
/// after BenchArgs::Parse (enables span recording if --trace-out was
/// given), call Finish once the store exists and the runs are done —
/// it writes the metrics snapshot, the Chrome trace, and a run-metadata
/// JSON next to the metrics file.
class ObsRun {
 public:
  ObsRun(const BenchArgs& args, const char* bench_name)
      : args_(args),
        bench_name_(bench_name),
        wall_start_(MonotonicNowMicros()) {
    if (!args_.trace_out.empty()) obs::Tracer::Global().SetEnabled(true);
  }

  /// For binaries without one shared store (per-scenario traces).
  void Finish() { FinishImpl(0, 0); }

  void Finish(const EventStore& store) {
    FinishImpl(store.NumEvents(), store.catalog().size());
  }

 private:
  void FinishImpl(uint64_t store_events, uint64_t store_objects) {
    if (!args_.metrics_out.empty()) {
      if (auto s = obs::WriteMetricsFile(obs::Metrics(), args_.metrics_out);
          !s.ok()) {
        std::fprintf(stderr, "metrics: %s\n", s.ToString().c_str());
      }
    }
    if (!args_.trace_out.empty()) {
      if (auto s = obs::Tracer::Global().WriteChromeTrace(args_.trace_out);
          !s.ok()) {
        std::fprintf(stderr, "trace: %s\n", s.ToString().c_str());
      }
    }
    std::string meta_path = args_.meta_out;
    if (meta_path.empty() && !args_.metrics_out.empty() &&
        args_.metrics_out != "-") {
      meta_path = args_.metrics_out + ".meta.json";
    }
    if (meta_path.empty()) return;
    obs::RunMetadata meta;
    meta.name = bench_name_;
    meta.invocation = args_.invocation;
    meta.store_events = store_events;
    meta.store_objects = store_objects;
    meta.wall_seconds =
        MicrosToSeconds(MonotonicNowMicros() - wall_start_);
    meta.extra.emplace_back("cases", std::to_string(args_.num_cases));
    meta.extra.emplace_back("hosts", std::to_string(args_.num_hosts));
    meta.extra.emplace_back("days", std::to_string(args_.days));
    meta.extra.emplace_back("seed", std::to_string(args_.seed));
    meta.extra.emplace_back("k", std::to_string(args_.windows_k));
    if (auto s = obs::WriteRunMetadata(meta, obs::Metrics(), meta_path);
        !s.ok()) {
      std::fprintf(stderr, "run metadata: %s\n", s.ToString().c_str());
    }
  }

  const BenchArgs& args_;
  const char* bench_name_;
  TimeMicros wall_start_;
};

inline void PrintHeader(const char* title, const BenchArgs& args,
                        size_t store_events) {
  std::printf("==============================================================\n");
  std::printf("%s\n", title);
  std::printf(
      "trace: %d hosts, %d days, %zu events | cases: %zu | seed: %llu | "
      "k: %d\n",
      args.num_hosts, args.days, store_events, args.num_cases,
      static_cast<unsigned long long>(args.seed), args.windows_k);
  std::printf("==============================================================\n");
}

}  // namespace aptrace::bench

#endif  // APTRACE_BENCH_BENCH_COMMON_H_
