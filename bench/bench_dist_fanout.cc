// Distributed fan-out cost: the same enterprise workload backtracked
// over (a) the in-process sharded store and (b) the distributed shard
// fabric — a fleet of real aptrace_shardd daemons on loopback TCP, one
// per shard, driven through RemoteShardBackend (docs/distribution.md).
//
// The simulated scan cost and every graph must be identical between the
// two configurations — the fabric changes where rows live, never what a
// query returns — so the bench doubles as a process-level determinism
// gate and exits nonzero on any divergence. The interesting number is
// the wall-clock ratio: what RPC fan-out over loopback costs relative
// to an in-process index walk, with the store sending every probed
// shard its request before it reads any reply, so the per-shard round
// trips overlap on the calling thread. The bench also reports
// shard RPCs per processed window (the executor collects windows in
// batches over a fleet, so this sits far below one) and compares the
// wall ratio with the 3x fleet target without gating on it.
//
//   --shardd=PATH     shard daemon binary (default: the build-tree
//                     aptrace_shardd; empty or missing path = SKIP,
//                     exit 0, so the bench degrades gracefully outside
//                     a full build tree)
//   --bench-json=F    machine-readable results
//                     (default BENCH_dist_fanout.json)
//
// Standard knobs (--cases, --hosts, --days, --seed, --backend, --shards)
// apply; here they default to 10 cases over 4 hosts x 4 days (a few
// seconds), and --shards picks the shard/daemon count (default 4).

#include <unistd.h>

#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "dist/fleet.h"
#include "dist/remote_backend.h"
#include "dist/shard_client.h"
#include "obs/json_dict.h"
#include "obs/metrics.h"
#include "obs/names.h"

#ifndef APTRACE_SHARDD_BIN
#define APTRACE_SHARDD_BIN ""
#endif

namespace aptrace::bench {
namespace {

/// The fleet/in-process wall ratio the distributed fabric aims to stay
/// under. Reported, not gated: wall time depends on the host.
constexpr double kOverheadTarget = 3.0;

/// Totals of one configuration's pass over all cases.
struct ConfigResult {
  size_t edges = 0;
  size_t nodes = 0;
  DurationMicros scan_cost = 0;
  double wall_seconds = 0;
  uint64_t windows = 0;  // windows the executors processed
  uint64_t rpcs = 0;     // shard RPCs issued (0 in process)
};

uint64_t CounterValue(const char* name) {
  return obs::Metrics().FindOrCreateCounter(name)->value();
}

ConfigResult RunAll(const EventStore& store,
                    const std::vector<Event>& alerts, const BenchArgs& args) {
  ConfigResult r;
  const uint64_t windows0 =
      CounterValue(obs::names::kExecutorWindowsProcessed);
  const uint64_t rpcs0 = CounterValue(obs::names::kDistRpcs);
  const TimeMicros start = MonotonicNowMicros();
  for (const Event& alert : alerts) {
    const CaseRun run = RunCase(store, alert, /*use_baseline=*/false,
                                args.windows_k, /*sim_cap=*/-1);
    r.edges += run.graph_edges;
    r.nodes += run.graph_nodes;
    r.scan_cost += run.scan_cost_total;
  }
  r.wall_seconds = MicrosToSeconds(MonotonicNowMicros() - start);
  r.windows = CounterValue(obs::names::kExecutorWindowsProcessed) - windows0;
  r.rpcs = CounterValue(obs::names::kDistRpcs) - rpcs0;
  return r;
}

int Main(int argc, char** argv) {
  BenchArgs defaults;
  defaults.num_cases = 10;
  defaults.num_hosts = 4;
  defaults.days = 4;
  BenchArgs args = BenchArgs::Parse(argc, argv, defaults);
  if (args.bench_json.empty()) args.bench_json = "BENCH_dist_fanout.json";
  std::string shardd = APTRACE_SHARDD_BIN;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--shardd=", 9) == 0) shardd = argv[i] + 9;
  }
  if (shardd.empty() || access(shardd.c_str(), X_OK) != 0) {
    std::printf("SKIP: no shard daemon binary (%s); pass --shardd=PATH\n",
                shardd.empty() ? "unset" : shardd.c_str());
    return 0;
  }
  const size_t shards = args.shards > 1 ? args.shards : 4;

  ObsRun obs_run(args, "bench_dist_fanout");

  // Small per-host rates keep the trace CI-sized; the daemons' default
  // layout knobs (partition width, segment rows) already match the
  // coordinator's defaults, so probe structure is identical.
  workload::TraceConfig config = workload::TraceConfig::Small();
  config.num_hosts = args.num_hosts;
  config.days = args.days;
  config.seed = args.seed;
  config.backend = args.backend;
  config.shards = shards;
  auto local = workload::BuildEnterpriseTrace(config);

  dist::FleetOptions fleet_options;
  fleet_options.shardd_bin = shardd;
  fleet_options.shards = shards;
  fleet_options.backend = args.backend;
  auto fleet = dist::ShardFleet::Launch(fleet_options);
  if (!fleet.ok()) {
    std::fprintf(stderr, "fleet launch failed: %s\n",
                 fleet.status().ToString().c_str());
    return 1;
  }
  std::vector<dist::ShardEndpoint> endpoints;
  for (const dist::ShardProcess& p : fleet.value()->shards()) {
    auto ep = dist::ParseShardEndpoint(p.endpoint);
    if (!ep.ok()) {
      std::fprintf(stderr, "bad fleet endpoint '%s': %s\n",
                   p.endpoint.c_str(), ep.status().ToString().c_str());
      return 1;
    }
    endpoints.push_back(std::move(ep).value());
  }

  // Same generator, same seed — but every shard is a daemon.
  config.store_tweak = [&endpoints](EventStoreOptions& options) {
    options.shard_backend_factory =
        [&endpoints](size_t shard, const EventStoreOptions& o)
        -> std::unique_ptr<StorageBackend> {
      dist::ShardClientOptions client_options;
      client_options.deadline_micros = 30'000'000;
      auto client = std::make_shared<dist::ShardClient>(
          endpoints[shard], static_cast<uint32_t>(shard), o.backend,
          client_options);
      return std::make_unique<dist::RemoteShardBackend>(
          std::move(client), o.backend, o.cost_model);
    };
  };
  const TimeMicros ingest_start = MonotonicNowMicros();
  auto remote = workload::BuildEnterpriseTrace(config);
  const double ingest_seconds =
      MicrosToSeconds(MonotonicNowMicros() - ingest_start);

  PrintHeader("Distributed fan-out: in-process shards vs shardd fleet",
              args, local->NumEvents());
  std::printf("fleet: %zu daemon(s), backend %s, ingest %.2f s\n", shards,
              StorageBackendName(args.backend), ingest_seconds);

  const std::vector<Event> alerts =
      workload::SampleAnomalyEvents(*local, args.num_cases, args.seed);
  const ConfigResult in_process = RunAll(*local, alerts, args);
  const ConfigResult distributed = RunAll(*remote, alerts, args);

  const bool identical = in_process.edges == distributed.edges &&
                         in_process.nodes == distributed.nodes &&
                         in_process.scan_cost == distributed.scan_cost;
  const double overhead = in_process.wall_seconds > 0
                              ? distributed.wall_seconds /
                                    in_process.wall_seconds
                              : 0;
  const double rpcs_per_window =
      distributed.windows > 0 ? static_cast<double>(distributed.rpcs) /
                                    static_cast<double>(distributed.windows)
                              : 0;
  std::printf("%-12s %10s %10s %14s %10s\n", "config", "edges", "nodes",
              "scan cost", "wall s");
  std::printf("%-12s %10zu %10zu %14lld %10.3f\n", "in-process",
              in_process.edges, in_process.nodes,
              static_cast<long long>(in_process.scan_cost),
              in_process.wall_seconds);
  std::printf("%-12s %10zu %10zu %14lld %10.3f\n", "distributed",
              distributed.edges, distributed.nodes,
              static_cast<long long>(distributed.scan_cost),
              distributed.wall_seconds);
  std::printf("rpcs: %llu over %llu windows (%.4f per window)\n",
              static_cast<unsigned long long>(distributed.rpcs),
              static_cast<unsigned long long>(distributed.windows),
              rpcs_per_window);
  std::printf("wall overhead: %.2fx (target <= %.0fx: %s) | results %s\n",
              overhead, kOverheadTarget,
              overhead <= kOverheadTarget ? "met" : "not met",
              identical ? "identical" : "DIVERGED");
  if (!identical) {
    std::fprintf(stderr,
                 "FAIL: distributed results diverged from in-process — "
                 "the fabric changed query answers\n");
    return 1;
  }

  {
    obs::JsonDict root;
    root.Add("bench", std::string_view("dist_fanout"));
    root.Add("shards", static_cast<uint64_t>(shards));
    root.Add("backend", std::string_view(StorageBackendName(args.backend)));
    root.Add("events", local->NumEvents());
    root.Add("cases", static_cast<uint64_t>(alerts.size()));
    root.Add("seed", args.seed);
    root.Add("identical_results", identical);
    root.Add("ingest_wall_seconds", ingest_seconds);
    root.Add("scan_cost_total", static_cast<int64_t>(in_process.scan_cost));
    root.Add("local_wall_seconds", in_process.wall_seconds);
    root.Add("dist_wall_seconds", distributed.wall_seconds);
    root.Add("dist_overhead", overhead);
    root.Add("rpcs", distributed.rpcs);
    root.Add("rpcs_per_window", rpcs_per_window);
    std::ofstream f(args.bench_json);
    if (!f) {
      std::fprintf(stderr, "cannot open for write: %s\n",
                   args.bench_json.c_str());
      return 1;
    }
    f << root.Str() << "\n";
    std::printf("JSON written to %s\n", args.bench_json.c_str());
  }

  obs_run.Finish(*local);
  return 0;
}

}  // namespace
}  // namespace aptrace::bench

int main(int argc, char** argv) { return aptrace::bench::Main(argc, argv); }
