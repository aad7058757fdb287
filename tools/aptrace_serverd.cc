// aptrace_serverd — the resident multi-session query daemon.
//
//   aptrace_serverd --trace=<trace.tsv|.bin> [options]
//       Load and seal a trace, then serve concurrent tracking sessions
//       over the line-delimited JSON protocol (docs/service.md).
//         --socket=<path>     unix-domain listener (default: the
//                             APTRACE_SERVER_SOCKET env var)
//         --tcp-port=N        loopback TCP listener; 0 = ephemeral
//                             (printed on stdout), omit to disable
//         --backend=row|columnar
//                             storage backend (default: APTRACE_BACKEND
//                             env var, else row)
//         --shards=N          store shard count in [1, 64] (default:
//                             APTRACE_SHARDS env var, else 1); scans
//                             scatter-gather across (host, time) shards,
//                             /sessions lists one row per shard
//         --shard-endpoint=<ep>
//                             distributed fabric (docs/distribution.md):
//                             repeat once per shard daemon ("host:port",
//                             "unix:<path>", or a comma-separated list;
//                             default: APTRACE_SHARD_ENDPOINTS env var).
//                             The store becomes a coordinator over N
//                             remote shards — a scan sends every probed
//                             shard its request before it reads any
//                             reply (shard-RPC protocol), and a dead
//                             daemon degrades to a typed DST-E005 error,
//                             never a hang. Incompatible with --data-dir
//                             (durability lives in each shardd's
//                             --data-dir); an explicit --shards must
//                             match the endpoint count.
//         --max-sessions=N    live-session admission cap (default 8)
//         --quantum=N         windows per scheduling quantum (default 8)
//         --window-budget=N   default per-session window budget (0 = off)
//         --sim-budget=<dur>  default per-session simulated-time budget
//                             (BDL durations: 90m, 2h, ...; 0 = off)
//         --buffer-cap=N      per-session undelivered-batch cap before
//                             backpressure stalls it (default 256)
//         --ingest-cap=N      pending live-ingest events before `ingest`
//                             is rejected (default 4096)
//         --slow-query-micros=N
//                             cumulative per-session wall-micros threshold
//                             for the slow-query log + flight dump
//                             (default: APTRACE_SLOW_QUERY_MICROS env var,
//                             else 0 = off)
//         --flight-dir=<dir>  directory for anomaly flight-recorder dumps
//                             (flight-<id>-<reason>.json; omit to disable)
//         --data-dir=<dir>    durable ingest (docs/durability.md): every
//                             accepted `ingest` batch is fsync'd to
//                             <dir>/wal.log before it is acked, and boot
//                             recovers the store from the dir's snapshot
//                             + WAL replay. With a manifest present,
//                             --trace becomes the first-boot fallback
//                             only.
//         --seal-tail=N       hot-tail rows that trigger a background
//                             seal into column segments between quanta
//                             (columnar backend; 0 = off, the default)
//         --retention=<dur>   evict sealed rows older than MaxTime minus
//                             this BDL duration from scans (0/omit = off)
//
//   The flight recorder is always on: every thread records its recent
//   spans into a ring buffer (capacity: the APTRACE_FLIGHT_BUFFER env
//   var, default 16Ki spans per thread), dumpable retroactively via the
//   `flight-dump` op or the HTTP scrape endpoints' sibling ops, and
//   dumped automatically on anomalies when --flight-dir is set.
//
//   The same listeners also answer plain HTTP GETs — /metrics, /healthz,
//   /readyz, /sessions (see docs/observability.md).
//
//   SIGINT/SIGTERM (and the protocol `shutdown` op) trigger a graceful
//   drain: in-flight responses finish, the scheduler stops at a quantum
//   boundary, and the process exits 0. On start the daemon prints one
//   "serverd: ready" line to stdout so scripts can wait for it.

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "dist/dist_error.h"
#include "dist/remote_backend.h"
#include "dist/shard_client.h"
#include "obs/trace.h"
#include "service/server.h"
#include "service/session_manager.h"
#include "storage/file_env.h"
#include "storage/recovery.h"
#include "storage/trace_io.h"
#include "storage/wal.h"
#include "util/env.h"
#include "util/string_util.h"

namespace aptrace {
namespace {

struct Flags {
  std::string trace_path;
  std::string socket_path;
  std::string data_dir;
  int tcp_port = -1;
  StorageBackendKind backend = DefaultStorageBackendKind();
  size_t shards = DefaultShardCount();
  bool shards_set = false;  // explicit --shards must match endpoints
  std::vector<std::string> shard_endpoints;
  service::ServiceLimits limits;
  bool ok = true;
};

bool TakeValue(const char* arg, const char* name, std::string* out) {
  const size_t n = std::strlen(name);
  if (std::strncmp(arg, name, n) == 0 && arg[n] == '=') {
    *out = arg + n + 1;
    return true;
  }
  return false;
}

/// Positive-integer flag in the CLI's `severity[CODE]` diagnostic style.
bool ParseCount(const char* flag, const std::string& value, long min,
                long* out) {
  char* end = nullptr;
  const long n = std::strtol(value.c_str(), &end, 10);
  if (value.empty() || *end != '\0' || n < min) {
    std::fprintf(stderr,
                 "%s: error[CLI-E001]: expected an integer >= %ld, got "
                 "'%s'\n",
                 flag, min, value.c_str());
    return false;
  }
  *out = n;
  return true;
}

int Usage() {
  std::fprintf(stderr,
               "usage: aptrace_serverd --trace=<file> [--socket=<path>] "
               "[--tcp-port=N] [flags]\n"
               "  see the header comment of tools/aptrace_serverd.cc or "
               "docs/service.md\n");
  return 2;
}

Flags ParseFlags(int argc, char** argv) {
  Flags f;
  // The env var supplies the default socket; an invalid (empty) value
  // warns once via the shared helper and falls back to "no unix socket".
  if (auto s = GetValidatedEnv(
          kEnvServerSocket,
          [](const std::string& v) { return !v.empty(); },
          "a non-empty unix socket path")) {
    f.socket_path = *s;
  }
  if (const auto micros = GetValidatedEnvCount(kEnvSlowQueryMicros)) {
    f.limits.slow_query_micros = *micros;
  }
  std::string v;
  long n = 0;
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    if (TakeValue(a, "--trace", &f.trace_path) ||
        TakeValue(a, "--socket", &f.socket_path)) {
      continue;
    }
    if (TakeValue(a, "--tcp-port", &v)) {
      if (!ParseCount("--tcp-port", v, 0, &n) || n > 65535) {
        if (n > 65535) {
          std::fprintf(stderr,
                       "--tcp-port: error[CLI-E001]: %ld is not a valid "
                       "TCP port\n",
                       n);
        }
        f.ok = false;
      } else {
        f.tcp_port = static_cast<int>(n);
      }
    } else if (TakeValue(a, "--backend", &v)) {
      const auto parsed = ParseStorageBackendKind(v);
      if (!parsed.has_value()) {
        std::fprintf(stderr,
                     "--backend: error[CLI-E002]: expected 'row' or "
                     "'columnar', got '%s'\n",
                     v.c_str());
        f.ok = false;
      } else {
        f.backend = *parsed;
      }
    } else if (TakeValue(a, "--shards", &v)) {
      char* end = nullptr;
      n = std::strtol(v.c_str(), &end, 10);
      if (v.empty() || *end != '\0' || n < 1 ||
          n > static_cast<long>(kMaxStoreShards)) {
        std::fprintf(stderr,
                     "--shards: error[CLI-E005]: expected a shard count in "
                     "[1, 64], got '%s'\n",
                     v.c_str());
        f.ok = false;
      } else {
        f.shards = static_cast<size_t>(n);
        f.shards_set = true;
      }
    } else if (TakeValue(a, "--shard-endpoint", &v)) {
      if (v.empty()) {
        std::fprintf(stderr,
                     "--shard-endpoint: error[CLI-E006]: expected "
                     "'host:port' or 'unix:<path>'\n");
        f.ok = false;
      } else {
        f.shard_endpoints.push_back(v);
      }
    } else if (TakeValue(a, "--max-sessions", &v)) {
      if (ParseCount("--max-sessions", v, 1, &n)) {
        f.limits.max_live_sessions = static_cast<int>(n);
      } else {
        f.ok = false;
      }
    } else if (TakeValue(a, "--quantum", &v)) {
      if (ParseCount("--quantum", v, 1, &n)) {
        f.limits.quantum_windows = static_cast<uint64_t>(n);
      } else {
        f.ok = false;
      }
    } else if (TakeValue(a, "--window-budget", &v)) {
      if (ParseCount("--window-budget", v, 0, &n)) {
        f.limits.window_budget = static_cast<uint64_t>(n);
      } else {
        f.ok = false;
      }
    } else if (TakeValue(a, "--sim-budget", &v)) {
      auto d = ParseBdlDuration(v);
      if (!d.ok()) {
        std::fprintf(stderr, "--sim-budget: error[CLI-E001]: %s\n",
                     d.status().message().c_str());
        f.ok = false;
      } else {
        f.limits.sim_budget = d.value();
      }
    } else if (TakeValue(a, "--buffer-cap", &v)) {
      if (ParseCount("--buffer-cap", v, 1, &n)) {
        f.limits.update_buffer_cap = static_cast<size_t>(n);
      } else {
        f.ok = false;
      }
    } else if (TakeValue(a, "--ingest-cap", &v)) {
      if (ParseCount("--ingest-cap", v, 1, &n)) {
        f.limits.ingest_queue_cap = static_cast<size_t>(n);
      } else {
        f.ok = false;
      }
    } else if (TakeValue(a, "--slow-query-micros", &v)) {
      if (ParseCount("--slow-query-micros", v, 0, &n)) {
        f.limits.slow_query_micros = static_cast<uint64_t>(n);
      } else {
        f.ok = false;
      }
    } else if (TakeValue(a, "--flight-dir", &v)) {
      f.limits.flight_dump_dir = v;
    } else if (TakeValue(a, "--data-dir", &f.data_dir)) {
      // value captured
    } else if (TakeValue(a, "--seal-tail", &v)) {
      if (ParseCount("--seal-tail", v, 0, &n)) {
        f.limits.seal_tail_rows = static_cast<size_t>(n);
      } else {
        f.ok = false;
      }
    } else if (TakeValue(a, "--retention", &v)) {
      auto d = ParseBdlDuration(v);
      if (!d.ok()) {
        std::fprintf(stderr, "--retention: error[CLI-E001]: %s\n",
                     d.status().message().c_str());
        f.ok = false;
      } else {
        f.limits.retention_micros = d.value();
      }
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", a);
      f.ok = false;
    }
  }
  // Flags win over the env var; the var is the zero-flag path CI's fleet
  // launcher uses (warn-once validation through the shared helper).
  if (f.shard_endpoints.empty()) {
    if (auto eps = GetValidatedEnv(
            kEnvShardEndpoints,
            [](const std::string& value) { return !value.empty(); },
            "a comma-separated shard endpoint list")) {
      f.shard_endpoints.push_back(*eps);
    }
  }
  return f;
}

// Signal handlers may only touch async-signal-safe state; a watcher
// thread polls this flag and performs the actual (mutex-taking) drain.
// A lock-free atomic keeps the flag async-signal-safe and race-free.
std::atomic<int> g_signalled{0};
static_assert(std::atomic<int>::is_always_lock_free,
              "the signal flag must be async-signal-safe");

void OnSignal(int) { g_signalled = 1; }

int Main(int argc, char** argv) {
  const Flags flags = ParseFlags(argc, argv);
  if (!flags.ok || (flags.trace_path.empty() && flags.data_dir.empty())) {
    return Usage();
  }
  if (flags.socket_path.empty() && flags.tcp_port < 0) {
    std::fprintf(stderr,
                 "error[CLI-E004]: no listener: pass --socket=<path> (or "
                 "set %s) or --tcp-port=N\n",
                 kEnvServerSocket);
    return 2;
  }

  // Always-on flight recorder: ring capacity must be set before the
  // first thread records (rings are sized at first use).
  if (const auto cap = GetValidatedEnvCount(kEnvFlightBuffer)) {
    obs::Tracer::Global().SetRingCapacity(static_cast<size_t>(*cap));
  }
  obs::Tracer::Global().SetEnabled(true);

  // Distributed fabric: each store shard becomes a RemoteShardBackend
  // talking to its own shard daemon; shard count is the endpoint count.
  std::shared_ptr<std::vector<dist::ShardEndpoint>> endpoints;
  if (!flags.shard_endpoints.empty()) {
    std::string csv;
    for (const std::string& e : flags.shard_endpoints) {
      if (!csv.empty()) csv += ',';
      csv += e;
    }
    auto parsed = dist::ParseShardEndpoints(csv);
    if (!parsed.ok()) {
      std::fprintf(stderr, "--shard-endpoint: error[CLI-E006]: %s\n",
                   parsed.status().message().c_str());
      return 2;
    }
    if (!flags.data_dir.empty()) {
      std::fprintf(stderr,
                   "--shard-endpoint: error[CLI-E006]: incompatible with "
                   "--data-dir (run each shardd with its own --data-dir "
                   "instead)\n");
      return 2;
    }
    if (flags.shards_set && flags.shards != parsed->size()) {
      std::fprintf(stderr,
                   "--shards: error[CLI-E005]: --shards=%zu disagrees with "
                   "%zu shard endpoint(s)\n",
                   flags.shards, parsed->size());
      return 2;
    }
    if (parsed->size() > kMaxStoreShards) {
      std::fprintf(stderr,
                   "--shard-endpoint: error[CLI-E006]: %zu endpoints exceed "
                   "the %zu-shard store limit\n",
                   parsed->size(), kMaxStoreShards);
      return 2;
    }
    endpoints = std::make_shared<std::vector<dist::ShardEndpoint>>(
        std::move(parsed).value());
  }

  EventStoreOptions store_options;
  store_options.backend = flags.backend;
  store_options.shards = flags.shards;
  if (endpoints != nullptr) {
    store_options.shards = endpoints->size();
    store_options.shard_backend_factory =
        [endpoints](size_t shard, const EventStoreOptions& o)
        -> std::unique_ptr<StorageBackend> {
      auto client = std::make_shared<dist::ShardClient>(
          (*endpoints)[shard], static_cast<uint32_t>(shard), o.backend);
      return std::make_unique<dist::RemoteShardBackend>(
          std::move(client), o.backend, o.cost_model);
    };
  }

  // With --data-dir the store comes out of crash recovery (snapshot +
  // WAL replay; --trace is only the first-boot fallback) and every
  // accepted ingest batch is fsync'd to the WAL before it is acked.
  std::unique_ptr<EventStore> store;
  std::unique_ptr<WalWriter> wal;
  uint64_t recovered_through = 0;
  FileEnv* env = FileEnv::Posix();
  if (!flags.data_dir.empty()) {
    auto recovered =
        OpenDataDir(env, flags.data_dir, flags.trace_path, store_options);
    if (!recovered.ok()) {
      std::fprintf(stderr, "%s\n", recovered.status().ToString().c_str());
      return 1;
    }
    store = std::move(recovered->store);
    recovered_through = recovered->next_seq - 1;
    std::printf("serverd: recovered %llu events (%llu batches, %llu "
                "duplicates skipped, %llu torn bytes truncated) from %s\n",
                static_cast<unsigned long long>(recovered->wal.events_applied),
                static_cast<unsigned long long>(
                    recovered->wal.batches_applied),
                static_cast<unsigned long long>(
                    recovered->wal.duplicates_skipped),
                static_cast<unsigned long long>(
                    recovered->wal.truncated_bytes),
                flags.data_dir.c_str());
    if (!recovered->wal.diagnostic.empty()) {
      std::printf("serverd: wal repair: %s\n",
                  recovered->wal.diagnostic.c_str());
    }
    auto writer = WalWriter::Open(env, flags.data_dir + "/wal.log",
                                  recovered->wal_valid_bytes,
                                  recovered->next_seq);
    if (!writer.ok()) {
      std::fprintf(stderr, "%s\n", writer.status().ToString().c_str());
      return 1;
    }
    wal = std::move(writer).value();
  } else {
    // With remote shards the load path itself RPCs (append batches, the
    // final seal): a dead daemon surfaces as a typed DST-E00x here, not
    // a crash.
    try {
      auto loaded = LoadTraceFile(flags.trace_path, store_options);
      if (!loaded.ok()) {
        std::fprintf(stderr, "%s\n", loaded.status().ToString().c_str());
        return 1;
      }
      store = std::move(loaded).value();
    } catch (const dist::DistError& e) {
      std::fprintf(stderr, "serverd: distributed load failed: %s\n",
                   e.what());
      return 1;
    }
  }

  service::SessionManager manager(store.get(), flags.limits);
  if (wal != nullptr) {
    manager.EnableDurability(wal.get(), recovered_through);
  }
  service::ServerOptions server_options;
  server_options.unix_socket_path = flags.socket_path;
  server_options.tcp_port = flags.tcp_port;
  service::Server server(&manager, server_options);
  if (auto s = server.Start(); !s.ok()) {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
    return 1;
  }

  std::signal(SIGINT, OnSignal);
  std::signal(SIGTERM, OnSignal);
  std::thread signal_watcher([&server] {
    while (g_signalled == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
    server.RequestShutdown();
  });

  if (endpoints != nullptr) {
    std::printf("serverd: distributed fabric: %zu remote shard(s):",
                endpoints->size());
    for (const auto& ep : *endpoints) {
      std::printf(" %s", ep.ToString().c_str());
    }
    std::printf("\n");
  }
  std::printf("serverd: serving %zu events", store->NumEvents());
  if (!flags.socket_path.empty()) {
    std::printf(" on %s", flags.socket_path.c_str());
  }
  if (server.port() >= 0) std::printf(" (tcp 127.0.0.1:%d)", server.port());
  std::printf("\nserverd: ready\n");
  std::fflush(stdout);

  server.Wait();
  g_signalled = 1;  // release the watcher if the drain came from a client
  signal_watcher.join();
  server.Shutdown();
  if (wal != nullptr) {
    // Every acked batch is applied once the scheduler joins; fold them
    // into a fresh snapshot and reset the WAL so the next boot replays
    // nothing. A failure here is safe — the WAL still covers the
    // batches, recovery just replays them.
    manager.StopAndJoin();
    if (auto st = SnapshotDataDir(env, flags.data_dir, *store,
                                  manager.AppliedThrough(), wal.get());
        !st.ok()) {
      std::fprintf(stderr, "serverd: drain snapshot failed: %s\n",
                   st.ToString().c_str());
    } else {
      std::printf("serverd: snapshot through batch %llu written to %s\n",
                  static_cast<unsigned long long>(manager.AppliedThrough()),
                  flags.data_dir.c_str());
    }
  }
  std::printf("serverd: drained\n");
  return 0;
}

}  // namespace
}  // namespace aptrace

int main(int argc, char** argv) { return aptrace::Main(argc, argv); }
