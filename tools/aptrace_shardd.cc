// aptrace_shardd — one shard's daemon in the distributed fabric.
//
//   aptrace_shardd --shard=N [options]
//       Host one raw StorageBackend (row or columnar — no catalog, no
//       sessions) behind the shard-RPC vocabulary (docs/distribution.md)
//       over the line-delimited JSON transport. The coordinator
//       (aptrace_serverd --shard-endpoint=...) loads rows into it, seals
//       it, and scatter-gathers scans across the fleet.
//         --shard=N           this daemon's shard number; the client
//                             verifies it at every connect (DST-E004)
//         --backend=row|columnar
//                             hosted backend kind (default:
//                             APTRACE_BACKEND env var, else row)
//         --port=N            loopback TCP listener; 0 = ephemeral
//         --socket=<path>     unix-domain listener (either or both)
//         --data-dir=<dir>    durable shard: accepted append batches are
//                             fsync'd to <dir>/wal.log before the ack,
//                             and boot replays the WAL back into the
//                             backend (same 36-byte codec as the
//                             coordinator's ingest WAL)
//         --partition-micros=N
//                             row-backend time-partition width (default:
//                             one simulated hour — must match the
//                             coordinator's store options)
//         --segment-rows=N    columnar segment rows (0 = backend default)
//
//   The same listeners answer HTTP GETs for /metrics and /healthz (no
//   sessions here, so /sessions 404s and /readyz mirrors liveness).
//
//   On start the daemon prints one machine-readable line to stdout:
//     shardd: ready shard=<n> tcp=127.0.0.1:<port>
//   (tools/aptrace_fleet and the fabric tests parse it to learn the
//   ephemeral port). SIGINT/SIGTERM or a `shard.shutdown` op drain
//   gracefully.

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>

#include "dist/shard_service.h"
#include "obs/trace.h"
#include "service/server.h"
#include "storage/columnar_backend.h"
#include "storage/file_env.h"
#include "storage/row_store_backend.h"
#include "storage/wal.h"
#include "util/env.h"

namespace aptrace {
namespace {

struct Flags {
  long shard = -1;
  StorageBackendKind backend = DefaultStorageBackendKind();
  int tcp_port = -1;
  std::string socket_path;
  std::string data_dir;
  DurationMicros partition_micros = kMicrosPerHour;
  size_t segment_rows = 0;
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
               "usage: aptrace_shardd --shard=N [--backend=row|columnar] "
               "[--port=N] [--socket=<path>] [--data-dir=<dir>]\n"
               "  see the header comment of tools/aptrace_shardd.cc or "
               "docs/distribution.md\n");
  return 2;
}

Flags ParseFlags(int argc, char** argv) {
  Flags f;
  std::string v;
  long n = 0;
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    if (TakeValue(a, "--socket", &f.socket_path) ||
        TakeValue(a, "--data-dir", &f.data_dir)) {
      continue;
    }
    if (TakeValue(a, "--shard", &v)) {
      if (ParseCount("--shard", v, 0, &n) &&
          n < static_cast<long>(kMaxStoreShards)) {
        f.shard = n;
      } else {
        f.ok = false;
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
    } else if (TakeValue(a, "--port", &v)) {
      if (!ParseCount("--port", v, 0, &n) || n > 65535) {
        f.ok = false;
      } else {
        f.tcp_port = static_cast<int>(n);
      }
    } else if (TakeValue(a, "--partition-micros", &v)) {
      if (ParseCount("--partition-micros", v, 1, &n)) {
        f.partition_micros = n;
      } else {
        f.ok = false;
      }
    } else if (TakeValue(a, "--segment-rows", &v)) {
      if (ParseCount("--segment-rows", v, 0, &n)) {
        f.segment_rows = static_cast<size_t>(n);
      } else {
        f.ok = false;
      }
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", a);
      f.ok = false;
    }
  }
  return f;
}

// Set by the signal handler and the main thread, polled by the watcher
// thread that drains the server: a lock-free atomic keeps the flag
// async-signal-safe and race-free.
std::atomic<int> g_signalled{0};
static_assert(std::atomic<int>::is_always_lock_free,
              "the signal flag must be async-signal-safe");

void OnSignal(int) { g_signalled = 1; }

int Main(int argc, char** argv) {
  const Flags flags = ParseFlags(argc, argv);
  if (!flags.ok || flags.shard < 0) return Usage();
  if (flags.socket_path.empty() && flags.tcp_port < 0) {
    std::fprintf(stderr,
                 "error[CLI-E004]: no listener: pass --port=N (0 = "
                 "ephemeral) or --socket=<path>\n");
    return 2;
  }

  obs::Tracer::Global().SetEnabled(true);

  std::unique_ptr<StorageBackend> backend;
  if (flags.backend == StorageBackendKind::kColumnar) {
    backend = std::make_unique<ColumnarSegmentBackend>(CostModel{},
                                                       flags.segment_rows);
  } else {
    backend = std::make_unique<RowStoreBackend>(CostModel{},
                                                flags.partition_micros);
  }

  // Durable shard: replay the WAL into the backend (batches are in
  // sequence order, so the dense local ids come out identical to the
  // pre-crash assignment), then keep appending to it.
  std::unique_ptr<WalWriter> wal;
  FileEnv* env = FileEnv::Posix();
  if (!flags.data_dir.empty()) {
    if (!env->FileExists(flags.data_dir)) {
      if (auto s = env->CreateDir(flags.data_dir); !s.ok()) {
        std::fprintf(stderr, "%s\n", s.ToString().c_str());
        return 1;
      }
    }
    const std::string wal_path = flags.data_dir + "/wal.log";
    uint64_t valid_bytes = 0;
    uint64_t next_seq = 1;
    if (env->FileExists(wal_path)) {
      auto bytes = env->ReadFileToString(wal_path);
      if (!bytes.ok()) {
        std::fprintf(stderr, "%s\n", bytes.status().ToString().c_str());
        return 1;
      }
      auto scan = ScanWalBytes(bytes.value());
      if (!scan.ok()) {
        std::fprintf(stderr, "%s\n", scan.status().ToString().c_str());
        return 1;
      }
      size_t replayed = 0;
      for (const WalBatch& batch : scan->batches) {
        for (const Event& e : batch.events) {
          backend->Append(e);
          replayed++;
        }
        next_seq = batch.seq + 1;
      }
      valid_bytes = scan->valid_bytes;
      std::fprintf(stderr, "shardd: replayed %zu events (%zu batches) from %s\n",
                   replayed, scan->batches.size(), wal_path.c_str());
      if (!scan->diagnostic.empty()) {
        std::fprintf(stderr, "shardd: wal repair: %s\n",
                     scan->diagnostic.c_str());
      }
    }
    auto writer = WalWriter::Open(env, wal_path, valid_bytes, next_seq);
    if (!writer.ok()) {
      std::fprintf(stderr, "%s\n", writer.status().ToString().c_str());
      return 1;
    }
    wal = std::move(writer).value();
  }

  dist::ShardService shard_service(static_cast<uint32_t>(flags.shard),
                                   std::move(backend), wal.get());

  service::ServerOptions server_options;
  server_options.unix_socket_path = flags.socket_path;
  server_options.tcp_port = flags.tcp_port;
  service::Server server(
      [&shard_service](const std::string& line, bool* shutdown_requested) {
        return shard_service.HandleLine(line, shutdown_requested);
      },
      /*manager=*/nullptr, server_options);
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

  // Machine-readable ready line (tools/aptrace_fleet parses it).
  std::printf("shardd: ready shard=%ld", flags.shard);
  if (server.port() >= 0) std::printf(" tcp=127.0.0.1:%d", server.port());
  if (!flags.socket_path.empty()) {
    std::printf(" unix=%s", flags.socket_path.c_str());
  }
  std::printf("\n");
  std::fflush(stdout);

  server.Wait();
  g_signalled = 1;
  signal_watcher.join();
  server.Shutdown();
  std::fprintf(stderr, "shardd: shard %ld drained (%zu events)\n",
               flags.shard, shard_service.backend().NumEvents());
  return 0;
}

}  // namespace
}  // namespace aptrace

int main(int argc, char** argv) { return aptrace::Main(argc, argv); }
