#ifndef APTRACE_DIST_FLEET_H_
#define APTRACE_DIST_FLEET_H_

#include <sys/types.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "storage/storage_backend.h"
#include "util/status.h"

namespace aptrace::dist {

/// One launched shard daemon.
struct ShardProcess {
  uint32_t shard = 0;
  pid_t pid = -1;
  int port = -1;           // bound loopback TCP port
  std::string endpoint;    // "127.0.0.1:<port>"
  int ready_fd = -1;       // read side of the child's stdout pipe
  bool killed = false;     // Kill() was called (teardown skips it)
};

struct FleetOptions {
  /// Path to the aptrace_shardd binary.
  std::string shardd_bin;
  size_t shards = 4;
  StorageBackendKind backend = StorageBackendKind::kRow;
  /// When non-empty, each daemon gets "<data_dir>/shard<N>" as its WAL
  /// directory (durable shards; empty = in-memory).
  std::string data_dir;
  /// When non-empty, "<pid_dir>/shard<N>.pid" is written per daemon so
  /// scripts (cli_smoke's kill test) can signal one shard by number.
  std::string pid_dir;
  /// How long to wait for each daemon's ready line.
  uint64_t ready_timeout_micros = 15'000'000;
  /// Extra argv entries appended to every daemon's command line.
  std::vector<std::string> extra_args;
};

/// Launches and owns N shard daemons: forks each aptrace_shardd on an
/// ephemeral loopback port, parses its machine-readable ready line
/// ("shardd: ready shard=<n> tcp=127.0.0.1:<port>"), and tears the whole
/// fleet down on destruction (SIGTERM, short grace, then SIGKILL) — the
/// teardown runs even when a test or launcher dies mid-way, because it
/// lives in the destructor. A launcher killed before its destructor runs
/// (SIGKILL, a crashed test) takes its daemons with it: each child asks
/// for SIGKILL when its parent dies. That signal follows the *thread*
/// that forked, not the process, so the thread that calls Launch() must
/// outlive the fleet. Shared by tools/aptrace_fleet, the fabric tests,
/// and bench_dist_fanout (docs/distribution.md).
class ShardFleet {
 public:
  /// Spawns the fleet; on any failure, already-started daemons are torn
  /// down before the error returns.
  static Result<std::unique_ptr<ShardFleet>> Launch(FleetOptions options);

  ~ShardFleet();

  ShardFleet(const ShardFleet&) = delete;
  ShardFleet& operator=(const ShardFleet&) = delete;

  const std::vector<ShardProcess>& shards() const { return shards_; }

  /// "<ep0>,<ep1>,..." — the form --shard-endpoint= and
  /// APTRACE_SHARD_ENDPOINTS consume.
  std::string EndpointsCsv() const;

  /// Sends `sig` (e.g. SIGKILL for the degraded-mode tests) to shard `i`
  /// and marks it dead so teardown skips it.
  Status Kill(size_t i, int sig);

  /// Graceful teardown (also run by the destructor): SIGTERM every live
  /// daemon, reap with a short grace period, SIGKILL stragglers.
  void Terminate();

 private:
  explicit ShardFleet(FleetOptions options) : options_(std::move(options)) {}

  FleetOptions options_;
  std::vector<ShardProcess> shards_;
};

}  // namespace aptrace::dist

#endif  // APTRACE_DIST_FLEET_H_
