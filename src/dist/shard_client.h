#ifndef APTRACE_DIST_SHARD_CLIENT_H_
#define APTRACE_DIST_SHARD_CLIENT_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "obs/json_dict.h"
#include "service/json.h"
#include "storage/storage_backend.h"
#include "util/status.h"
#include "util/sync.h"

namespace aptrace::dist {

/// Address of one shard daemon: either a unix-domain socket path or a
/// TCP host:port. Parsed from `--shard-endpoint=` flags and the
/// APTRACE_SHARD_ENDPOINTS env var (comma-separated; each entry is
/// "host:port", "unix:<path>", or a bare absolute path).
struct ShardEndpoint {
  std::string unix_path;  // non-empty selects the unix transport
  std::string host;       // else TCP (numeric IPv4 or "localhost")
  int port = -1;

  std::string ToString() const;
};

Result<ShardEndpoint> ParseShardEndpoint(std::string_view text);
Result<std::vector<ShardEndpoint>> ParseShardEndpoints(std::string_view csv);

/// Per-RPC deadline: the APTRACE_DIST_DEADLINE_MICROS env var when set
/// and valid (warn-once through util/env.h), else 5 seconds.
uint64_t DefaultDistDeadlineMicros();

struct ShardClientOptions {
  /// Wall-clock budget of one RPC attempt (connect + hello + send +
  /// recv). An attempt that runs out fails with DST-E002 and counts
  /// against the retry budget — a dead shard can stall a query for at
  /// most max_attempts * deadline, never hang it.
  uint64_t deadline_micros = DefaultDistDeadlineMicros();

  /// Transport failures (connect refused, EOF mid-response, deadline)
  /// redial up to this many total attempts with doubling backoff.
  /// Application-level errors (ok:false responses) and identity
  /// mismatches never retry.
  int max_attempts = 3;
  uint64_t retry_backoff_micros = 20'000;

  /// Extra identity pins verified against every shard.hello (tests use
  /// these to prove the DST-E004 path; the coordinator pins events after
  /// loading).
  std::optional<uint64_t> expect_events;
  std::optional<uint64_t> expect_wal_seq;
};

/// One coordinator-side channel to one shard daemon: blocking line-JSON
/// RPCs with per-attempt deadlines, bounded retry with backoff, and an
/// identity handshake on every new connection (docs/distribution.md).
///
/// Failures throw DistError (dist/dist_error.h): DST-E001 unreachable,
/// DST-E002 deadline, DST-E003 protocol garbage, DST-E004 identity
/// mismatch, DST-E005 after the retry budget, DST-E006 when the shard
/// answered ok:false.
///
/// Thread-safety: any number of threads may Call() concurrently — the
/// sharded store's fan-out threads and concurrent sessions over one
/// store do. Connections live in a mutex-guarded free list; each Call
/// checks one out (dialing if none is idle) and returns it on success.
class ShardClient {
 public:
  ShardClient(ShardEndpoint endpoint, uint32_t shard,
              StorageBackendKind expected_backend,
              ShardClientOptions options = {});
  ~ShardClient();

  ShardClient(const ShardClient&) = delete;
  ShardClient& operator=(const ShardClient&) = delete;

  /// Issues one RPC: {"op":<op>, ...fields} out, parsed ok:true response
  /// back. Throws DistError on any failure (see class comment).
  service::JsonValue Call(const std::string& op, const obs::JsonDict& fields);

  /// Convenience for field-free ops.
  service::JsonValue Call(const std::string& op) {
    return Call(op, obs::JsonDict{});
  }

  const ShardEndpoint& endpoint() const { return endpoint_; }
  uint32_t shard() const { return shard_; }

  /// Closes every idle pooled connection (the next Call redials). Used
  /// by tests; the destructor does the same.
  void CloseIdle();

 private:
  /// Dials, handshakes (shard.hello, verified), returns the connected
  /// fd. Throws DistError on failure.
  int Dial(int64_t deadline_at);

  /// One request/response exchange on `fd`. Throws DistError.
  std::string Exchange(int fd, const std::string& line, int64_t deadline_at);

  /// Parses a response line; throws DST-E003 on garbage and DST-E006 /
  /// the remote's own code on ok:false.
  service::JsonValue ParseResponse(const std::string& line);

  const ShardEndpoint endpoint_;
  const uint32_t shard_;
  const StorageBackendKind expected_backend_;
  const ShardClientOptions options_;

  Mutex mu_{"ShardClient::mu_"};
  std::vector<int> idle_fds_ APTRACE_GUARDED_BY(mu_);
};

}  // namespace aptrace::dist

#endif  // APTRACE_DIST_SHARD_CLIENT_H_
