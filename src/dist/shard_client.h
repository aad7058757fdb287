#ifndef APTRACE_DIST_SHARD_CLIENT_H_
#define APTRACE_DIST_SHARD_CLIENT_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "dist/dist_error.h"
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
/// An RPC comes in two halves so one thread can have requests to
/// several shards in flight at once: Start sends the request and returns
/// a PendingCall, Finish reads its reply. Call is Finish(Start(...)).
/// The deadline, the retry loop and the RPC count are Finish's.
///
/// Thread-safety: any number of threads may start and finish calls
/// concurrently — concurrent sessions over one store do. Connections
/// live in a mutex-guarded free list; each Start checks one out (dialing
/// if none is idle) and Finish returns it on success.
class ShardClient {
 public:
  /// A call whose request is sent and whose reply is not read yet. It
  /// holds the connection the reply arrives on; dropped unfinished, it
  /// closes that connection.
  class PendingCall {
   public:
    PendingCall(PendingCall&& other) noexcept;
    PendingCall& operator=(PendingCall&&) = delete;
    ~PendingCall();

   private:
    friend class ShardClient;
    PendingCall() = default;

    std::string line;                // the request, kept for a resend
    int fd = -1;                     // where the reply arrives, or -1
    int64_t deadline_at = 0;         // end of the current attempt
    std::optional<DistError> error;  // why the current send failed
  };

  ShardClient(ShardEndpoint endpoint, uint32_t shard,
              StorageBackendKind expected_backend,
              ShardClientOptions options = {});
  ~ShardClient();

  ShardClient(const ShardClient&) = delete;
  ShardClient& operator=(const ShardClient&) = delete;

  /// Sends one RPC's request, {"op":<op>, ...fields}, without waiting
  /// for the reply. A failed send does not throw: Finish retries it.
  PendingCall Start(const std::string& op, const obs::JsonDict& fields);

  /// Reads a started call's reply and returns the parsed ok:true
  /// response. Transport failures redial and resend within the retry
  /// budget. A reply that is already waiting is read even when the
  /// attempt's deadline has passed. Throws DistError on any failure (see
  /// class comment).
  service::JsonValue Finish(PendingCall call);

  /// Issues one RPC: Finish(Start(op, fields)).
  service::JsonValue Call(const std::string& op, const obs::JsonDict& fields) {
    return Finish(Start(op, fields));
  }

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
  /// Starts one attempt of `call`: sets its deadline, checks out a
  /// pooled connection or dials one, and sends the request. A DistError
  /// is kept in call->error, not thrown.
  void StartAttempt(PendingCall* call);

  /// Dials, handshakes (shard.hello, verified), returns the connected
  /// fd. Throws DistError on failure.
  int Dial(int64_t deadline_at);

  /// Writes `line` and its newline to `fd`. Throws DistError.
  void SendLine(int fd, const std::string& line, int64_t deadline_at);

  /// Reads one reply line from `fd`. Throws DistError.
  std::string ReadLine(int fd, int64_t deadline_at);

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
