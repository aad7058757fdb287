#ifndef APTRACE_DIST_DIST_ERROR_H_
#define APTRACE_DIST_DIST_ERROR_H_

#include <stdexcept>
#include <string>
#include <utility>

namespace aptrace::dist {

/// Typed failure taxonomy of the distributed shard fabric
/// (docs/distribution.md). Every failure a remote shard can inflict on a
/// query carries one of these codes, so operators and tests can grep a
/// degraded session's detail the same way they grep CLI-E/SRV-E/STO-E
/// diagnostics:
///
///   DST-E001  endpoint unreachable (bad address, connect refused/failed)
///   DST-E002  deadline exceeded (connect/send/recv ran out of budget)
///   DST-E003  protocol violation (malformed frame, bad payload, or a
///             response that is not the line-JSON the fabric speaks)
///   DST-E004  shard identity mismatch (the daemon at the endpoint is not
///             the shard the coordinator expected: wrong shard id, wrong
///             backend kind, wrong event count / wal_seq at connect)
///   DST-E005  shard unavailable after the retry budget — the degraded
///             verdict; the message names the shards that went missing
///   DST-E006  remote operation failed (the shard answered ok:false)
///   DST-E007  append pipeline inconsistency (the shard assigned a
///             different local id than the coordinator predicted)
inline constexpr char kDistErrEndpoint[] = "DST-E001";
inline constexpr char kDistErrDeadline[] = "DST-E002";
inline constexpr char kDistErrProtocol[] = "DST-E003";
inline constexpr char kDistErrIdentity[] = "DST-E004";
inline constexpr char kDistErrUnavailable[] = "DST-E005";
inline constexpr char kDistErrRemoteOp[] = "DST-E006";
inline constexpr char kDistErrAppend[] = "DST-E007";

/// The exception the fabric throws when a remote shard fails a query.
///
/// Header-only on purpose: layers below src/dist/ participate in the
/// failure path without linking the transport — the sharded store's
/// scatter-gather aggregates per-shard failures into one DST-E005, it
/// unwinds through the executor's batched collect, and
/// Session::Step catches it and turns it into the typed Status the
/// SessionManager reports as the session's failure detail (state
/// "failed", detail "DST-E00x: ..."). That is the degraded mode: a dead
/// shard fails the query with a grep-able code instead of hanging it.
///
/// what() always starts with "<code>: " so the code survives every
/// channel that only keeps the message string.
class DistError : public std::runtime_error {
 public:
  DistError(const char* code, const std::string& message)
      : std::runtime_error(std::string(code) + ": " + message),
        code_(code) {}

  /// The DST-E00x code, as a stable pointer into the constants above.
  const char* code() const { return code_; }

 private:
  const char* code_;
};

}  // namespace aptrace::dist

#endif  // APTRACE_DIST_DIST_ERROR_H_
