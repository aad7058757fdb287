#ifndef APTRACE_DIST_SHARD_SERVICE_H_
#define APTRACE_DIST_SHARD_SERVICE_H_

#include <cstdint>
#include <memory>
#include <string>

#include "storage/storage_backend.h"
#include "storage/wal.h"
#include "util/sync.h"

namespace aptrace::dist {

/// Protocol version string every shard.hello response advertises; the
/// client refuses to talk to anything else (DST-E004).
inline constexpr char kShardProto[] = "aptrace-shard v1";

/// The shard daemon's op handler: one raw StorageBackend (row or
/// columnar — no catalog, no sessions) behind the shard-RPC vocabulary
/// (docs/distribution.md). Plugs into service::Server as a LineHandler;
/// the transport's dialect sniff still serves /metrics and /healthz on
/// the same socket.
///
/// Requests are one JSON object per line with an `op`; responses always
/// carry `ok`, and failures add `code` (a DST-E00x) and `error`. Row
/// payloads are base64 packed binary (dist/shard_codec.h). Ops:
///
///   shard.hello    {}                      -> {proto, shard, backend,
///                                              events, tail_rows,
///                                              wal_seq, sealed}
///   shard.append   {rows, count, first_lid}-> {first_lid, appended}
///   shard.seal     {}                      -> {events}
///   shard.collect_dest {key, begin, end}   -> {rows, count, probed,
///   shard.collect_src  {key, begin, end}       seeked, pruned}
///   shard.collect_range {begin, end}       -> (same shape)
///   shard.collect_many {probes, count}     -> {rows, count, probes}
///       `probes` in the request: `count` packed probe records (kind,
///       key, begin, end; at most kMaxCollectProbes). In the reply:
///       `rows` is every probe's rows concatenated in probe order,
///       `count` their total, and `probes` packed u64 quadruples
///       (rows, probed, seeked, pruned), one per probe. The three
///       single-window ops above are the one-probe case of the same
///       handler.
///   shard.has_incoming_write {key, begin, end} -> {found}
///   shard.flow_dests {key, begin, end}     -> {ids, count}
///   shard.fetch    {lids, count}           -> {rows, count}
///   shard.seal_tail {}                     -> {rows}
///   shard.compact  {}                      -> {units}
///   shard.evict    {horizon}               -> {rows}
///   shard.stats    {}                      -> backend StoreStats fields
///   shard.snapshot {}                      -> {shard, events, tail_rows,
///                                              sealed, min_time, max_time}
///   shard.shutdown {}                      -> {draining:true}
///
/// Error codes: DST-E003 malformed request/payload, DST-E006 remote
/// operation failed (e.g. a WAL append error), DST-E007 append local-id
/// mismatch (the coordinator's predicted lid disagrees with this shard's
/// next dense id — a routing or replay bug, never silently absorbed).
///
/// Thread-safety: the coordinator honors the storage read-after-build
/// contract (mutations never overlap queries), so reads run lock-free;
/// the mutating ops additionally serialize among themselves behind one
/// mutex as armor against a misbehaving client.
class ShardService {
 public:
  /// `backend` is owned; `wal` is optional (durable shardd) and borrowed
  /// — every accepted append batch is fsync'd to it before it is acked.
  ShardService(uint32_t shard, std::unique_ptr<StorageBackend> backend,
               WalWriter* wal = nullptr);

  /// Handles one request line (service::LineHandler shape).
  std::string HandleLine(const std::string& line, bool* shutdown_requested);

  const StorageBackend& backend() const { return *backend_; }
  StorageBackend* mutable_backend() { return backend_.get(); }
  uint32_t shard() const { return shard_; }

 private:
  const uint32_t shard_;
  std::unique_ptr<StorageBackend> backend_;
  WalWriter* wal_;
  /// Serializes mutating ops (append/seal/lifecycle) among themselves.
  Mutex mutate_mu_{"ShardService::mutate_mu_"};
};

}  // namespace aptrace::dist

#endif  // APTRACE_DIST_SHARD_SERVICE_H_
