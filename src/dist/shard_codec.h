#ifndef APTRACE_DIST_SHARD_CODEC_H_
#define APTRACE_DIST_SHARD_CODEC_H_

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "event/event.h"
#include "storage/storage_backend.h"
#include "util/status.h"

namespace aptrace::dist {

/// Binary-in-JSON payload codec for the shard-RPC vocabulary
/// (docs/distribution.md). Row batches cross the line-delimited JSON
/// transport as one base64 string per message instead of one JSON object
/// per row — a collect response carrying 10k rows is one allocation and
/// one decode pass, not 10k parser excursions.
///
/// Wire layouts (little-endian, fixed width):
///
///   event       36 bytes — identical to the WAL event codec
///               (storage/wal.h): i64 timestamp, u64 subject, u64 object,
///               u64 amount, u16 host, u8 action, u8 direction. EventIds
///               are never encoded; the decoder stamps the id the caller
///               supplies (append payloads let the shard assign dense
///               local ids; row payloads carry the id alongside).
///   row         44 bytes — u64 local id + the 36-byte event.
///   probe       25 bytes — u8 kind (0 dest, 1 src, 2 range), u64 key,
///               i64 begin, i64 end (shard.collect_many requests).
///   id list     8 bytes per u64.
///
/// Every decoder validates length divisibility and the declared count and
/// fails with a DST-E003-worthy message rather than reading garbage.

/// Bytes of one encoded event / one encoded (lid, event) row.
inline constexpr size_t kShardEventBytes = 36;
inline constexpr size_t kShardRowBytes = kShardEventBytes + 8;
inline constexpr size_t kShardProbeBytes = 25;

/// u64 counters per probe in a shard.collect_many reply, packed as an id
/// list: rows, probed, seeked, pruned.
inline constexpr size_t kProbeCounters = 4;

/// Most probes one shard.collect_many request may carry; the daemon
/// refuses more (DST-E003) and RemoteShardBackend splits longer lists.
inline constexpr size_t kMaxCollectProbes = 1024;

/// Standard base64 (RFC 4648, with padding). Decode rejects any input
/// that is not a whole number of valid groups.
std::string Base64Encode(std::string_view bytes);
Result<std::string> Base64Decode(std::string_view text);

/// Events without ids (append payloads: the shard assigns dense lids).
std::string EncodeEvents(const std::vector<Event>& events);
Result<std::vector<Event>> DecodeEvents(std::string_view bytes);

/// (local id, event) rows (collect/fetch responses). Decoded events carry
/// their local id in Event::id.
std::string EncodeRows(const std::vector<Event>& rows);
Result<std::vector<Event>> DecodeRows(std::string_view bytes);

/// Collect probes (shard.collect_many requests). Decode rejects a
/// payload that is not whole probe records or names an unknown kind.
std::string EncodeProbes(std::span<const CollectProbe> probes);
Result<std::vector<CollectProbe>> DecodeProbes(std::string_view bytes);

/// Packed u64 lists (lids in fetch requests, object ids in flow_dests
/// responses).
std::string EncodeU64s(const std::vector<uint64_t>& values);
Result<std::vector<uint64_t>> DecodeU64s(std::string_view bytes);

}  // namespace aptrace::dist

#endif  // APTRACE_DIST_SHARD_CODEC_H_
