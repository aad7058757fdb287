#include "dist/remote_backend.h"

#include <algorithm>
#include <string>
#include <utility>

#include "dist/dist_error.h"
#include "dist/shard_codec.h"
#include "obs/json_dict.h"

namespace aptrace::dist {

namespace {

/// The base64 payload `field` of a shard reply, decoded. Throws
/// DistError(DST-E003) when it is not valid base64.
std::string DecodeReplyField(const service::JsonValue& resp,
                             const char* field) {
  auto bytes = Base64Decode(resp.GetString(field));
  if (!bytes.ok()) {
    throw DistError(kDistErrProtocol, bytes.status().message());
  }
  return std::move(bytes).value();
}

/// Appends to `out` the `probes` batches of one shard.collect_many
/// reply. Throws DistError(DST-E003) on a reply that does not carry one
/// counter record per probe with row counts that cover its rows exactly.
void SplitCollectReply(const service::JsonValue& resp, size_t probes,
                       std::vector<RangeScanBatch>* out) {
  auto rows = DecodeRows(DecodeReplyField(resp, "rows"));
  if (!rows.ok()) {
    throw DistError(kDistErrProtocol, rows.status().message());
  }
  if (rows.value().size() != resp.GetUint("count")) {
    throw DistError(kDistErrProtocol,
                    "collect payload row count disagrees with the "
                    "declared count");
  }
  auto counters = DecodeU64s(DecodeReplyField(resp, "probes"));
  if (!counters.ok() || counters.value().size() != probes * kProbeCounters) {
    throw DistError(kDistErrProtocol,
                    "collect reply does not carry one counter record "
                    "per probe");
  }
  // Split the rows by the per-probe counts, which must cover them
  // exactly; each count is checked against the rows left, so a hostile
  // count can neither overflow a sum nor index past the rows.
  const std::vector<uint64_t>& c = counters.value();
  const std::vector<Event>& all = rows.value();
  size_t taken = 0;
  size_t split = 0;
  for (; split < probes; ++split) {
    const uint64_t* rec = &c[split * kProbeCounters];
    if (rec[0] > all.size() - taken) break;
    RangeScanBatch batch;
    const auto first = all.begin() + static_cast<std::ptrdiff_t>(taken);
    taken += rec[0];
    batch.rows.assign(first, all.begin() + static_cast<std::ptrdiff_t>(taken));
    batch.partitions_probed = rec[1];
    batch.partitions_seeked = rec[2];
    batch.segments_pruned = rec[3];
    out->push_back(std::move(batch));
  }
  if (split != probes || taken != all.size()) {
    throw DistError(kDistErrProtocol,
                    "collect reply's per-probe row counts do not sum to "
                    "its " + std::to_string(all.size()) + " rows");
  }
}

}  // namespace

RemoteShardBackend::RemoteShardBackend(std::shared_ptr<ShardClient> client,
                                       StorageBackendKind kind,
                                       CostModel cost_model)
    : StorageBackend(kind, cost_model), client_(std::move(client)) {}

RemoteShardBackend::~RemoteShardBackend() = default;

const BackendCapabilities& RemoteShardBackend::capabilities() const {
  // Mirrors of the concrete backends' capability blocks: the remote
  // daemon hosts exactly one of these kinds, verified at handshake.
  static const BackendCapabilities kRowCaps = {
      .probe_unit = "time partition",
      .collect_batch = kCollectBatch,
  };
  static const BackendCapabilities kColumnarCaps = {
      .probe_unit = "column segment",
      .collect_batch = kCollectBatch,
  };
  return kind() == StorageBackendKind::kColumnar ? kColumnarCaps : kRowCaps;
}

void RemoteShardBackend::FlushAppends() {
  if (pending_.empty()) return;
  obs::JsonDict fields;
  fields.Add("rows", Base64Encode(EncodeEvents(pending_)));
  fields.Add("count", static_cast<uint64_t>(pending_.size()));
  fields.Add("first_lid", static_cast<uint64_t>(pending_first_lid_));
  const service::JsonValue resp = client_->Call("shard.append", fields);
  if (resp.GetUint("appended") != pending_.size()) {
    throw DistError(kDistErrAppend,
                    "shard " + std::to_string(client_->shard()) +
                        " acknowledged " +
                        std::to_string(resp.GetUint("appended")) +
                        " of " + std::to_string(pending_.size()) +
                        " appended rows");
  }
  pending_.clear();
}

EventId RemoteShardBackend::Append(Event event) {
  NoteAppend(event);
  const EventId lid = num_events_++;
  if (pending_.empty()) pending_first_lid_ = lid;
  pending_.push_back(std::move(event));
  if (sealed()) {
    // Streaming path: the daemon must hold the row before the next
    // quantum queries it.
    FlushAppends();
    if (kind() == StorageBackendKind::kColumnar) tail_rows_++;
  } else if (pending_.size() >= kAppendBatch) {
    FlushAppends();
  }
  return lid;
}

void RemoteShardBackend::Seal() {
  FlushAppends();
  const service::JsonValue resp = client_->Call("shard.seal");
  if (resp.GetUint("events") != num_events_) {
    throw DistError(kDistErrAppend,
                    "shard " + std::to_string(client_->shard()) +
                        " sealed with " +
                        std::to_string(resp.GetUint("events")) +
                        " events, coordinator loaded " +
                        std::to_string(num_events_));
  }
  MarkSealed(num_events_ == 0);
}

Event RemoteShardBackend::Get(EventId id) const {
  obs::JsonDict fields;
  fields.Add("lids", Base64Encode(EncodeU64s({id})));
  fields.Add("count", uint64_t{1});
  const service::JsonValue resp = client_->Call("shard.fetch", fields);
  auto rows = DecodeRows(DecodeReplyField(resp, "rows"));
  if (!rows.ok() || rows.value().size() != 1) {
    throw DistError(kDistErrProtocol,
                    "shard.fetch returned " +
                        std::to_string(rows.ok() ? rows.value().size() : 0) +
                        " rows for one lid");
  }
  return rows.value()[0];
}

FinishCollect RemoteShardBackend::StartCollectMany(
    std::span<const CollectProbe> probes) const {
  // Every request is sent before any reply is read. PendingCall is
  // move-only and std::function must be copyable, hence the shared_ptr.
  auto calls = std::make_shared<std::vector<ShardClient::PendingCall>>();
  for (size_t off = 0; off < probes.size(); off += kMaxCollectProbes) {
    const std::span<const CollectProbe> chunk = probes.subspan(
        off, std::min(kMaxCollectProbes, probes.size() - off));
    obs::JsonDict fields;
    fields.Add("probes", Base64Encode(EncodeProbes(chunk)));
    fields.Add("count", static_cast<uint64_t>(chunk.size()));
    calls->push_back(client_->Start("shard.collect_many", fields));
  }
  return FinishCollect([this, calls, n = probes.size()] {
    std::vector<RangeScanBatch> out;
    out.reserve(n);
    for (ShardClient::PendingCall& call : *calls) {
      SplitCollectReply(client_->Finish(std::move(call)),
                        std::min(kMaxCollectProbes, n - out.size()), &out);
    }
    return out;
  });
}

RangeScanBatch RemoteShardBackend::CollectDest(ObjectId dest, TimeMicros begin,
                                               TimeMicros end) const {
  const CollectProbe probe{ProbeKind::kDest, dest, begin, end};
  return std::move(CollectMany({&probe, 1})[0]);
}

RangeScanBatch RemoteShardBackend::CollectSrc(ObjectId src, TimeMicros begin,
                                              TimeMicros end) const {
  const CollectProbe probe{ProbeKind::kSrc, src, begin, end};
  return std::move(CollectMany({&probe, 1})[0]);
}

RangeScanBatch RemoteShardBackend::CollectRange(TimeMicros begin,
                                                TimeMicros end) const {
  const CollectProbe probe{ProbeKind::kRange, kInvalidObjectId, begin, end};
  return std::move(CollectMany({&probe, 1})[0]);
}

bool RemoteShardBackend::HasIncomingWrite(ObjectId object, TimeMicros begin,
                                          TimeMicros end) const {
  obs::JsonDict fields;
  fields.Add("key", static_cast<uint64_t>(object));
  fields.Add("begin", static_cast<int64_t>(begin));
  fields.Add("end", static_cast<int64_t>(end));
  return client_->Call("shard.has_incoming_write", fields).GetBool("found");
}

std::vector<ObjectId> RemoteShardBackend::FlowDestsOf(ObjectId src,
                                                      TimeMicros begin,
                                                      TimeMicros end) const {
  obs::JsonDict fields;
  fields.Add("key", static_cast<uint64_t>(src));
  fields.Add("begin", static_cast<int64_t>(begin));
  fields.Add("end", static_cast<int64_t>(end));
  const service::JsonValue resp = client_->Call("shard.flow_dests", fields);
  auto ids = DecodeU64s(DecodeReplyField(resp, "ids"));
  if (!ids.ok()) {
    throw DistError(kDistErrProtocol, ids.status().message());
  }
  return std::move(ids).value();
}

size_t RemoteShardBackend::SealTail() {
  const size_t rows = client_->Call("shard.seal_tail").GetUint("rows");
  tail_rows_ = 0;
  return rows;
}

size_t RemoteShardBackend::Compact() {
  return client_->Call("shard.compact").GetUint("units");
}

size_t RemoteShardBackend::EvictBefore(TimeMicros horizon) {
  obs::JsonDict fields;
  fields.Add("horizon", static_cast<int64_t>(horizon));
  return client_->Call("shard.evict", fields).GetUint("rows");
}

}  // namespace aptrace::dist
