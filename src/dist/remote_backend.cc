#include "dist/remote_backend.h"

#include <string>
#include <utility>

#include "dist/dist_error.h"
#include "dist/shard_codec.h"
#include "obs/json_dict.h"

namespace aptrace::dist {

RemoteShardBackend::RemoteShardBackend(std::shared_ptr<ShardClient> client,
                                       StorageBackendKind kind,
                                       CostModel cost_model)
    : StorageBackend(kind, cost_model), client_(std::move(client)) {}

RemoteShardBackend::~RemoteShardBackend() = default;

const BackendCapabilities& RemoteShardBackend::capabilities() const {
  // Mirrors of the concrete backends' capability blocks: the remote
  // daemon hosts exactly one of these kinds, verified at handshake.
  static const BackendCapabilities kRowCaps = {
      .streaming_append = true,
      .zone_map_pruning = false,
      .probe_unit = "time partition",
  };
  static const BackendCapabilities kColumnarCaps = {
      .streaming_append = true,
      .zone_map_pruning = true,
      .probe_unit = "column segment",
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
  auto bytes = Base64Decode(resp.GetString("rows"));
  if (!bytes.ok()) {
    throw DistError(kDistErrProtocol, bytes.status().message());
  }
  auto rows = DecodeRows(bytes.value());
  if (!rows.ok() || rows.value().size() != 1) {
    throw DistError(kDistErrProtocol,
                    "shard.fetch returned " +
                        std::to_string(rows.ok() ? rows.value().size() : 0) +
                        " rows for one lid");
  }
  return rows.value()[0];
}

RangeScanBatch RemoteShardBackend::CollectRpc(const char* op, ObjectId key,
                                              TimeMicros begin,
                                              TimeMicros end) const {
  obs::JsonDict fields;
  if (key != kInvalidObjectId) {
    fields.Add("key", static_cast<uint64_t>(key));
  }
  fields.Add("begin", static_cast<int64_t>(begin));
  fields.Add("end", static_cast<int64_t>(end));
  const service::JsonValue resp = client_->Call(op, fields);

  auto bytes = Base64Decode(resp.GetString("rows"));
  if (!bytes.ok()) {
    throw DistError(kDistErrProtocol, bytes.status().message());
  }
  auto rows = DecodeRows(bytes.value());
  if (!rows.ok()) {
    throw DistError(kDistErrProtocol, rows.status().message());
  }
  if (rows.value().size() != resp.GetUint("count")) {
    throw DistError(kDistErrProtocol,
                    "collect payload row count disagrees with the "
                    "declared count");
  }
  RangeScanBatch batch;
  batch.rows = std::move(rows).value();
  batch.partitions_probed = resp.GetUint("probed");
  batch.partitions_seeked = resp.GetUint("seeked");
  batch.segments_pruned = resp.GetUint("pruned");
  return batch;
}

RangeScanBatch RemoteShardBackend::CollectDest(ObjectId dest, TimeMicros begin,
                                               TimeMicros end) const {
  return CollectRpc("shard.collect_dest", dest, begin, end);
}

RangeScanBatch RemoteShardBackend::CollectSrc(ObjectId src, TimeMicros begin,
                                              TimeMicros end) const {
  return CollectRpc("shard.collect_src", src, begin, end);
}

RangeScanBatch RemoteShardBackend::CollectRange(TimeMicros begin,
                                                TimeMicros end) const {
  return CollectRpc("shard.collect_range", kInvalidObjectId, begin, end);
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
  auto bytes = Base64Decode(resp.GetString("ids"));
  if (!bytes.ok()) {
    throw DistError(kDistErrProtocol, bytes.status().message());
  }
  auto ids = DecodeU64s(bytes.value());
  if (!ids.ok()) {
    throw DistError(kDistErrProtocol, ids.status().message());
  }
  return std::move(ids).value();
}

size_t RemoteShardBackend::SealTail(WorkerPool* pool) {
  (void)pool;  // parallelism is the daemon's concern
  const size_t rows = client_->Call("shard.seal_tail").GetUint("rows");
  tail_rows_ = 0;
  return rows;
}

size_t RemoteShardBackend::Compact(WorkerPool* pool) {
  (void)pool;
  return client_->Call("shard.compact").GetUint("units");
}

size_t RemoteShardBackend::EvictBefore(TimeMicros horizon) {
  obs::JsonDict fields;
  fields.Add("horizon", static_cast<int64_t>(horizon));
  return client_->Call("shard.evict", fields).GetUint("rows");
}

}  // namespace aptrace::dist
