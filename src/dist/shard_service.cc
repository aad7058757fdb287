#include "dist/shard_service.h"

#include <string>
#include <utility>
#include <vector>

#include "dist/dist_error.h"
#include "dist/shard_codec.h"
#include "obs/json_dict.h"
#include "service/json.h"

namespace aptrace::dist {

namespace {

std::string ErrorResponse(const char* code, const std::string& message) {
  obs::JsonDict d;
  d.Add("ok", false);
  d.Add("code", code);
  d.Add("error", message);
  return d.Str();
}

/// Responses lead with the ok flag (JsonDict keeps insertion order).
obs::JsonDict WithOk() {
  obs::JsonDict d;
  d.Add("ok", true);
  return d;
}

/// Decodes the base64 `field` of `req`, enforcing the declared `count`
/// against `unit_bytes`. Throws DistError(DST-E003) on any mismatch.
std::string DecodePayload(const service::JsonValue& req, const char* field,
                          size_t unit_bytes) {
  const service::JsonValue* raw = req.Find(field);
  if (raw == nullptr || !raw->IsString()) {
    throw DistError(kDistErrProtocol,
                    std::string("missing payload field '") + field + "'");
  }
  auto bytes = Base64Decode(raw->str_v);
  if (!bytes.ok()) {
    throw DistError(kDistErrProtocol, bytes.status().message());
  }
  const uint64_t count = req.GetUint("count");
  if (bytes.value().size() != count * unit_bytes) {
    throw DistError(kDistErrProtocol,
                    "payload length disagrees with declared count");
  }
  return std::move(bytes).value();
}

/// Decodes a shard.collect_many request's probe list. Throws
/// DistError(DST-E003) on a list over the cap, a payload that is not
/// whole probe records, or an unknown probe kind.
std::vector<CollectProbe> DecodeProbeList(const service::JsonValue& req) {
  if (req.GetUint("count") > kMaxCollectProbes) {
    throw DistError(kDistErrProtocol,
                    "collect_many carries " +
                        std::to_string(req.GetUint("count")) +
                        " probes, over the cap of " +
                        std::to_string(kMaxCollectProbes));
  }
  auto probes =
      DecodeProbes(DecodePayload(req, "probes", kShardProbeBytes));
  if (!probes.ok()) {
    throw DistError(kDistErrProtocol, probes.status().message());
  }
  return std::move(probes).value();
}

void AddBatchCounters(obs::JsonDict* d, const RangeScanBatch& batch) {
  d->Add("count", static_cast<uint64_t>(batch.rows.size()));
  d->Add("probed", batch.partitions_probed);
  d->Add("seeked", batch.partitions_seeked);
  d->Add("pruned", batch.segments_pruned);
}

}  // namespace

ShardService::ShardService(uint32_t shard,
                           std::unique_ptr<StorageBackend> backend,
                           WalWriter* wal)
    : shard_(shard), backend_(std::move(backend)), wal_(wal) {}

std::string ShardService::HandleLine(const std::string& line,
                                     bool* shutdown_requested) {
  auto parsed = service::ParseJson(line);
  if (!parsed.ok() || !parsed.value().IsObject()) {
    return ErrorResponse(kDistErrProtocol,
                         parsed.ok() ? "request is not a JSON object"
                                     : parsed.status().message());
  }
  const service::JsonValue& req = parsed.value();
  const std::string op = req.GetString("op");

  try {
    obs::JsonDict d = WithOk();

    if (op == "shard.hello") {
      d.Add("proto", kShardProto);
      d.Add("shard", static_cast<uint64_t>(shard_));
      d.Add("backend", backend_->name());
      d.Add("events", static_cast<uint64_t>(backend_->NumEvents()));
      d.Add("tail_rows", static_cast<uint64_t>(backend_->TailRows()));
      d.Add("wal_seq", wal_ != nullptr ? wal_->next_seq() : uint64_t{0});
      d.Add("sealed", backend_->sealed());
      return d.Str();
    }

    if (op == "shard.append") {
      const std::string bytes = DecodePayload(req, "rows", kShardEventBytes);
      auto events = DecodeEvents(bytes);
      if (!events.ok()) {
        return ErrorResponse(kDistErrProtocol, events.status().message());
      }
      MutexLock lock(&mutate_mu_);
      const uint64_t first_lid = req.GetUint("first_lid");
      if (first_lid != backend_->NumEvents()) {
        return ErrorResponse(
            kDistErrAppend,
            "append at lid " + std::to_string(first_lid) +
                " but this shard's next dense id is " +
                std::to_string(backend_->NumEvents()));
      }
      if (wal_ != nullptr) {
        if (auto seq = wal_->AppendBatch(events.value()); !seq.ok()) {
          return ErrorResponse(kDistErrRemoteOp, seq.status().message());
        }
      }
      for (Event& e : events.value()) {
        backend_->Append(std::move(e));
      }
      d.Add("first_lid", first_lid);
      d.Add("appended", static_cast<uint64_t>(events.value().size()));
      return d.Str();
    }

    if (op == "shard.seal") {
      MutexLock lock(&mutate_mu_);
      backend_->Seal();
      d.Add("events", static_cast<uint64_t>(backend_->NumEvents()));
      return d.Str();
    }

    if (op == "shard.collect_dest" || op == "shard.collect_src" ||
        op == "shard.collect_range" || op == "shard.collect_many") {
      const bool many = op == "shard.collect_many";
      std::vector<CollectProbe> probes;
      if (many) {
        probes = DecodeProbeList(req);
      } else {
        CollectProbe probe;
        probe.kind = op == "shard.collect_range" ? ProbeKind::kRange
                     : op == "shard.collect_src" ? ProbeKind::kSrc
                                                 : ProbeKind::kDest;
        if (probe.kind != ProbeKind::kRange) probe.key = req.GetUint("key");
        probe.begin = req.GetInt("begin");
        probe.end = req.GetInt("end");
        probes.push_back(probe);
      }
      const std::vector<RangeScanBatch> batches =
          backend_->CollectMany(probes);
      // The backend's rows already carry this shard's local ids.
      if (!many) {
        d.Add("rows", Base64Encode(EncodeRows(batches[0].rows)));
        AddBatchCounters(&d, batches[0]);
        return d.Str();
      }
      std::string rows;
      std::vector<uint64_t> counters;
      counters.reserve(batches.size() * kProbeCounters);
      uint64_t total = 0;
      for (const RangeScanBatch& b : batches) {
        rows += EncodeRows(b.rows);
        total += b.rows.size();
        counters.insert(counters.end(),
                        {b.rows.size(), b.partitions_probed,
                         b.partitions_seeked, b.segments_pruned});
      }
      d.Add("rows", Base64Encode(rows));
      d.Add("count", total);
      d.Add("probes", Base64Encode(EncodeU64s(counters)));
      return d.Str();
    }

    if (op == "shard.has_incoming_write") {
      d.Add("found",
            backend_->HasIncomingWrite(req.GetUint("key"),
                                       req.GetInt("begin"),
                                       req.GetInt("end")));
      return d.Str();
    }

    if (op == "shard.flow_dests") {
      const std::vector<ObjectId> ids = backend_->FlowDestsOf(
          req.GetUint("key"), req.GetInt("begin"), req.GetInt("end"));
      d.Add("ids", Base64Encode(EncodeU64s(ids)));
      d.Add("count", static_cast<uint64_t>(ids.size()));
      return d.Str();
    }

    if (op == "shard.fetch") {
      const std::string bytes = DecodePayload(req, "lids", 8);
      auto lids = DecodeU64s(bytes);
      if (!lids.ok()) {
        return ErrorResponse(kDistErrProtocol, lids.status().message());
      }
      std::vector<Event> rows;
      rows.reserve(lids.value().size());
      for (const uint64_t lid : lids.value()) {
        if (lid >= backend_->NumEvents()) {
          return ErrorResponse(kDistErrProtocol,
                               "fetch of unknown local id " +
                                   std::to_string(lid));
        }
        Event e = backend_->Get(lid);
        e.id = lid;
        rows.push_back(e);
      }
      d.Add("rows", Base64Encode(EncodeRows(rows)));
      d.Add("count", static_cast<uint64_t>(rows.size()));
      return d.Str();
    }

    if (op == "shard.seal_tail") {
      MutexLock lock(&mutate_mu_);
      d.Add("rows", static_cast<uint64_t>(backend_->SealTail()));
      return d.Str();
    }

    if (op == "shard.compact") {
      MutexLock lock(&mutate_mu_);
      d.Add("units", static_cast<uint64_t>(backend_->Compact()));
      return d.Str();
    }

    if (op == "shard.evict") {
      MutexLock lock(&mutate_mu_);
      d.Add("rows", static_cast<uint64_t>(
                        backend_->EvictBefore(req.GetInt("horizon"))));
      return d.Str();
    }

    if (op == "shard.stats") {
      const StoreStats s = backend_->stats();
      d.Add("queries", s.queries);
      d.Add("rows_matched", s.rows_matched);
      d.Add("rows_filtered", s.rows_filtered);
      d.Add("partitions_probed", s.partitions_probed);
      d.Add("partitions_seeked", s.partitions_seeked);
      d.Add("segments_pruned", s.segments_pruned);
      d.Add("simulated_cost_micros",
            static_cast<uint64_t>(s.simulated_cost));
      return d.Str();
    }

    if (op == "shard.snapshot") {
      d.Add("shard", static_cast<uint64_t>(shard_));
      d.Add("events", static_cast<uint64_t>(backend_->NumEvents()));
      d.Add("tail_rows", static_cast<uint64_t>(backend_->TailRows()));
      d.Add("sealed", backend_->sealed());
      d.Add("min_time", static_cast<int64_t>(backend_->MinTime()));
      d.Add("max_time", static_cast<int64_t>(backend_->MaxTime()));
      return d.Str();
    }

    if (op == "shard.shutdown") {
      *shutdown_requested = true;
      d.Add("draining", true);
      return d.Str();
    }

    return ErrorResponse(kDistErrProtocol, "unknown op '" + op + "'");
  } catch (const DistError& e) {
    return ErrorResponse(e.code(), e.what());
  }
}

}  // namespace aptrace::dist
