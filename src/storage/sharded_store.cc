#include "storage/sharded_store.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <string>
#include <utility>

#include "dist/dist_error.h"
#include "obs/metrics.h"
#include "obs/names.h"
#include "obs/trace.h"
#include "storage/columnar_backend.h"
#include "storage/event_store.h"
#include "storage/row_store_backend.h"
#include "util/logging.h"

namespace aptrace {

namespace {

/// Floor division (partition slices must be stable across negative
/// timestamps, matching RowStoreBackend's partition indexing).
int64_t FloorDiv(int64_t a, int64_t b) {
  int64_t q = a / b;
  if ((a % b != 0) && ((a < 0) != (b < 0))) --q;
  return q;
}

std::unique_ptr<StorageBackend> MakeShardBackend(
    const EventStoreOptions& options) {
  if (options.backend == StorageBackendKind::kColumnar) {
    return std::make_unique<ColumnarSegmentBackend>(options.cost_model,
                                                    options.segment_rows);
  }
  return std::make_unique<RowStoreBackend>(options.cost_model,
                                           options.partition_micros);
}

void GrowMask(std::vector<uint64_t>* masks, ObjectId id, uint32_t shard) {
  if (id >= masks->size()) masks->resize(id + 1, 0);
  (*masks)[id] |= uint64_t{1} << shard;
}

}  // namespace

struct ShardedStore::ShardMetrics {
  obs::Counter* scans;
  obs::Counter* fanout;
  obs::Counter* boundary_rows;
};

const ShardedStore::ShardMetrics& ShardedStore::Sm() const {
  static const ShardMetrics kMetrics = {
      obs::Metrics().FindOrCreateCounter(obs::names::kStoreShardScans),
      obs::Metrics().FindOrCreateCounter(obs::names::kStoreShardFanout),
      obs::Metrics().FindOrCreateCounter(obs::names::kStoreShardBoundaryRows),
  };
  return kMetrics;
}

ShardedStore::ShardedStore(const EventStoreOptions& options,
                           const ObjectCatalog* catalog)
    : StorageBackend(options.backend, options.cost_model),
      catalog_(catalog),
      partition_micros_(options.partition_micros) {
  size_t n = options.shards;
  if (n < 1) n = 1;
  if (n > kMaxStoreShards) {
    APTRACE_LOG(Warning) << "shard count " << n << " clamped to "
                      << kMaxStoreShards;
    n = kMaxStoreShards;
  }
  shards_.resize(n);
  for (uint32_t i = 0; i < n; ++i) {
    shards_[i].backend = options.shard_backend_factory != nullptr
                             ? options.shard_backend_factory(i, options)
                             : MakeShardBackend(options);
  }
  shard_stats_.resize(n);
  shard_boundary_.resize(n, 0);
  obs::Metrics()
      .FindOrCreateGauge(obs::names::kStoreShards)
      ->Set(static_cast<int64_t>(n));
}

const BackendCapabilities& ShardedStore::capabilities() const {
  return shards_[0].backend->capabilities();
}

uint32_t ShardedStore::RouteShard(HostId host, TimeMicros timestamp) const {
  const auto n = static_cast<int64_t>(shards_.size());
  const int64_t slice = FloorDiv(timestamp, partition_micros_);
  const int64_t mixed = (static_cast<int64_t>(host) % n + slice % n + 2 * n) % n;
  return static_cast<uint32_t>(mixed);
}

EventId ShardedStore::Append(Event event) {
  const uint32_t s = RouteShard(event.host, event.timestamp);
  const EventId gid = meta_.size();
  NoteAppend(event);
  GrowMask(&dest_shards_, event.FlowDest(), s);
  GrowMask(&src_shards_, event.FlowSource(), s);
  meta_.push_back(RowMeta{0, s});
  const EventId lid = shards_[s].backend->Append(std::move(event));
  assert(lid == shards_[s].gid_of.size());
  meta_.back().lid = lid;
  shards_[s].gid_of.push_back(gid);
  return gid;
}

void ShardedStore::Seal() {
  for (Shard& s : shards_) s.backend->Seal();
  MarkSealed(meta_.empty());
}

Event ShardedStore::Get(EventId id) const {
  const RowMeta& m = meta_[id];
  Event e = shards_[m.shard].backend->Get(m.lid);
  // Shards assign their own dense local ids; callers only ever see the
  // coordinator's global id (the monolithic append-order id).
  e.id = id;
  return e;
}

uint64_t ShardedStore::ProbeMask(const CollectProbe& probe) const {
  if (probe.kind == ProbeKind::kRange) {
    return shards_.size() == kMaxStoreShards
               ? ~uint64_t{0}
               : (uint64_t{1} << shards_.size()) - 1;
  }
  return MaskFor(probe.kind == ProbeKind::kSrc ? src_shards_ : dest_shards_,
                 probe.key);
}

FinishCollect ShardedStore::StartCollectMany(
    std::span<const CollectProbe> probes) const {
  uint64_t probed = 0;
  for (const CollectProbe& p : probes) probed |= ProbeMask(p);
  if (probed == 0) {
    return FinishCollect(std::vector<RangeScanBatch>(probes.size()));
  }
  APTRACE_SPAN("store/shard_scan");

  // Group the probes by shard: one collect per probed shard answers all
  // of that shard's probes, in probe order. Only probed shards get a
  // call; calls[k] is the k-th probed shard in shard order.
  struct ShardCall {
    uint32_t shard = 0;
    std::vector<size_t> index;  // positions in `probes`
    std::vector<CollectProbe> probes;
    FinishCollect finish;
    std::vector<RangeScanBatch> batches;
    bool failed = false;
    std::string error;
  };
  std::vector<ShardCall> calls(std::popcount(probed));
  const auto call_of = [&](int s) -> ShardCall& {
    return calls[std::popcount(probed & ((uint64_t{1} << s) - 1))];
  };
  for (uint64_t left = probed; left != 0; left &= left - 1) {
    const int s = std::countr_zero(left);
    call_of(s).shard = static_cast<uint32_t>(s);
  }
  for (size_t i = 0; i < probes.size(); ++i) {
    for (uint64_t left = ProbeMask(probes[i]); left != 0; left &= left - 1) {
      ShardCall& c = call_of(std::countr_zero(left));
      c.index.push_back(i);
      c.probes.push_back(probes[i]);
    }
  }

  // Start every shard's collect before finishing any, then finish them
  // in shard order. Each step catches its own shard's failure: a remote
  // shard that is down must surface as one typed degraded error naming
  // the missing shards — and never hang the query or tear down the
  // coordinator thread.
  for (ShardCall& c : calls) {
    try {
      c.finish = shards_[c.shard].backend->StartCollectMany(c.probes);
    } catch (const std::exception& e) {
      c.failed = true;
      c.error = e.what();
    }
  }
  size_t n_down = 0;
  std::string down;
  for (ShardCall& c : calls) {
    if (!c.failed) {
      try {
        c.batches = c.finish();
        if (c.batches.size() != c.probes.size()) {
          throw dist::DistError(dist::kDistErrProtocol,
                                "collect answered " +
                                    std::to_string(c.batches.size()) +
                                    " of " + std::to_string(c.probes.size()) +
                                    " probes");
        }
      } catch (const std::exception& e) {
        c.failed = true;
        c.error = e.what();
      }
    }
    if (!c.failed) continue;
    if (n_down++ > 0) down += "; ";
    down += "shard " + std::to_string(c.shard) + ": " + c.error;
  }
  if (n_down > 0) {
    throw dist::DistError(
        dist::kDistErrUnavailable,
        "degraded scan: " + std::to_string(n_down) + " of " +
            std::to_string(calls.size()) +
            " probed shards unavailable (" + down + ")");
  }

  std::vector<RangeScanBatch> out(probes.size());
  for (ShardCall& c : calls) {
    for (size_t j = 0; j < c.index.size(); ++j) {
      RangeScanBatch& b = c.batches[j];
      RangeScanBatch& o = out[c.index[j]];
      const CollectProbe& p = c.probes[j];
      const HostId home = p.kind == ProbeKind::kRange
                              ? kInvalidHostId
                              : catalog_->Get(p.key).host();
      ShardScanSlice slice;
      slice.shard = c.shard;
      slice.rows = b.rows.size();
      slice.partitions_probed = b.partitions_probed;
      slice.partitions_seeked = b.partitions_seeked;
      slice.segments_pruned = b.segments_pruned;
      for (Event& e : b.rows) {
        // Shards assign their own dense local ids; callers only ever see
        // the coordinator's global id (the monolithic append-order id).
        e.id = shards_[c.shard].gid_of[e.id];
        if (home != kInvalidHostId && e.host != home) slice.boundary_rows++;
      }
      o.partitions_probed += b.partitions_probed;
      o.partitions_seeked += b.partitions_seeked;
      o.segments_pruned += b.segments_pruned;
      o.shard_slices.push_back(slice);
      // Deterministic merge by (timestamp, gid). Within a shard, local
      // ids are assigned in global append order, so each per-shard list
      // is already (timestamp, gid)-sorted and the merge reproduces
      // exactly the order the monolithic backend would have returned.
      o.rows = o.rows.empty() ? std::move(b.rows)
                              : MergeScanRows(o.rows, b.rows);
    }
  }
  return FinishCollect(std::move(out));
}

RangeScanBatch ShardedStore::CollectDest(ObjectId dest, TimeMicros begin,
                                         TimeMicros end) const {
  const CollectProbe probe{ProbeKind::kDest, dest, begin, end};
  return std::move(CollectMany({&probe, 1})[0]);
}

RangeScanBatch ShardedStore::CollectSrc(ObjectId src, TimeMicros begin,
                                        TimeMicros end) const {
  const CollectProbe probe{ProbeKind::kSrc, src, begin, end};
  return std::move(CollectMany({&probe, 1})[0]);
}

RangeScanBatch ShardedStore::CollectRange(TimeMicros begin,
                                          TimeMicros end) const {
  const CollectProbe probe{ProbeKind::kRange, kInvalidObjectId, begin, end};
  return std::move(CollectMany({&probe, 1})[0]);
}

bool ShardedStore::HasIncomingWrite(ObjectId object, TimeMicros begin,
                                    TimeMicros end) const {
  const uint64_t mask = MaskFor(dest_shards_, object);
  for (uint32_t s = 0; s < shards_.size(); ++s) {
    if ((mask & (uint64_t{1} << s)) == 0) continue;
    if (shards_[s].backend->HasIncomingWrite(object, begin, end)) return true;
  }
  return false;
}

std::vector<ObjectId> ShardedStore::FlowDestsOf(ObjectId src, TimeMicros begin,
                                                TimeMicros end) const {
  std::vector<ObjectId> out;
  const uint64_t mask = MaskFor(src_shards_, src);
  for (uint32_t s = 0; s < shards_.size(); ++s) {
    if ((mask & (uint64_t{1} << s)) == 0) continue;
    std::vector<ObjectId> part = shards_[s].backend->FlowDestsOf(src, begin,
                                                                 end);
    std::vector<ObjectId> merged;
    merged.reserve(out.size() + part.size());
    std::set_union(out.begin(), out.end(), part.begin(), part.end(),
                   std::back_inserter(merged));
    out = std::move(merged);
  }
  return out;
}

void ShardedStore::ChargeSharded(const RangeScanBatch& batch,
                                 const std::vector<uint64_t>& delivered,
                                 const std::vector<uint64_t>& filtered,
                                 uint64_t rows, uint64_t n_filtered,
                                 DurationMicros cost) const {
  uint64_t boundary = 0;
  {
    MutexLock lock(&agg_mu_);
    total_.queries++;
    total_.rows_matched += rows;
    total_.rows_filtered += n_filtered;
    total_.partitions_probed += batch.partitions_probed;
    total_.partitions_seeked += batch.partitions_seeked;
    total_.segments_pruned += batch.segments_pruned;
    total_.simulated_cost += cost;
    for (const ShardScanSlice& slice : batch.shard_slices) {
      StoreStats& st = shard_stats_[slice.shard];
      const uint64_t d =
          slice.shard < delivered.size() ? delivered[slice.shard] : 0;
      const uint64_t f =
          slice.shard < filtered.size() ? filtered[slice.shard] : 0;
      st.queries++;
      st.rows_matched += d;
      st.rows_filtered += f;
      st.partitions_probed += slice.partitions_probed;
      st.partitions_seeked += slice.partitions_seeked;
      st.segments_pruned += slice.segments_pruned;
      // The per-query overhead belongs to the coordinator, not any one
      // shard: sum(shard costs) + queries * overhead == total cost.
      st.simulated_cost +=
          cost_model().QueryCost(d, f, slice.partitions_probed,
                                 slice.partitions_seeked) -
          cost_model().QueryCost(0, 0, 0, 0);
      shard_boundary_[slice.shard] += slice.boundary_rows;
      boundary += slice.boundary_rows;
    }
  }
  const ShardMetrics& m = Sm();
  m.scans->Add();
  m.fanout->Add(batch.shard_slices.size());
  m.boundary_rows->Add(boundary);
}

size_t ShardedStore::ReplayScan(const RangeScanBatch& batch, Clock* clock,
                                const std::function<void(const Event&)>& fn,
                                const RowFilter& filter,
                                DurationMicros* cost_out,
                                ScanProbeStats* probe_out) const {
  assert(sealed());
  std::vector<uint64_t> delivered(shards_.size(), 0);
  std::vector<uint64_t> filtered_by(shards_.size(), 0);
  size_t rows = 0;
  size_t filtered = 0;
  for (const Event& e : batch.rows) {
    const uint32_t s = meta_[e.id].shard;
    if (filter && !filter(e)) {
      filtered++;
      filtered_by[s]++;
      continue;
    }
    rows++;
    delivered[s]++;
    if (fn) fn(e);
  }
  const DurationMicros cost = cost_model().QueryCost(
      rows, filtered, batch.partitions_probed, batch.partitions_seeked);
  if (clock != nullptr) clock->AdvanceMicros(cost);
  if (cost_out != nullptr) *cost_out = cost;
  if (probe_out != nullptr) {
    probe_out->rows_delivered = rows;
    probe_out->rows_filtered = filtered;
    probe_out->partitions_probed = batch.partitions_probed;
    probe_out->partitions_seeked = batch.partitions_seeked;
    probe_out->segments_pruned = batch.segments_pruned;
    probe_out->shard_probes = batch.shard_slices.size();
  }
  ChargeSharded(batch, delivered, filtered_by, rows, filtered, cost);
  ChargeQueryMetrics(rows + filtered, filtered, batch.segments_pruned);
  return rows;
}

size_t ShardedStore::SealTail() {
  size_t sealed_rows = 0;
  for (Shard& s : shards_) sealed_rows += s.backend->SealTail();
  return sealed_rows;
}

size_t ShardedStore::Compact() {
  size_t reclaimed = 0;
  for (Shard& s : shards_) reclaimed += s.backend->Compact();
  return reclaimed;
}

size_t ShardedStore::EvictBefore(TimeMicros horizon) {
  size_t evicted = 0;
  for (Shard& s : shards_) evicted += s.backend->EvictBefore(horizon);
  return evicted;
}

size_t ShardedStore::TailRows() const {
  size_t rows = 0;
  for (const Shard& s : shards_) rows += s.backend->TailRows();
  return rows;
}

StoreStats ShardedStore::stats() const {
  MutexLock lock(&agg_mu_);
  return total_;
}

void ShardedStore::ResetStats() {
  MutexLock lock(&agg_mu_);
  total_ = StoreStats{};
  for (StoreStats& s : shard_stats_) s = StoreStats{};
  for (uint64_t& b : shard_boundary_) b = 0;
}

ShardedStore::Snapshot ShardedStore::TakeSnapshot() const {
  Snapshot snap;
  MutexLock lock(&agg_mu_);
  snap.total = total_;
  snap.shards.resize(shards_.size());
  for (uint32_t s = 0; s < shards_.size(); ++s) {
    ShardStatsRow& row = snap.shards[s];
    row.shard = s;
    row.resident_rows = shards_[s].gid_of.size();
    row.tail_rows = shards_[s].backend->TailRows();
    row.stats = shard_stats_[s];
    row.boundary_rows = shard_boundary_[s];
  }
  return snap;
}

}  // namespace aptrace
