#include "storage/event_store.h"

#include <utility>

#include "obs/trace.h"
#include "storage/columnar_backend.h"
#include "storage/row_store_backend.h"
#include "util/logging.h"

namespace aptrace {

namespace {

std::unique_ptr<StorageBackend> MakeBackend(const EventStoreOptions& options) {
  switch (options.backend) {
    case StorageBackendKind::kColumnar:
      return std::make_unique<ColumnarSegmentBackend>(options.cost_model,
                                                      options.segment_rows);
    case StorageBackendKind::kRow:
      break;
  }
  return std::make_unique<RowStoreBackend>(options.cost_model,
                                           options.partition_micros);
}

}  // namespace

EventStore::EventStore(EventStoreOptions options)
    : options_(std::move(options)) {
  if (options_.partition_micros <= 0) {
    options_.partition_micros = kMicrosPerHour;
  }
  if (options_.shards < 1) options_.shards = 1;
  if (options_.shards > kMaxStoreShards) options_.shards = kMaxStoreShards;
  if (options_.shards > 1) {
    auto sharded = std::make_unique<ShardedStore>(options_, &catalog_);
    sharded_ = sharded.get();
    backend_ = std::move(sharded);
  } else {
    backend_ = MakeBackend(options_);
  }
}

EventStore::~EventStore() = default;

void EventStore::Seal() {
  if (backend_->sealed()) return;
  backend_->Seal();
  APTRACE_LOG(Info) << "EventStore sealed (" << backend_->name()
                    << " backend, " << shard_count()
                    << " shard(s)): " << backend_->NumEvents() << " events, "
                    << catalog_.size() << " objects";
}

ShardedStore::Snapshot EventStore::ShardSnapshot() const {
  if (sharded_ != nullptr) return sharded_->TakeSnapshot();
  ShardedStore::Snapshot snap;
  snap.total = backend_->stats();
  ShardedStore::ShardStatsRow row;
  row.shard = 0;
  row.resident_rows = backend_->NumEvents();
  row.tail_rows = backend_->TailRows();
  row.stats = snap.total;
  snap.shards.push_back(row);
  return snap;
}

RangeScanBatch EventStore::CollectDest(ObjectId dest, TimeMicros begin,
                                       TimeMicros end) const {
  APTRACE_SPAN("store/collect");
  return backend_->CollectDest(dest, begin, end);
}

RangeScanBatch EventStore::CollectSrc(ObjectId src, TimeMicros begin,
                                      TimeMicros end) const {
  APTRACE_SPAN("store/collect");
  return backend_->CollectSrc(src, begin, end);
}

RangeScanBatch EventStore::CollectRange(TimeMicros begin,
                                        TimeMicros end) const {
  APTRACE_SPAN("store/collect");
  return backend_->CollectRange(begin, end);
}

std::vector<RangeScanBatch> EventStore::CollectMany(
    std::span<const CollectProbe> probes) const {
  APTRACE_SPAN("store/collect");
  return backend_->CollectMany(probes);
}

size_t EventStore::ReplayScan(const RangeScanBatch& batch, Clock* clock,
                              const std::function<void(const Event&)>& fn,
                              const RowFilter& filter,
                              DurationMicros* cost_out,
                              ScanProbeStats* probe_out) const {
  APTRACE_SPAN("store/replay");
  return backend_->ReplayScan(batch, clock, fn, filter, cost_out, probe_out);
}

size_t EventStore::ScanDest(ObjectId dest, TimeMicros begin, TimeMicros end,
                            Clock* clock,
                            const std::function<void(const Event&)>& fn,
                            const RowFilter& filter,
                            DurationMicros* cost_out,
                            ScanProbeStats* probe_out) const {
  return ReplayScan(CollectDest(dest, begin, end), clock, fn, filter,
                    cost_out, probe_out);
}

size_t EventStore::ScanSrc(ObjectId src, TimeMicros begin, TimeMicros end,
                           Clock* clock,
                           const std::function<void(const Event&)>& fn,
                           const RowFilter& filter,
                           DurationMicros* cost_out,
                           ScanProbeStats* probe_out) const {
  return ReplayScan(CollectSrc(src, begin, end), clock, fn, filter, cost_out,
                    probe_out);
}

size_t EventStore::ScanRange(TimeMicros begin, TimeMicros end, Clock* clock,
                             const std::function<void(const Event&)>& fn)
    const {
  return ReplayScan(CollectRange(begin, end), clock, fn);
}

}  // namespace aptrace
