#include "storage/row_store_backend.h"

#include <algorithm>
#include <cassert>

#include "obs/trace.h"

namespace aptrace {

namespace {

// Returns [first, last) subrange of `ids` with timestamps in [begin, end).
std::pair<size_t, size_t> TimeBounds(const std::vector<EventId>& ids,
                                     const std::vector<Event>& events,
                                     TimeMicros begin, TimeMicros end) {
  const auto lo = std::lower_bound(
      ids.begin(), ids.end(), begin,
      [&](EventId id, TimeMicros t) { return events[id].timestamp < t; });
  const auto hi = std::lower_bound(
      lo, ids.end(), end,
      [&](EventId id, TimeMicros t) { return events[id].timestamp < t; });
  return {static_cast<size_t>(lo - ids.begin()),
          static_cast<size_t>(hi - ids.begin())};
}

}  // namespace

RowStoreBackend::RowStoreBackend(CostModel cost_model,
                                 DurationMicros partition_micros)
    : StorageBackend(StorageBackendKind::kRow, cost_model),
      partition_micros_(partition_micros) {
  if (partition_micros_ <= 0) partition_micros_ = kMicrosPerHour;
}

const BackendCapabilities& RowStoreBackend::capabilities() const {
  static const BackendCapabilities kCaps = {
      .probe_unit = "time partition",
  };
  return kCaps;
}

EventId RowStoreBackend::Append(Event event) {
  const EventId id = events_.size();
  event.id = id;
  NoteAppend(event);
  events_.push_back(event);
  if (sealed()) IndexEvent(events_.back());
  return id;
}

void RowStoreBackend::IndexEvent(const Event& e) {
  Partition& p = partitions_[PartitionIndex(e.timestamp)];
  const auto by_time = [this](EventId a, EventId b) {
    const Event& ea = events_[a];
    const Event& eb = events_[b];
    if (ea.timestamp != eb.timestamp) return ea.timestamp < eb.timestamp;
    return a < b;
  };
  const auto insert_sorted = [&](std::vector<EventId>& ids) {
    ids.insert(std::upper_bound(ids.begin(), ids.end(), e.id, by_time),
               e.id);
  };
  insert_sorted(p.by_dest[e.FlowDest()]);
  insert_sorted(p.by_src[e.FlowSource()]);
  insert_sorted(p.all);
}

int64_t RowStoreBackend::PartitionIndex(TimeMicros t) const {
  // Floor division (timestamps may in principle be negative).
  int64_t q = t / partition_micros_;
  if (t % partition_micros_ < 0) q -= 1;
  return q;
}

void RowStoreBackend::Seal() {
  if (sealed()) return;
  APTRACE_SPAN("store/seal");
  for (const Event& e : events_) {
    Partition& p = partitions_[PartitionIndex(e.timestamp)];
    p.by_dest[e.FlowDest()].push_back(e.id);
    p.by_src[e.FlowSource()].push_back(e.id);
    p.all.push_back(e.id);
  }
  const auto by_time = [this](EventId a, EventId b) {
    const Event& ea = events_[a];
    const Event& eb = events_[b];
    if (ea.timestamp != eb.timestamp) return ea.timestamp < eb.timestamp;
    return a < b;
  };
  for (auto& [idx, p] : partitions_) {
    (void)idx;
    for (auto& [obj, ids] : p.by_dest) {
      (void)obj;
      std::sort(ids.begin(), ids.end(), by_time);
    }
    for (auto& [obj, ids] : p.by_src) {
      (void)obj;
      std::sort(ids.begin(), ids.end(), by_time);
    }
    std::sort(p.all.begin(), p.all.end(), by_time);
  }
  MarkSealed(events_.empty());
}

RangeScanBatch RowStoreBackend::CollectImpl(bool by_src, ObjectId key,
                                            TimeMicros begin,
                                            TimeMicros end) const {
  assert(sealed());
  RangeScanBatch batch;
  if (begin >= end) return batch;
  const int64_t p_lo = PartitionIndex(begin);
  const int64_t p_hi = PartitionIndex(end - 1);
  for (auto it = partitions_.lower_bound(p_lo);
       it != partitions_.end() && it->first <= p_hi; ++it) {
    batch.partitions_probed++;
    const auto& index = by_src ? it->second.by_src : it->second.by_dest;
    const auto found = index.find(key);
    if (found == index.end()) continue;
    const auto [lo, hi] = TimeBounds(found->second, events_, begin, end);
    if (lo == hi) continue;
    batch.partitions_seeked++;
    for (size_t i = lo; i < hi; ++i) {
      batch.rows.push_back(events_[found->second[i]]);
    }
  }
  return batch;
}

RangeScanBatch RowStoreBackend::CollectDest(ObjectId dest, TimeMicros begin,
                                            TimeMicros end) const {
  return CollectImpl(/*by_src=*/false, dest, begin, end);
}

RangeScanBatch RowStoreBackend::CollectSrc(ObjectId src, TimeMicros begin,
                                           TimeMicros end) const {
  return CollectImpl(/*by_src=*/true, src, begin, end);
}

RangeScanBatch RowStoreBackend::CollectRange(TimeMicros begin,
                                             TimeMicros end) const {
  assert(sealed());
  RangeScanBatch batch;
  if (begin >= end) return batch;
  const int64_t p_lo = PartitionIndex(begin);
  const int64_t p_hi = PartitionIndex(end - 1);
  for (auto it = partitions_.lower_bound(p_lo);
       it != partitions_.end() && it->first <= p_hi; ++it) {
    // Full scans read every overlapping partition: probed and seeked.
    batch.partitions_probed++;
    batch.partitions_seeked++;
    const auto [lo, hi] = TimeBounds(it->second.all, events_, begin, end);
    for (size_t i = lo; i < hi; ++i) {
      batch.rows.push_back(events_[it->second.all[i]]);
    }
  }
  return batch;
}

bool RowStoreBackend::HasIncomingWrite(ObjectId object, TimeMicros begin,
                                       TimeMicros end) const {
  assert(sealed());
  if (begin >= end) return false;
  const int64_t p_lo = PartitionIndex(begin);
  const int64_t p_hi = PartitionIndex(end - 1);
  for (auto it = partitions_.lower_bound(p_lo);
       it != partitions_.end() && it->first <= p_hi; ++it) {
    const auto found = it->second.by_dest.find(object);
    if (found == it->second.by_dest.end()) continue;
    const auto [lo, hi] = TimeBounds(found->second, events_, begin, end);
    if (lo != hi) return true;
  }
  return false;
}

std::vector<ObjectId> RowStoreBackend::FlowDestsOf(ObjectId src,
                                                   TimeMicros begin,
                                                   TimeMicros end) const {
  assert(sealed());
  std::vector<ObjectId> out;
  if (begin >= end) return out;
  const int64_t p_lo = PartitionIndex(begin);
  const int64_t p_hi = PartitionIndex(end - 1);
  for (auto it = partitions_.lower_bound(p_lo);
       it != partitions_.end() && it->first <= p_hi; ++it) {
    const auto found = it->second.by_src.find(src);
    if (found == it->second.by_src.end()) continue;
    const auto [lo, hi] = TimeBounds(found->second, events_, begin, end);
    for (size_t i = lo; i < hi; ++i) {
      out.push_back(events_[found->second[i]].FlowDest());
    }
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

}  // namespace aptrace
