#ifndef APTRACE_STORAGE_ROW_STORE_BACKEND_H_
#define APTRACE_STORAGE_ROW_STORE_BACKEND_H_

#include <map>
#include <unordered_map>
#include <vector>

#include "storage/storage_backend.h"

namespace aptrace {

/// The seed storage layout: whole Event rows in a dense vector, indexed by
/// hour-width time partitions with per-partition hash indexes on flow
/// source and flow destination. A scan probes *every* partition that
/// overlaps the query range — even when the key is absent there — which is
/// exactly the per-partition probe cost the paper's backend charges (and
/// what the columnar backend's zone maps avoid).
class RowStoreBackend final : public StorageBackend {
 public:
  RowStoreBackend(CostModel cost_model, DurationMicros partition_micros);

  const BackendCapabilities& capabilities() const override;

  EventId Append(Event event) override;
  void Seal() override;
  size_t NumEvents() const override { return events_.size(); }
  Event Get(EventId id) const override { return events_[id]; }

  RangeScanBatch CollectDest(ObjectId dest, TimeMicros begin,
                             TimeMicros end) const override;
  RangeScanBatch CollectSrc(ObjectId src, TimeMicros begin,
                            TimeMicros end) const override;
  RangeScanBatch CollectRange(TimeMicros begin, TimeMicros end) const override;

  bool HasIncomingWrite(ObjectId object, TimeMicros begin,
                        TimeMicros end) const override;
  std::vector<ObjectId> FlowDestsOf(ObjectId src, TimeMicros begin,
                                    TimeMicros end) const override;

  size_t NumPartitions() const { return partitions_.size(); }

 private:
  struct Partition {
    // Event ids with FlowDest == key, sorted by timestamp (ties by id).
    std::unordered_map<ObjectId, std::vector<EventId>> by_dest;
    // Event ids with FlowSource == key, sorted by timestamp. Powers the
    // derived-attribute queries.
    std::unordered_map<ObjectId, std::vector<EventId>> by_src;
    // All event ids in the partition, sorted by timestamp.
    std::vector<EventId> all;
  };

  int64_t PartitionIndex(TimeMicros t) const;

  /// Shared pure-collection walk behind CollectDest/CollectSrc.
  RangeScanBatch CollectImpl(bool by_src, ObjectId key, TimeMicros begin,
                             TimeMicros end) const;

  /// Inserts one event into the partition indexes at its sorted position
  /// (incremental path for post-seal appends).
  void IndexEvent(const Event& e);

  DurationMicros partition_micros_;
  std::vector<Event> events_;  // indexed by EventId
  std::map<int64_t, Partition> partitions_;
};

}  // namespace aptrace

#endif  // APTRACE_STORAGE_ROW_STORE_BACKEND_H_
