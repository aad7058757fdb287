// A StorageBackend that forwards every virtual to an in-process row or
// columnar backend, reports a chosen collect_batch, and counts the Get
// and batched collect calls that reach it (optionally logging each
// collect's start and finish). Plugged in as a sharded store's
// shard_backend_factory it gives tests the batched executor path (B > 1)
// without a shard daemon. Header-only.

#ifndef APTRACE_TESTS_FORWARDING_BACKEND_H_
#define APTRACE_TESTS_FORWARDING_BACKEND_H_

#include <atomic>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "storage/columnar_backend.h"
#include "storage/event_store.h"
#include "storage/row_store_backend.h"

namespace aptrace {

/// Calls that reached a ForwardingBackend (shared by every shard of a
/// store when the factory hands all of them the same counters).
struct ForwardingCounters {
  std::atomic<size_t> gets{0};
  std::atomic<size_t> collect_many{0};
  /// When set, every StartCollectMany appends "start <shard>" and every
  /// call it returned appends "finish <shard>" when run, in call order.
  /// Not thread-safe: only for tests that collect on one thread.
  bool log_collects = false;
  std::vector<std::string> collect_log;
};

class ForwardingBackend final : public StorageBackend {
 public:
  /// `collect_batch` 0 keeps the inner backend's value; `counters` may
  /// be null.
  ForwardingBackend(const EventStoreOptions& options, size_t shard,
                    size_t collect_batch, ForwardingCounters* counters)
      : StorageBackend(options.backend, options.cost_model),
        inner_(MakeInner(options)),
        caps_(inner_->capabilities()),
        shard_(shard),
        counters_(counters) {
    if (collect_batch > 0) caps_.collect_batch = collect_batch;
  }

  const BackendCapabilities& capabilities() const override { return caps_; }
  EventId Append(Event event) override {
    NoteAppend(event);
    return inner_->Append(std::move(event));
  }
  void Seal() override {
    inner_->Seal();
    MarkSealed(inner_->NumEvents() == 0);
  }
  size_t NumEvents() const override { return inner_->NumEvents(); }
  Event Get(EventId id) const override {
    if (counters_ != nullptr) counters_->gets.fetch_add(1);
    return inner_->Get(id);
  }
  RangeScanBatch CollectDest(ObjectId dest, TimeMicros begin,
                             TimeMicros end) const override {
    return inner_->CollectDest(dest, begin, end);
  }
  RangeScanBatch CollectSrc(ObjectId src, TimeMicros begin,
                            TimeMicros end) const override {
    return inner_->CollectSrc(src, begin, end);
  }
  RangeScanBatch CollectRange(TimeMicros begin, TimeMicros end) const override {
    return inner_->CollectRange(begin, end);
  }
  FinishCollect StartCollectMany(
      std::span<const CollectProbe> probes) const override {
    if (counters_ != nullptr) counters_->collect_many.fetch_add(1);
    Log("start");
    return FinishCollect(
        [this, finish = inner_->StartCollectMany(probes)]() mutable {
          Log("finish");
          return finish();
        });
  }
  bool HasIncomingWrite(ObjectId object, TimeMicros begin,
                        TimeMicros end) const override {
    return inner_->HasIncomingWrite(object, begin, end);
  }
  std::vector<ObjectId> FlowDestsOf(ObjectId src, TimeMicros begin,
                                    TimeMicros end) const override {
    return inner_->FlowDestsOf(src, begin, end);
  }
  size_t ReplayScan(const RangeScanBatch& batch, Clock* clock,
                    const std::function<void(const Event&)>& fn,
                    const RowFilter& filter = nullptr,
                    DurationMicros* cost_out = nullptr,
                    ScanProbeStats* probe_out = nullptr) const override {
    return inner_->ReplayScan(batch, clock, fn, filter, cost_out, probe_out);
  }
  size_t SealTail() override { return inner_->SealTail(); }
  size_t Compact() override { return inner_->Compact(); }
  size_t EvictBefore(TimeMicros horizon) override {
    return inner_->EvictBefore(horizon);
  }
  size_t TailRows() const override { return inner_->TailRows(); }
  StoreStats stats() const override { return inner_->stats(); }
  void ResetStats() override { inner_->ResetStats(); }

 private:
  static std::unique_ptr<StorageBackend> MakeInner(
      const EventStoreOptions& options) {
    if (options.backend == StorageBackendKind::kColumnar) {
      return std::make_unique<ColumnarSegmentBackend>(options.cost_model,
                                                      options.segment_rows);
    }
    return std::make_unique<RowStoreBackend>(options.cost_model,
                                             options.partition_micros);
  }

  void Log(const char* step) const {
    if (counters_ != nullptr && counters_->log_collects) {
      counters_->collect_log.push_back(std::string(step) + " " +
                                       std::to_string(shard_));
    }
  }

  std::unique_ptr<StorageBackend> inner_;
  BackendCapabilities caps_;
  size_t shard_;
  ForwardingCounters* counters_;
};

/// Store-option edit that makes every shard a ForwardingBackend reporting
/// `collect_batch` (0 = the inner backend's own), all sharing `counters`.
inline void UseForwardingShards(EventStoreOptions& options,
                                size_t collect_batch,
                                ForwardingCounters* counters = nullptr) {
  options.shard_backend_factory =
      [collect_batch, counters](size_t shard, const EventStoreOptions& o)
      -> std::unique_ptr<StorageBackend> {
    return std::make_unique<ForwardingBackend>(o, shard, collect_batch,
                                               counters);
  };
}

}  // namespace aptrace

#endif  // APTRACE_TESTS_FORWARDING_BACKEND_H_
