#ifndef APTRACE_STORAGE_EVENT_STORE_H_
#define APTRACE_STORAGE_EVENT_STORE_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "event/catalog.h"
#include "event/event.h"
#include "storage/cost_model.h"
#include "storage/sharded_store.h"
#include "storage/storage_backend.h"
#include "util/clock.h"
#include "util/status.h"

namespace aptrace {

/// Store construction options.
struct EventStoreOptions {
  /// Width of a time partition (row backend). The paper's backend
  /// partitions audit logs by day; we default to one simulated hour so
  /// partition pruning is meaningful at laptop scale.
  DurationMicros partition_micros = kMicrosPerHour;

  CostModel cost_model;

  /// Physical layout. Defaults to the APTRACE_BACKEND environment
  /// variable ("row" or "columnar") when set, else the row store — so the
  /// whole test suite and every tool can be switched per run without code
  /// changes.
  StorageBackendKind backend = DefaultStorageBackendKind();

  /// Rows per column segment (columnar backend). 0 = backend default.
  size_t segment_rows = 0;

  /// Shard count for the sharded store engine (docs/sharding.md): > 1
  /// partitions the store into (host, time-partition) shards, each with
  /// its own backend of the kind above, and turns scans into
  /// scatter-gather. 1 (the default) keeps the monolithic store exactly
  /// as before. Defaults to the APTRACE_SHARDS environment variable when
  /// set and valid (clamped to [1, 64]).
  size_t shards = DefaultShardCount();

  /// Builds shard `shard`'s backend for the sharded engine. Unset (the
  /// default) constructs an in-process backend of `backend`'s kind; the
  /// distributed fabric injects RemoteShardBackend factories here so the
  /// same coordinator engine — routing, gid directory, merge, stats —
  /// drives remote shard daemons (docs/distribution.md).
  std::function<std::unique_ptr<StorageBackend>(
      size_t shard, const EventStoreOptions& options)>
      shard_backend_factory;

  /// Does nothing. The sharded store collects on the calling thread: it
  /// starts every probed shard's collect before it finishes any, so
  /// remote round trips overlap without threads. Kept because the
  /// benchmark harness (perfbench/) still assigns it.
  size_t dist_fanout_threads = 0;
};

/// Simulated audit-log database: a thin façade that owns the ObjectCatalog
/// and delegates every row operation to a pluggable StorageBackend
/// (row-oriented time partitions or columnar segments with zone maps; see
/// storage/storage_backend.h for the interface contract and
/// docs/storage_backends.md for the layouts).
///
/// Lifecycle: create, obtain the mutable catalog, Append() events in any
/// order, Seal(), then query. Queries charge simulated time to the Clock
/// passed per call (so several analysis sessions with independent clocks
/// can share one store).
///
/// Thread-safety: after Seal(), any number of threads may query
/// concurrently; see the read-after-build contract on StorageBackend.
/// The Collect* calls touch no counters at all.
///
/// The core query is ScanDest: all events whose data-flow *destination* is
/// a given object within [begin, end). This is exactly the query backward
/// tracking issues per explored node (paper Section II: an event B depends
/// on A when A's flow destination equals B's flow source). Both backends
/// return the same rows in the same ascending (timestamp, id) order, so
/// analysis output is bit-identical across backends; only the simulated
/// probe cost differs.
class EventStore {
 public:
  explicit EventStore(EventStoreOptions options = {});
  ~EventStore();

  EventStore(const EventStore&) = delete;
  EventStore& operator=(const EventStore&) = delete;

  /// Mutable during the build phase only.
  ObjectCatalog& catalog() { return catalog_; }
  const ObjectCatalog& catalog() const { return catalog_; }

  /// The physical layout behind this store.
  const StorageBackend& backend() const { return *backend_; }
  StorageBackendKind backend_kind() const { return backend_->kind(); }

  /// Shards behind this store; 1 for the monolithic layout.
  size_t shard_count() const {
    return sharded_ != nullptr ? sharded_->shard_count() : 1;
  }

  /// The sharded engine, or nullptr when the store is monolithic.
  const ShardedStore* sharded() const { return sharded_; }

  /// One consistent (total, per-shard) stats snapshot. For a monolithic
  /// store this is the plain stats() total with a single synthetic shard
  /// row, so /sessions and the benches render uniformly.
  ShardedStore::Snapshot ShardSnapshot() const;

  /// Appends an event; the store assigns and returns its EventId.
  /// Before Seal() this is the bulk-load path; after Seal() the event is
  /// indexed incrementally (streaming ingestion), so live collectors can
  /// keep feeding a store that analyses are already running against.
  /// Precondition: subject/object ids exist in the catalog.
  EventId Append(Event event) { return backend_->Append(std::move(event)); }

  /// Freezes the bulk-load phase and builds the physical layout.
  void Seal();
  bool sealed() const { return backend_->sealed(); }

  size_t NumEvents() const { return backend_->NumEvents(); }

  /// Materializes one event row: a point lookup (scans deliver whole
  /// rows). By value: the columnar backend reassembles rows from column
  /// arrays, so no stable reference exists.
  Event Get(EventId id) const { return backend_->Get(id); }

  /// Earliest/latest event timestamps; [0, 0) when empty.
  TimeMicros MinTime() const { return backend_->MinTime(); }
  TimeMicros MaxTime() const { return backend_->MaxTime(); }

  /// Scans events with FlowDest() == dest and begin <= timestamp < end,
  /// in ascending time order, invoking `fn` for each row that passes
  /// `filter` (null = no filter). Filtered rows are charged the cheap
  /// server-side-rejection cost; delivered rows the full fetch cost.
  /// Charges the cost model to `clock` (pass nullptr to skip charging);
  /// `cost_out`, when non-null, also receives the simulated cost, and
  /// `probe_out` this scan's own attribution record (see ScanProbeStats).
  /// Returns the number of rows delivered.
  ///
  /// Precondition: sealed.
  size_t ScanDest(ObjectId dest, TimeMicros begin, TimeMicros end,
                  Clock* clock, const std::function<void(const Event&)>& fn,
                  const RowFilter& filter = nullptr,
                  DurationMicros* cost_out = nullptr,
                  ScanProbeStats* probe_out = nullptr) const;

  /// Pure row collection for ScanDest: the rows and probe counters the
  /// scan would visit, with no clock charge, no stats, no metrics. Safe to
  /// call concurrently from any number of threads on a sealed store.
  /// Every Collect* records one `store/collect` span on the calling
  /// thread.
  RangeScanBatch CollectDest(ObjectId dest, TimeMicros begin,
                             TimeMicros end) const;

  /// Pure row collection for ScanSrc (same contract as CollectDest).
  RangeScanBatch CollectSrc(ObjectId src, TimeMicros begin,
                            TimeMicros end) const;

  /// Pure row collection for ScanRange (same contract as CollectDest).
  /// Holds every row in range in memory at once.
  RangeScanBatch CollectRange(TimeMicros begin, TimeMicros end) const;

  /// Batched pure row collection: one batch per probe, each what the
  /// matching Collect* returns (StorageBackend::CollectMany). The
  /// Executor collects capabilities().collect_batch windows per call.
  /// Records one `store/collect` span for the whole list.
  std::vector<RangeScanBatch> CollectMany(
      std::span<const CollectProbe> probes) const;

  /// Second half of a split scan: iterates a collected batch through
  /// `filter`/`fn` and charges clock/stats/metrics exactly as the fused
  /// ScanDest/ScanSrc would. Calling Collect* then ReplayScan is
  /// observably identical to one fused scan (same callback order, same
  /// simulated cost, same counters). Returns the rows delivered. Records
  /// one `store/replay` span.
  size_t ReplayScan(const RangeScanBatch& batch, Clock* clock,
                    const std::function<void(const Event&)>& fn,
                    const RowFilter& filter = nullptr,
                    DurationMicros* cost_out = nullptr,
                    ScanProbeStats* probe_out = nullptr) const;

  /// Mirror of ScanDest for forward tracking: events whose data-flow
  /// *source* is `src` within [begin, end), ascending by time.
  size_t ScanSrc(ObjectId src, TimeMicros begin, TimeMicros end, Clock* clock,
                 const std::function<void(const Event&)>& fn,
                 const RowFilter& filter = nullptr,
                 DurationMicros* cost_out = nullptr,
                 ScanProbeStats* probe_out = nullptr) const;

  /// Full-range scan of all events in [begin, end), ascending; used for
  /// start-point resolution and derived-attribute computation. Charges
  /// per-row cost for every row in range.
  size_t ScanRange(TimeMicros begin, TimeMicros end, Clock* clock,
                   const std::function<void(const Event&)>& fn) const;

  /// True if the object was ever written (flow into it from a process via
  /// a write-like action) within [begin, end). Used by derived attribute
  /// isReadOnly. Does not charge cost (metadata lookup).
  bool HasIncomingWrite(ObjectId object, TimeMicros begin,
                        TimeMicros end) const {
    return backend_->HasIncomingWrite(object, begin, end);
  }

  /// Distinct flow destinations of events whose source is `src` within
  /// [begin, end). Used by derived attribute isWriteThrough. No cost.
  std::vector<ObjectId> FlowDestsOf(ObjectId src, TimeMicros begin,
                                    TimeMicros end) const {
    return backend_->FlowDestsOf(src, begin, end);
  }

  /// Tiered-storage lifecycle passthroughs (see StorageBackend): no-ops
  /// on backends without a hot tail. All three mutators need the same
  /// external synchronization with queries as post-seal Append. SealTail
  /// also accepts a `nullptr` argument, which it ignores, because the
  /// benchmark harness (perfbench/) still passes one.
  size_t SealTail(std::nullptr_t = nullptr) { return backend_->SealTail(); }
  size_t CompactSegments() { return backend_->Compact(); }
  size_t EvictBefore(TimeMicros horizon) {
    return backend_->EvictBefore(horizon);
  }
  size_t TailRows() const { return backend_->TailRows(); }

  /// One consistent snapshot of the cumulative I/O counters.
  StoreStats stats() const { return backend_->stats(); }
  void ResetStats() { backend_->ResetStats(); }

  const EventStoreOptions& options() const { return options_; }

 private:
  EventStoreOptions options_;
  ObjectCatalog catalog_;
  std::unique_ptr<StorageBackend> backend_;
  /// Set when backend_ is the sharded engine (avoids RTTI on hot paths).
  ShardedStore* sharded_ = nullptr;
};

}  // namespace aptrace

#endif  // APTRACE_STORAGE_EVENT_STORE_H_
