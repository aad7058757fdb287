#ifndef APTRACE_STORAGE_STORAGE_BACKEND_H_
#define APTRACE_STORAGE_STORAGE_BACKEND_H_

#include <cstdint>
#include <functional>
#include <limits>
#include <optional>
#include <span>
#include <string_view>
#include <utility>
#include <vector>

#include "event/event.h"
#include "util/sync.h"
#include "storage/cost_model.h"
#include "util/clock.h"

namespace aptrace {

/// Physical layouts the store can run on. The row store is the seed
/// implementation (time partitions + per-partition hash indexes); the
/// columnar backend stores sealed events as fixed-size column segments
/// with zone maps that let scans skip whole segments.
enum class StorageBackendKind : uint8_t {
  kRow = 0,
  kColumnar = 1,
};

/// Stable lowercase name ("row", "columnar") used by --backend flags,
/// metric names, and log lines.
const char* StorageBackendName(StorageBackendKind kind);

/// Parses a --backend flag value; nullopt if unrecognized.
std::optional<StorageBackendKind> ParseStorageBackendKind(
    std::string_view name);

/// Backend selected when EventStoreOptions does not pin one: the
/// APTRACE_BACKEND environment variable ("row" or "columnar") when set and
/// valid, else the row store. Read per call so test fixtures can flip the
/// variable in-process.
StorageBackendKind DefaultStorageBackendKind();

/// Hard ceiling on EventStoreOptions::shards: the sharded store keeps one
/// bit per shard in a uint64_t routing mask per object.
inline constexpr size_t kMaxStoreShards = 64;

/// Shard count selected when EventStoreOptions does not pin one: the
/// APTRACE_SHARDS environment variable (integer in [1, 64]) when set and
/// valid, else 1 (the monolithic store). Read per call, like
/// DefaultStorageBackendKind, so test fixtures and the sharded CI leg can
/// flip the variable per run.
size_t DefaultShardCount();

/// What a backend can do / how it charges the cost model. Callers that
/// care (benches, docs, the shell's status output) read these instead of
/// switching on the kind.
struct BackendCapabilities {
  /// The storage unit the `partitions_probed`/`partitions_seeked`
  /// counters count ("time partition" or "column segment").
  const char* probe_unit = "time partition";
  /// Windows the Executor collects in one CollectMany call (B). 1 for
  /// in-process backends, where a collect is a memory-bound index walk
  /// and the popped window is collected inline; larger where every
  /// collect call costs a round trip (a remote shard daemon).
  size_t collect_batch = 1;
};

/// Cumulative I/O counters, used by the resource model and the benches.
/// One consistent snapshot is taken under the stats mutex (see
/// StorageBackend::stats()), so cross-field invariants hold in every
/// snapshot: partitions_seeked <= partitions_probed, and rows_matched
/// never decreases between snapshots.
struct StoreStats {
  uint64_t queries = 0;
  uint64_t rows_matched = 0;   // fetched and delivered to the caller
  uint64_t rows_filtered = 0;  // rejected server-side by a pushed filter
  /// Partitions (row store) or segments (columnar) whose index was
  /// consulted. Zone-map-rejected segments are *not* probed.
  uint64_t partitions_probed = 0;
  uint64_t partitions_seeked = 0;
  /// Segments skipped via zone maps alone (columnar only; 0 on row).
  uint64_t segments_pruned = 0;
  DurationMicros simulated_cost = 0;
};

/// Server-side row predicate pushed into a scan (the Refiner compiles BDL
/// heuristics into the query). Return false to discard the row cheaply.
using RowFilter = std::function<bool(const Event&)>;

/// Per-scan attribution record: what one ReplayScan touched, for callers
/// (the query profiler) that need per-query rather than cumulative
/// accounting. Deterministic — every field derives from the batch and the
/// filter outcome, never from wall time.
struct ScanProbeStats {
  uint64_t rows_delivered = 0;  // passed the filter, handed to `fn`
  uint64_t rows_filtered = 0;   // rejected server-side
  uint64_t partitions_probed = 0;
  uint64_t partitions_seeked = 0;
  uint64_t segments_pruned = 0;
  /// Shards this scan fanned out to (always 1 on a monolithic store; on
  /// the sharded store, the per-object routing mask's fan-out).
  uint64_t shard_probes = 1;
};

/// Merges two row lists that each ascend by (timestamp, id) — the order
/// every Collect* delivers — into one list in that order.
std::vector<Event> MergeScanRows(const std::vector<Event>& a,
                                 const std::vector<Event>& b);

/// One shard's contribution to a scatter-gathered batch (sharded store
/// only): the slice of the probe counters that this shard's backend
/// produced before the coordinator merged the per-shard row lists.
/// Summing the slices reproduces the batch-level counters exactly — the
/// reconciliation the differential tests assert.
struct ShardScanSlice {
  uint32_t shard = 0;
  uint64_t rows = 0;  // rows this shard contributed to `rows` below
  uint64_t partitions_probed = 0;
  uint64_t partitions_seeked = 0;
  uint64_t segments_pruned = 0;
  /// Rows whose event host differs from the probed object's catalog
  /// host — cross-host flows gathered from a shard the object does not
  /// call home (the boundary-edge exchange of docs/sharding.md).
  uint64_t boundary_rows = 0;
};

/// Raw output of a pure index scan: the rows a Scan* call would visit, in
/// the same ascending (timestamp, id) order and each carrying its own id,
/// plus the probe counters the cost model charges. Produced by
/// CollectDest/CollectSrc/CollectRange — which are side-effect-free and
/// safe to run from any thread — and consumed by ReplayScan, which
/// applies the filter and charges exactly what the fused scan would
/// have. ScanDest/ScanSrc are implemented as Collect + Replay, so the
/// split is equivalent by construction.
struct RangeScanBatch {
  std::vector<Event> rows;
  /// Storage units consulted (partitions or segments; see
  /// BackendCapabilities::probe_unit).
  uint64_t partitions_probed = 0;
  uint64_t partitions_seeked = 0;
  /// Storage units rejected purely from zone metadata (columnar only).
  uint64_t segments_pruned = 0;
  /// Scatter-gather provenance: one slice per shard probed, in shard
  /// order. Empty on unsharded backends. Slice counters sum to the
  /// batch-level counters above.
  std::vector<ShardScanSlice> shard_slices;
};

/// Which Collect* a CollectProbe stands for.
enum class ProbeKind : uint8_t {
  kDest = 0,   // CollectDest(key, begin, end)
  kSrc = 1,    // CollectSrc(key, begin, end)
  kRange = 2,  // CollectRange(begin, end); key unused
};

/// One window's collect, as CollectMany takes it.
struct CollectProbe {
  ProbeKind kind = ProbeKind::kDest;
  ObjectId key = kInvalidObjectId;
  TimeMicros begin = 0;
  TimeMicros end = 0;

  bool operator==(const CollectProbe&) const = default;
};

/// The second half of a started batched collect
/// (StorageBackend::StartCollectMany): call it once for one batch per
/// probe. It holds the batches of a collect done at start, or the call
/// that finishes a collect still in flight; that call throws what the
/// collect throws and must run while the backend that started it lives.
class FinishCollect {
 public:
  FinishCollect() = default;
  explicit FinishCollect(std::vector<RangeScanBatch> batches)
      : batches_(std::move(batches)) {}
  explicit FinishCollect(std::function<std::vector<RangeScanBatch>()> finish)
      : finish_(std::move(finish)) {}

  std::vector<RangeScanBatch> operator()() {
    return finish_ ? finish_() : std::move(batches_);
  }

 private:
  std::vector<RangeScanBatch> batches_;
  std::function<std::vector<RangeScanBatch>()> finish_;
};

/// Physical storage layout behind an EventStore.
///
/// A backend owns the event rows and their indexes; the EventStore façade
/// owns the ObjectCatalog and delegates every row operation here. The
/// query surface is split in two layers:
///
///   - virtual Collect* calls: pure row collection. No clock charge, no
///     stats, no metrics — each returns the matching rows in ascending
///     (timestamp, id) order plus the probe counters the cost model will
///     charge. Both backends MUST deliver identical row sets
///     in identical order for the same stored events, which is what makes
///     analysis output bit-identical across backends (only the simulated
///     cost may differ, via the probe counters).
///   - non-virtual replay/charge calls implemented once in this base
///     class: ReplayScan applies filters, advances the clock by
///     CostModel::QueryCost, and record stats/metrics.
///
/// Thread-safety (the read-after-build contract): construction —
/// Append()s followed by Seal() — must happen on one thread (or be
/// externally synchronized). After Seal(), any number of threads may call
/// every const member concurrently: Collect*/CollectMany/Get/
/// HasIncomingWrite/FlowDestsOf touch no mutable state at all, and
/// ReplayScan serializes only its counter updates behind a single stats
/// mutex so stats() snapshots are consistent across fields. Post-seal
/// streaming Append()s require external synchronization with all
/// queries, exactly as before the refactor.
class StorageBackend {
 public:
  virtual ~StorageBackend() = default;

  StorageBackend(const StorageBackend&) = delete;
  StorageBackend& operator=(const StorageBackend&) = delete;

  StorageBackendKind kind() const { return kind_; }
  const char* name() const { return StorageBackendName(kind_); }
  virtual const BackendCapabilities& capabilities() const = 0;

  /// Appends an event; the backend assigns and returns its EventId (dense,
  /// in append order). Before Seal() this is the bulk-load path; after
  /// Seal() the event is indexed incrementally (streaming ingestion).
  virtual EventId Append(Event event) = 0;

  /// Freezes the bulk-load phase and builds the physical layout.
  virtual void Seal() = 0;
  bool sealed() const { return sealed_; }

  virtual size_t NumEvents() const = 0;

  /// Materializes one event row by id: a point lookup, never part of a
  /// scan (Collect* already delivers whole rows). By value: a columnar
  /// backend reassembles the row from its column arrays, so there is no
  /// stable Event in memory to reference.
  virtual Event Get(EventId id) const = 0;

  /// Earliest/latest event timestamps; [0, 0) when empty (after Seal).
  TimeMicros MinTime() const { return min_time_; }
  TimeMicros MaxTime() const { return max_time_; }

  /// Pure row collection for ScanDest: events with FlowDest() == dest and
  /// begin <= timestamp < end, ascending (timestamp, id). No clock charge,
  /// no stats, no metrics. Safe to call concurrently on a sealed store.
  virtual RangeScanBatch CollectDest(ObjectId dest, TimeMicros begin,
                                     TimeMicros end) const = 0;

  /// Pure row collection for ScanSrc (same contract as CollectDest).
  virtual RangeScanBatch CollectSrc(ObjectId src, TimeMicros begin,
                                    TimeMicros end) const = 0;

  /// Pure row collection for ScanRange: every event in [begin, end),
  /// ascending (timestamp, id). Full scans cannot be zone-pruned, so every
  /// overlapping storage unit is counted both probed and seeked.
  virtual RangeScanBatch CollectRange(TimeMicros begin,
                                      TimeMicros end) const = 0;

  /// Batched pure row collection: one batch per probe, in probe order,
  /// each exactly what the matching Collect* returns for it. Same
  /// contract as Collect* (no charge, safe concurrently on a sealed
  /// store).
  std::vector<RangeScanBatch> CollectMany(
      std::span<const CollectProbe> probes) const {
    return StartCollectMany(probes)();
  }

  /// CollectMany in two halves, so a caller can start the collects of
  /// several backends before it waits on any: the returned call finishes
  /// this one. The default collects now, looping over Collect*, and the
  /// call only hands the batches over; a backend where a collect costs a
  /// round trip sends its request here and reads the reply in the call.
  virtual FinishCollect StartCollectMany(
      std::span<const CollectProbe> probes) const;

  /// True if any event's flow destination is `object` within [begin, end).
  /// Used by derived attribute isReadOnly. Does not charge cost.
  virtual bool HasIncomingWrite(ObjectId object, TimeMicros begin,
                                TimeMicros end) const = 0;

  /// Distinct flow destinations of events whose source is `src` within
  /// [begin, end), sorted. Used by derived attribute isWriteThrough.
  /// No cost.
  virtual std::vector<ObjectId> FlowDestsOf(ObjectId src, TimeMicros begin,
                                            TimeMicros end) const = 0;

  /// Second half of a split scan: iterates a collected batch through
  /// `filter`/`fn` and charges clock/stats/metrics exactly as the fused
  /// ScanDest/ScanSrc would. Calling Collect* then ReplayScan is
  /// observably identical to one fused scan (same callback order, same
  /// simulated cost, same counters). Returns the rows delivered.
  /// `probe_out`, when non-null, receives this scan's own attribution
  /// record (the per-query slice of the cumulative StoreStats).
  /// Virtual so the sharded store can additionally attribute the outcome
  /// to its per-shard stats; overrides must preserve the observable
  /// contract exactly (same callback order, cost, counters).
  virtual size_t ReplayScan(const RangeScanBatch& batch, Clock* clock,
                            const std::function<void(const Event&)>& fn,
                            const RowFilter& filter = nullptr,
                            DurationMicros* cost_out = nullptr,
                            ScanProbeStats* probe_out = nullptr) const;

  /// --- Tiered-storage lifecycle (docs/durability.md) ---
  ///
  /// The columnar backend implements the hot-tail -> sealed -> compacted
  /// -> evicted segment lifecycle; backends whose streaming appends are
  /// indexed in place (the row store) keep these no-op defaults. All
  /// three mutators require the same external synchronization with
  /// queries as post-seal Append (the daemon runs them between quanta).
  /// None of them ever changes what a query returns — except
  /// EvictBefore, which by design removes old rows from scan results.

  /// Seals the post-seal streaming tail into the backend's durable
  /// layout. Returns rows sealed.
  virtual size_t SealTail() { return 0; }

  /// Merges fragmented storage units back to the optimal cut (repeated
  /// tail seals leave partial segments behind). Scan results are
  /// unchanged; probe counts shrink. Returns storage units reclaimed.
  virtual size_t Compact() { return 0; }

  /// Retention: excludes all sealed rows with timestamps wholly before
  /// `horizon` from future scans (point lookups by id still resolve, as
  /// in an archive tier). Returns rows evicted.
  virtual size_t EvictBefore(TimeMicros horizon) {
    (void)horizon;
    return 0;
  }

  /// Rows currently in the hot streaming tail (0 for backends without
  /// one).
  virtual size_t TailRows() const { return 0; }

  /// One consistent snapshot of the cumulative I/O counters (single mutex;
  /// no torn reads across fields). Virtual: the sharded store keeps its
  /// totals and per-shard stats behind one mutex of its own so a snapshot
  /// of (total, per-shard) can never tear between the two.
  virtual StoreStats stats() const;
  virtual void ResetStats();

 protected:
  StorageBackend(StorageBackendKind kind, CostModel cost_model);

  const CostModel& cost_model() const { return cost_model_; }

  /// Records one replayed query in the process metrics (the aggregate
  /// store counters plus this backend's per-kind query counter). Factored
  /// out of ReplayScan so overrides that do their own stats attribution
  /// still charge the exact same metrics.
  void ChargeQueryMetrics(uint64_t rows_scanned, uint64_t rows_filtered,
                          uint64_t segments_pruned) const;

  /// Derived Append() implementations call this to maintain MinTime /
  /// MaxTime; derived Seal() calls MarkSealed once the layout is built.
  void NoteAppend(const Event& event);
  void MarkSealed(bool empty);

 private:
  struct BackendMetrics;
  const BackendMetrics& Bm() const;

  StorageBackendKind kind_;
  CostModel cost_model_;
  TimeMicros min_time_ = std::numeric_limits<TimeMicros>::max();
  TimeMicros max_time_ = std::numeric_limits<TimeMicros>::min();
  bool sealed_ = false;

  /// Single lock around the whole StoreStats so stats() returns one
  /// consistent snapshot (the seed kept six independent atomics, which
  /// could tear across fields mid-query).
  mutable Mutex stats_mu_{"StorageBackend::stats_mu_"};
  mutable StoreStats stats_ APTRACE_GUARDED_BY(stats_mu_);
};

}  // namespace aptrace

#endif  // APTRACE_STORAGE_STORAGE_BACKEND_H_
