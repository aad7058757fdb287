#ifndef APTRACE_STORAGE_SHARDED_STORE_H_
#define APTRACE_STORAGE_SHARDED_STORE_H_

#include <memory>
#include <vector>

#include "event/catalog.h"
#include "storage/storage_backend.h"
#include "util/sync.h"

namespace aptrace {

struct EventStoreOptions;

/// Sharded store engine (docs/sharding.md): partitions the sealed store
/// into N shards keyed by (host, time-partition), each shard owning its
/// own StorageBackend instance — row or columnar, the PR 4 abstraction
/// unchanged — and turns every window scan into scatter-gather.
///
/// Routing. An appended event lands on shard
///
///   (event.host + floor(timestamp / partition_micros)) mod N
///
/// so one host's history spreads over time slices (no hot shard for a
/// chatty host) while any single (host, slice) cell stays whole on one
/// shard. The coordinator assigns the *global* EventId (dense append
/// order, exactly what the monolithic store would have assigned) and
/// keeps the gid <-> (shard, local id) mapping; rows handed back to
/// callers always carry the global id, which is what keeps analysis
/// output bit-identical to the single-shard run.
///
/// Scatter-gather. CollectDest/CollectSrc consult a per-object shard
/// mask (one bit per shard that ever stored a row with that flow
/// source/destination — maintained at append time) and fan the probe out
/// only to those shards. Each shard returns its rows in its own
/// ascending (timestamp, local id) order plus its probe counters; the
/// coordinator rewrites each row's local id to its global id, merges the
/// rows deterministically by (timestamp, gid), and records one
/// ShardScanSlice per shard probed. Because local-id order equals
/// global-id order within a shard, the merged batch is exactly the
/// (timestamp, id)-ordered row set the monolithic backend would return.
/// Rows whose event host differs from the probed object's catalog host —
/// cross-host flows that live on a shard the object does not call home —
/// are the *boundary edges*; the mask-driven fan-out is the boundary-edge
/// exchange that folds them back into the result. CollectMany batches
/// this walk: the probes of several windows go to each shard in one
/// call, so a batch costs one round trip per shard, not one per window.
///
/// Replay stays single-threaded at the coordinator: ReplayScan applies
/// the filter and charges clock/metrics exactly like the base contract,
/// and additionally attributes the outcome (rows, probes, cost net of the
/// per-query overhead) to per-shard StoreStats. Totals and per-shard
/// stats live behind ONE mutex, so a snapshot of (total, per shard) can
/// never tear: in every snapshot the shard counters sum exactly to the
/// totals (simulated cost reconciles as
/// sum(shard costs) + queries * query_overhead == total cost).
///
/// Thread-safety: identical to StorageBackend's read-after-build
/// contract. Collect*/Get/HasIncomingWrite/FlowDestsOf touch no mutable
/// state; ReplayScan serializes counter updates behind the
/// single aggregation mutex (a leaf lock; see docs/concurrency.md).
class ShardedStore final : public StorageBackend {
 public:
  /// One shard's row in a consistent stats snapshot (/sessions, the
  /// shard-scaling bench, and the reconciliation tests read these).
  struct ShardStatsRow {
    uint32_t shard = 0;
    uint64_t resident_rows = 0;  // appends routed to this shard
    uint64_t tail_rows = 0;      // rows in the shard's hot tail
    StoreStats stats;  // queries counts scans that touched this shard
    uint64_t boundary_rows = 0;  // delivered cross-host rows
  };

  /// A (total, per-shard) snapshot taken under one lock: the per-shard
  /// row/probe counters sum exactly to `total` in every snapshot.
  struct Snapshot {
    StoreStats total;
    std::vector<ShardStatsRow> shards;
  };

  /// `catalog` supplies object -> home-host lookups for boundary-row
  /// accounting; it must outlive the store (the owning EventStore passes
  /// its own catalog).
  ShardedStore(const EventStoreOptions& options, const ObjectCatalog* catalog);

  size_t shard_count() const { return shards_.size(); }
  const StorageBackend& shard(size_t i) const { return *shards_[i].backend; }

  const BackendCapabilities& capabilities() const override;

  EventId Append(Event event) override;
  void Seal() override;
  size_t NumEvents() const override { return meta_.size(); }
  Event Get(EventId id) const override;

  RangeScanBatch CollectDest(ObjectId dest, TimeMicros begin,
                             TimeMicros end) const override;
  RangeScanBatch CollectSrc(ObjectId src, TimeMicros begin,
                            TimeMicros end) const override;
  RangeScanBatch CollectRange(TimeMicros begin, TimeMicros end) const override;

  /// The scatter-gather walk behind every Collect* (each is the
  /// one-probe case), done in full before it returns: groups the probes
  /// by shard mask, starts one collect per probed shard, then finishes
  /// each, all on the calling thread — a remote shard's request is on
  /// the wire while earlier shards are read, so the round trips overlap.
  /// Then, per probe, it rewrites each row's local id to its global id,
  /// counts boundary rows against the probed object's home host, merges
  /// the per-shard rows by (timestamp, gid), and records one
  /// ShardScanSlice per shard probed. A shard collect that throws (a
  /// remote shard down) is caught per shard; the call then raises one
  /// dist::DistError(DST-E005) naming every missing shard — degraded
  /// mode, never a hang.
  FinishCollect StartCollectMany(
      std::span<const CollectProbe> probes) const override;

  bool HasIncomingWrite(ObjectId object, TimeMicros begin,
                        TimeMicros end) const override;
  std::vector<ObjectId> FlowDestsOf(ObjectId src, TimeMicros begin,
                                    TimeMicros end) const override;

  size_t ReplayScan(const RangeScanBatch& batch, Clock* clock,
                    const std::function<void(const Event&)>& fn,
                    const RowFilter& filter = nullptr,
                    DurationMicros* cost_out = nullptr,
                    ScanProbeStats* probe_out = nullptr) const override;

  /// Tiered-storage lifecycle: each call fans out to every shard (same
  /// external-synchronization contract as the base class).
  size_t SealTail() override;
  size_t Compact() override;
  size_t EvictBefore(TimeMicros horizon) override;
  size_t TailRows() const override;

  StoreStats stats() const override;
  void ResetStats() override;

  /// One consistent (total, per-shard) snapshot under a single lock.
  Snapshot TakeSnapshot() const;

 private:
  struct Shard {
    std::unique_ptr<StorageBackend> backend;
    std::vector<EventId> gid_of;  // local id -> global id (append order)
  };

  /// Coordinator-side row directory: where a global id lives (point
  /// lookups) and which shard a replayed row is attributed to. The merge
  /// and the boundary accounting read the collected rows themselves.
  struct RowMeta {
    EventId lid = 0;  // local id within `shard`
    uint32_t shard = 0;
  };

  uint32_t RouteShard(HostId host, TimeMicros timestamp) const;

  /// Shard mask for an object (0 when the object never appeared).
  uint64_t MaskFor(const std::vector<uint64_t>& masks, ObjectId id) const {
    return id < masks.size() ? masks[id] : 0;
  }

  /// Shards a probe reads: its object's mask, or every shard for a range
  /// probe.
  uint64_t ProbeMask(const CollectProbe& probe) const;

  /// Charges one replayed/counted query to the totals and the per-shard
  /// stats under the single aggregation mutex. `delivered`/`filtered`
  /// are per-shard row outcomes (indexed by shard), `cost` the full
  /// query cost including the per-query overhead.
  void ChargeSharded(const RangeScanBatch& batch,
                     const std::vector<uint64_t>& delivered,
                     const std::vector<uint64_t>& filtered, uint64_t rows,
                     uint64_t n_filtered, DurationMicros cost) const;

  const ObjectCatalog* catalog_;
  DurationMicros partition_micros_;
  std::vector<Shard> shards_;
  std::vector<RowMeta> meta_;  // indexed by global EventId

  /// Per-object routing masks, indexed by ObjectId and maintained at
  /// append time: bit s set when shard s holds at least one row whose
  /// flow destination (resp. source) is the object.
  std::vector<uint64_t> dest_shards_;
  std::vector<uint64_t> src_shards_;

  struct ShardMetrics;
  const ShardMetrics& Sm() const;

  /// Single lock for totals AND per-shard stats: snapshots are
  /// reconciliation-exact by construction (satellite: no torn
  /// total-vs-shard reads while N shards charge concurrently).
  mutable Mutex agg_mu_{"ShardedStore::agg_mu_"};
  mutable StoreStats total_ APTRACE_GUARDED_BY(agg_mu_);
  mutable std::vector<StoreStats> shard_stats_ APTRACE_GUARDED_BY(agg_mu_);
  mutable std::vector<uint64_t> shard_boundary_ APTRACE_GUARDED_BY(agg_mu_);
};

}  // namespace aptrace

#endif  // APTRACE_STORAGE_SHARDED_STORE_H_
