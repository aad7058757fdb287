#ifndef APTRACE_DIST_REMOTE_BACKEND_H_
#define APTRACE_DIST_REMOTE_BACKEND_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "dist/shard_client.h"
#include "storage/cost_model.h"
#include "storage/storage_backend.h"

namespace aptrace::dist {

/// A StorageBackend whose rows live in a remote shard daemon. Plugged
/// into the ShardedStore through EventStoreOptions::shard_backend_factory,
/// it turns the in-process scatter-gather engine into the distributed
/// fabric of docs/distribution.md: the coordinator keeps the gid
/// directory, routing masks, merge, and stats exactly as before, and this
/// class translates each per-shard Collect/lifecycle call into one RPC.
///
/// What stays local (never an RPC):
///   - NumEvents/TailRows/sealed: mirrored counters, because the
///     ShardedStore reads them under its own aggregation mutex and a
///     network round-trip under a leaf lock would invert the lock order.
///   - stats(): the base-class zeroes. Replay runs coordinator-side, so
///     the ShardedStore's per-shard attribution is the source of truth.
///
/// Appends are batched: pre-seal rows buffer locally and flush every
/// kAppendBatch rows (and at Seal), each batch carrying the predicted
/// first_lid so the daemon can reject any divergence from the dense
/// append order (DST-E007). Post-seal streaming appends flush
/// immediately — the daemon must see the row before the next quantum's
/// queries do.
///
/// Every collect is one shard.collect_many round trip: StartCollectMany
/// sends its whole probe list in one request (split at
/// kMaxCollectProbes) and the call it returns reads the reply, so the
/// ShardedStore has every probed shard's request in flight before it
/// reads any. The single-window Collect* are its one-probe case. The
/// capability block advertises collect_batch = kCollectBatch, so the
/// Executor hands this backend B windows per call. A reply carries whole
/// rows, so no scan calls Get() and nothing is cached. Get() is a point
/// lookup (session start, checkpoint restore, trace export): one
/// shard.fetch round trip per call.
///
/// Thread-safety: matches the read-after-build contract. Collect*/Get/
/// HasIncomingWrite/FlowDestsOf are safe concurrently post-seal (each
/// call checks its own connection out of the ShardClient's pool and this
/// class keeps no mutable read state). Append/Seal/lifecycle calls
/// require the same external synchronization as every other backend.
///
/// All failures surface as DistError (DST-E00x) — the ShardedStore's
/// scatter turns them into a degraded-mode report naming the shard.
class RemoteShardBackend final : public StorageBackend {
 public:
  /// Rows buffered per shard.append batch during bulk load.
  static constexpr size_t kAppendBatch = 512;

  /// Windows the Executor collects per CollectMany over a fleet (B).
  static constexpr size_t kCollectBatch = 64;

  RemoteShardBackend(std::shared_ptr<ShardClient> client,
                     StorageBackendKind kind, CostModel cost_model);
  ~RemoteShardBackend() override;

  const BackendCapabilities& capabilities() const override;

  EventId Append(Event event) override;
  void Seal() override;
  size_t NumEvents() const override { return num_events_; }
  Event Get(EventId id) const override;

  RangeScanBatch CollectDest(ObjectId dest, TimeMicros begin,
                             TimeMicros end) const override;
  RangeScanBatch CollectSrc(ObjectId src, TimeMicros begin,
                            TimeMicros end) const override;
  RangeScanBatch CollectRange(TimeMicros begin, TimeMicros end) const override;
  FinishCollect StartCollectMany(
      std::span<const CollectProbe> probes) const override;

  bool HasIncomingWrite(ObjectId object, TimeMicros begin,
                        TimeMicros end) const override;
  std::vector<ObjectId> FlowDestsOf(ObjectId src, TimeMicros begin,
                                    TimeMicros end) const override;

  size_t SealTail() override;
  size_t Compact() override;
  size_t EvictBefore(TimeMicros horizon) override;
  size_t TailRows() const override { return tail_rows_; }

  const ShardClient& client() const { return *client_; }

 private:
  /// Sends the buffered pre-seal rows as one shard.append.
  void FlushAppends();

  std::shared_ptr<ShardClient> client_;

  /// Local mirrors of the remote backend's counters (see class comment).
  size_t num_events_ = 0;
  size_t tail_rows_ = 0;

  std::vector<Event> pending_;  // pre-seal append buffer
  EventId pending_first_lid_ = 0;
};

}  // namespace aptrace::dist

#endif  // APTRACE_DIST_REMOTE_BACKEND_H_
