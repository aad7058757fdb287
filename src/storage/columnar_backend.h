#ifndef APTRACE_STORAGE_COLUMNAR_BACKEND_H_
#define APTRACE_STORAGE_COLUMNAR_BACKEND_H_

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "storage/storage_backend.h"

namespace aptrace {

/// Columnar segment layout with zone-map pruning.
///
/// Seal() globally sorts all staged events by (timestamp, id) and cuts
/// them into fixed-row-count *segments*; within a segment each Event field
/// lives in its own contiguous array (timestamps, subject/object ids,
/// action/direction bytes, hosts, amounts). Because segments are cut from
/// the globally time-sorted order, concatenating matching rows segment by
/// segment already yields the ascending (timestamp, id) order the
/// StorageBackend contract requires — no merge is needed for sealed data.
///
/// Every segment carries a ZoneMap: min/max timestamp, min/max flow
/// source / flow destination object id, a 64-bit host bitset, an 8-bit
/// action-type bitset, and fixed-width occupancy fingerprints (1024-bit
/// Bloom-style bitsets over flow-source and flow-destination ids). A
/// CollectSrc/CollectDest consults the zone map first and skips the
/// segment entirely — counted in RangeScanBatch::segments_pruned, *not*
/// probed — when the key or time range cannot match. Only surviving
/// segments are probed, so the cost model charges strictly less than the
/// row store's probe-every-partition walk whenever pruning fires.
///
/// A probe reads the segment's *posting list* for the key's column (flow
/// source or flow destination): the segment's distinct keys ascending,
/// CSR starts, and each key's row offsets ascending. It binary-searches
/// the key, seeks the key's first row at or after `begin`, and walks
/// until `end`, so it touches only matching rows. Both lists are built
/// when a segment is cut (Seal, SealTail, Compact), never at probe time,
/// by a stable radix order that skips key bytes constant across the
/// segment: linear in the segment's rows. They cost 4 bytes per row per
/// column plus 12 bytes per distinct key per column.
///
/// Post-seal streaming appends go to a row-oriented *tail* (the classic
/// delta store): an append-ordered vector plus a (timestamp, id)-sorted
/// view. Scans merge tail matches into the segment output by
/// (timestamp, id); the tail counts as one probed unit when it overlaps
/// the query range. The thread-safety contract is inherited unchanged
/// from StorageBackend (reads fully concurrent after Seal; appends need
/// external synchronization).
///
/// Tiered lifecycle (docs/durability.md): SealTail() folds the hot tail
/// into column segments by *splice-and-recut* — only segments whose time
/// range overlaps the tail are re-cut, everything earlier is untouched —
/// which preserves the global (timestamp, id) sort every scan path and
/// FirstSegmentFor's binary search depend on. Repeated seals leave
/// partial trailing segments; Compact() re-cuts the live region back to
/// the optimal segment count. EvictBefore() is logical retention: it
/// advances the `first_live_` watermark so scans skip archived segments
/// entirely, while point lookups by id (Get) still resolve.
class ColumnarSegmentBackend final : public StorageBackend {
 public:
  /// Fingerprint width in 64-bit words (1024 bits total).
  static constexpr size_t kFingerprintWords = 16;

  ColumnarSegmentBackend(CostModel cost_model, size_t segment_rows);

  const BackendCapabilities& capabilities() const override;

  EventId Append(Event event) override;
  void Seal() override;
  size_t NumEvents() const override;
  Event Get(EventId id) const override;

  RangeScanBatch CollectDest(ObjectId dest, TimeMicros begin,
                             TimeMicros end) const override;
  RangeScanBatch CollectSrc(ObjectId src, TimeMicros begin,
                            TimeMicros end) const override;
  RangeScanBatch CollectRange(TimeMicros begin, TimeMicros end) const override;

  bool HasIncomingWrite(ObjectId object, TimeMicros begin,
                        TimeMicros end) const override;
  std::vector<ObjectId> FlowDestsOf(ObjectId src, TimeMicros begin,
                                    TimeMicros end) const override;

  size_t SealTail(WorkerPool* pool) override;
  size_t Compact(WorkerPool* pool) override;
  size_t EvictBefore(TimeMicros horizon) override;
  size_t TailRows() const override { return tail_.size(); }

  size_t NumSegments() const { return segments_.size(); }
  size_t segment_rows() const { return segment_rows_; }
  /// Segments before this index are archived (excluded from scans).
  size_t FirstLiveSegment() const { return first_live_; }
  size_t NumLiveSegments() const { return segments_.size() - first_live_; }

 private:
  using Fingerprint = std::array<uint64_t, kFingerprintWords>;

  struct ZoneMap {
    TimeMicros ts_min = 0;
    TimeMicros ts_max = 0;
    ObjectId src_min = 0;
    ObjectId src_max = 0;
    ObjectId dest_min = 0;
    ObjectId dest_max = 0;
    uint64_t host_bits = 0;  // bit (host % 64)
    uint8_t action_bits = 0;  // bit per ActionType
    Fingerprint src_bits{};   // bit (flow-source id % 1024)
    Fingerprint dest_bits{};  // bit (flow-dest id % 1024)
  };

  /// Row offsets of a segment grouped by one flow-key column: keys[k]'s
  /// rows are rows[starts[k], starts[k + 1]), ascending, hence also in
  /// (timestamp, id) order.
  struct PostingList {
    std::vector<ObjectId> keys;    // distinct, ascending
    std::vector<uint32_t> starts;  // keys.size() + 1 entries
    std::vector<uint32_t> rows;
  };

  /// One column segment: `rows()` events, field-per-array.
  struct Segment {
    std::vector<EventId> ids;
    std::vector<TimeMicros> ts;
    std::vector<ObjectId> subject;
    std::vector<ObjectId> object;
    std::vector<uint64_t> amount;
    std::vector<uint8_t> action;
    std::vector<uint8_t> direction;
    std::vector<HostId> host;
    ZoneMap zone;
    PostingList src_postings;   // by flow source
    PostingList dest_postings;  // by flow destination

    size_t rows() const { return ids.size(); }
  };

  /// Locator for a sealed row: which segment, which offset.
  struct RowRef {
    uint32_t segment = 0;
    uint32_t offset = 0;
  };

  static bool FingerprintMayContain(const Fingerprint& bits, ObjectId id);
  static void FingerprintAdd(Fingerprint& bits, ObjectId id);

  ObjectId FlowKeyAt(const Segment& s, size_t row, bool by_src) const;
  Event MaterializeRow(const Segment& s, size_t row) const;

  /// Zone-map admission test for a keyed scan. True when the segment may
  /// contain rows whose flow source (by_src) / destination matches `key`.
  bool ZoneMayMatch(const ZoneMap& z, ObjectId key, bool by_src) const;

  /// Groups row offsets by `keys[row]` (one flow-key column).
  static PostingList BuildPostingList(const std::vector<ObjectId>& keys);

  /// Offsets of the rows of `s` whose flow source (by_src) / destination
  /// is `key` and whose timestamp lies in [begin, end), ascending: the
  /// posting-list walk behind every keyed scan.
  static std::span<const uint32_t> KeyRows(const Segment& s, bool by_src,
                                           ObjectId key, TimeMicros begin,
                                           TimeMicros end);

  /// Index of the first *live* segment whose ts_max >= begin (segments
  /// are in global time order, so both ts_min and ts_max are
  /// non-decreasing). Never returns an archived segment: the search
  /// starts at first_live_, which is how eviction drops rows from every
  /// scan path at once.
  size_t FirstSegmentFor(TimeMicros begin) const;

  /// Columnarizes rows[base, base+n) — already (timestamp, id)-sorted —
  /// into *out, builds its posting lists, and points row_refs_ at the new
  /// locations. Writes only *out and distinct row_refs_ elements, so calls
  /// over disjoint ranges are safe to run concurrently (SealTail/Compact
  /// fan builds out to a WorkerPool).
  void BuildSegment(const std::vector<Event>& rows, size_t base, size_t n,
                    uint32_t seg_index, Segment* out);

  /// Replaces segments_[keep_segments, end) with a fresh fixed-size cut
  /// of `rows` (sorted), parallelizing segment builds on `pool` when
  /// non-null.
  void RecutInto(std::vector<Event> rows, size_t keep_segments,
                 WorkerPool* pool);

  /// [first, last) index range of tail_sorted_ with timestamps in
  /// [begin, end).
  std::pair<size_t, size_t> TailBounds(TimeMicros begin, TimeMicros end) const;

  /// Shared keyed-collection walk behind CollectDest/CollectSrc.
  RangeScanBatch CollectImpl(bool by_src, ObjectId key, TimeMicros begin,
                             TimeMicros end) const;

  size_t segment_rows_;

  /// Build phase: whole rows staged until Seal() columnarizes them.
  std::vector<Event> staging_;

  /// Sealed data.
  std::vector<Segment> segments_;
  std::vector<RowRef> row_refs_;  // indexed by EventId, sealed rows only
  size_t sealed_rows_ = 0;
  /// Retention watermark: segments_[0, first_live_) are archived —
  /// excluded from scans, still resolvable by Get().
  size_t first_live_ = 0;

  /// Post-seal streaming tail (delta store): append order = id order.
  std::vector<Event> tail_;
  /// Indexes into tail_, kept sorted by (timestamp, id).
  std::vector<uint32_t> tail_sorted_;
};

}  // namespace aptrace

#endif  // APTRACE_STORAGE_COLUMNAR_BACKEND_H_
