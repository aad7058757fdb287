#include "storage/columnar_backend.h"

#include <algorithm>
#include <array>
#include <cassert>
#include <limits>
#include <numeric>

#include "obs/metrics.h"
#include "obs/names.h"
#include "obs/trace.h"

namespace aptrace {

namespace {

constexpr size_t kDefaultSegmentRows = 4096;

struct LifecycleMetrics {
  obs::Counter* tail_seals;
  obs::Counter* tail_sealed_rows;
  obs::Counter* compactions;
  obs::Counter* segments_compacted;
  obs::Counter* rows_evicted;
  obs::Counter* segments_evicted;
};

const LifecycleMetrics& Lm() {
  static const LifecycleMetrics m = {
      obs::Metrics().FindOrCreateCounter(obs::names::kStoreTailSeals),
      obs::Metrics().FindOrCreateCounter(obs::names::kStoreTailSealedRows),
      obs::Metrics().FindOrCreateCounter(obs::names::kStoreCompactions),
      obs::Metrics().FindOrCreateCounter(obs::names::kStoreSegmentsCompacted),
      obs::Metrics().FindOrCreateCounter(obs::names::kStoreRowsEvicted),
      obs::Metrics().FindOrCreateCounter(obs::names::kStoreSegmentsEvicted),
  };
  return m;
}

/// The permutation that sorts `keys` ascending, equal keys kept in input
/// order: an LSD radix sort, one counting pass per byte. Bytes on which
/// every key agrees cannot reorder anything and are skipped, so keys
/// that span a narrow range (a segment's object ids, timestamps offset
/// by their minimum) take few passes. Linear in keys.size().
std::vector<uint32_t> StableRadixOrder(const std::vector<uint64_t>& keys) {
  std::vector<uint32_t> order(keys.size());
  std::iota(order.begin(), order.end(), 0u);
  if (keys.empty()) return order;
  uint64_t varying = 0;
  for (const uint64_t k : keys) varying |= k ^ keys.front();
  std::vector<uint32_t> next(keys.size());
  for (int shift = 0; shift < 64; shift += 8) {
    if (((varying >> shift) & 0xff) == 0) continue;
    std::array<uint32_t, 257> start{};
    for (const uint64_t k : keys) start[((k >> shift) & 0xff) + 1]++;
    for (size_t b = 1; b < start.size(); ++b) start[b] += start[b - 1];
    for (const uint32_t i : order) {
      next[start[(keys[i] >> shift) & 0xff]++] = i;
    }
    order.swap(next);
  }
  return order;
}

/// Reorders `rows` so that rows[j] becomes the old rows[order[j]],
/// following the permutation's cycles in place; clobbers `order`.
void Permute(std::vector<Event>& rows, std::vector<uint32_t>& order) {
  for (size_t i = 0; i < rows.size(); ++i) {
    if (order[i] == i) continue;
    const Event held = rows[i];
    size_t j = i;
    for (;;) {
      const size_t k = order[j];
      order[j] = static_cast<uint32_t>(j);
      if (k == i) break;
      rows[j] = rows[k];
      j = k;
    }
    rows[j] = held;
  }
}

}  // namespace

ColumnarSegmentBackend::ColumnarSegmentBackend(CostModel cost_model,
                                               size_t segment_rows)
    : StorageBackend(StorageBackendKind::kColumnar, cost_model),
      segment_rows_(segment_rows == 0 ? kDefaultSegmentRows : segment_rows) {}

const BackendCapabilities& ColumnarSegmentBackend::capabilities() const {
  static const BackendCapabilities kCaps = {
      .probe_unit = "column segment",
  };
  return kCaps;
}

bool ColumnarSegmentBackend::FingerprintMayContain(const Fingerprint& bits,
                                                   ObjectId id) {
  const size_t bit = id % (kFingerprintWords * 64);
  return (bits[bit / 64] >> (bit % 64)) & 1u;
}

void ColumnarSegmentBackend::FingerprintAdd(Fingerprint& bits, ObjectId id) {
  const size_t bit = id % (kFingerprintWords * 64);
  bits[bit / 64] |= uint64_t{1} << (bit % 64);
}

size_t ColumnarSegmentBackend::NumEvents() const {
  if (!sealed()) return staging_.size();
  return sealed_rows_ + tail_.size();
}

EventId ColumnarSegmentBackend::Append(Event event) {
  if (!sealed()) {
    const EventId id = staging_.size();
    event.id = id;
    NoteAppend(event);
    staging_.push_back(event);
    return id;
  }
  // Streaming path: the tail is append-ordered (id order); the sorted view
  // keeps (timestamp, id) scan order available without resealing.
  const EventId id = sealed_rows_ + tail_.size();
  event.id = id;
  NoteAppend(event);
  const uint32_t pos = static_cast<uint32_t>(tail_.size());
  tail_.push_back(event);
  const auto by_time = [this](uint32_t a, uint32_t b) {
    const Event& ea = tail_[a];
    const Event& eb = tail_[b];
    if (ea.timestamp != eb.timestamp) return ea.timestamp < eb.timestamp;
    return ea.id < eb.id;
  };
  tail_sorted_.insert(
      std::upper_bound(tail_sorted_.begin(), tail_sorted_.end(), pos, by_time),
      pos);
  return id;
}

void ColumnarSegmentBackend::Seal() {
  if (sealed()) return;
  APTRACE_SPAN("store/seal");
  // Staged ids are dense append indexes, so a stable order by timestamp
  // alone is the global (timestamp, id) order.
  if (!staging_.empty()) {
    TimeMicros t0 = staging_.front().timestamp;
    for (const Event& e : staging_) t0 = std::min(t0, e.timestamp);
    std::vector<uint64_t> offsets;
    offsets.reserve(staging_.size());
    for (const Event& e : staging_) {
      offsets.push_back(static_cast<uint64_t>(e.timestamp) -
                        static_cast<uint64_t>(t0));
    }
    std::vector<uint32_t> order = StableRadixOrder(offsets);
    offsets = {};
    Permute(staging_, order);
  }
  sealed_rows_ = staging_.size();
  row_refs_.resize(sealed_rows_);
  RecutInto(std::move(staging_), 0);
  staging_.clear();
  staging_.shrink_to_fit();
  MarkSealed(sealed_rows_ == 0);
}

ColumnarSegmentBackend::Segment ColumnarSegmentBackend::BuildSegment(
    const std::vector<Event>& rows, size_t base, size_t n,
    uint32_t seg_index) {
  Segment s;
  s.ids.reserve(n);
  s.ts.reserve(n);
  s.subject.reserve(n);
  s.object.reserve(n);
  s.amount.reserve(n);
  s.action.reserve(n);
  s.direction.reserve(n);
  s.host.reserve(n);
  ZoneMap z;
  z.ts_min = std::numeric_limits<TimeMicros>::max();
  z.ts_max = std::numeric_limits<TimeMicros>::min();
  z.src_min = ~static_cast<ObjectId>(0);
  z.src_max = 0;
  z.dest_min = ~static_cast<ObjectId>(0);
  z.dest_max = 0;
  for (size_t i = 0; i < n; ++i) {
    const Event& e = rows[base + i];
    row_refs_[e.id] = {seg_index, static_cast<uint32_t>(i)};
    s.ids.push_back(e.id);
    s.ts.push_back(e.timestamp);
    s.subject.push_back(e.subject);
    s.object.push_back(e.object);
    s.amount.push_back(e.amount);
    s.action.push_back(static_cast<uint8_t>(e.action));
    s.direction.push_back(static_cast<uint8_t>(e.direction));
    s.host.push_back(e.host);
    const ObjectId src = e.FlowSource();
    const ObjectId dest = e.FlowDest();
    z.ts_min = std::min(z.ts_min, e.timestamp);
    z.ts_max = std::max(z.ts_max, e.timestamp);
    z.src_min = std::min(z.src_min, src);
    z.src_max = std::max(z.src_max, src);
    z.dest_min = std::min(z.dest_min, dest);
    z.dest_max = std::max(z.dest_max, dest);
    z.host_bits |= uint64_t{1} << (e.host % 64);
    z.action_bits |= static_cast<uint8_t>(1u << static_cast<int>(e.action));
    FingerprintAdd(z.src_bits, src);
    FingerprintAdd(z.dest_bits, dest);
  }
  s.zone = z;
  std::vector<ObjectId> keys(n);
  for (size_t i = 0; i < n; ++i) keys[i] = FlowKeyAt(s, i, /*by_src=*/true);
  s.src_postings = BuildPostingList(keys);
  for (size_t i = 0; i < n; ++i) keys[i] = FlowKeyAt(s, i, /*by_src=*/false);
  s.dest_postings = BuildPostingList(keys);
  return s;
}

void ColumnarSegmentBackend::RecutInto(std::vector<Event> rows,
                                       size_t keep_segments) {
  const size_t total = rows.size();
  segments_.resize(keep_segments);
  segments_.reserve(keep_segments +
                    (total + segment_rows_ - 1) / segment_rows_);
  for (size_t base = 0; base < total; base += segment_rows_) {
    segments_.push_back(
        BuildSegment(rows, base, std::min(segment_rows_, total - base),
                     static_cast<uint32_t>(segments_.size())));
  }
}

size_t ColumnarSegmentBackend::SealTail() {
  if (!sealed() || tail_.empty()) return 0;
  APTRACE_SPAN("store/seal_tail");
  const size_t tail_n = tail_.size();
  const TimeMicros tail_min = tail_[tail_sorted_.front()].timestamp;

  // Splice point: first live segment whose rows can sort after a tail
  // row. Tail ids exceed every sealed id, so a segment with
  // ts_max == tail_min keeps its place — new rows with the same
  // timestamp sort strictly after it.
  size_t lo = first_live_;
  size_t hi = segments_.size();
  while (lo < hi) {
    const size_t mid = (lo + hi) / 2;
    if (segments_[mid].zone.ts_max > tail_min) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  const size_t splice = lo;

  // Materialize the spliced rows (already globally sorted) and merge the
  // tail's sorted view in.
  size_t spliced_rows = 0;
  for (size_t i = splice; i < segments_.size(); ++i) {
    spliced_rows += segments_[i].rows();
  }
  std::vector<Event> spliced;
  spliced.reserve(spliced_rows);
  for (size_t i = splice; i < segments_.size(); ++i) {
    const Segment& s = segments_[i];
    for (size_t r = 0; r < s.rows(); ++r) {
      spliced.push_back(MaterializeRow(s, r));
    }
  }
  std::vector<Event> tail_rows;
  tail_rows.reserve(tail_n);
  for (const uint32_t pos : tail_sorted_) tail_rows.push_back(tail_[pos]);

  row_refs_.resize(sealed_rows_ + tail_n);
  RecutInto(MergeScanRows(spliced, tail_rows), splice);
  sealed_rows_ += tail_n;
  tail_.clear();
  tail_sorted_.clear();
  Lm().tail_seals->Add();
  Lm().tail_sealed_rows->Add(tail_n);
  return tail_n;
}

size_t ColumnarSegmentBackend::Compact() {
  if (!sealed()) return 0;
  const size_t current = segments_.size() - first_live_;
  size_t live_rows = 0;
  for (size_t i = first_live_; i < segments_.size(); ++i) {
    live_rows += segments_[i].rows();
  }
  const size_t optimal = (live_rows + segment_rows_ - 1) / segment_rows_;
  if (current <= optimal) return 0;
  APTRACE_SPAN("store/compact");
  std::vector<Event> rows;
  rows.reserve(live_rows);
  for (size_t i = first_live_; i < segments_.size(); ++i) {
    const Segment& s = segments_[i];
    for (size_t r = 0; r < s.rows(); ++r) rows.push_back(MaterializeRow(s, r));
  }
  RecutInto(std::move(rows), first_live_);
  const size_t saved = current - (segments_.size() - first_live_);
  Lm().compactions->Add();
  Lm().segments_compacted->Add(saved);
  return saved;
}

size_t ColumnarSegmentBackend::EvictBefore(TimeMicros horizon) {
  size_t rows = 0;
  size_t segs = 0;
  // ts_max is non-decreasing across segments, so the evictable set is a
  // prefix of the live region: advancing the watermark is all it takes.
  while (first_live_ < segments_.size() &&
         segments_[first_live_].zone.ts_max < horizon) {
    rows += segments_[first_live_].rows();
    segs++;
    first_live_++;
  }
  if (rows > 0) {
    Lm().rows_evicted->Add(rows);
    Lm().segments_evicted->Add(segs);
  }
  return rows;
}

ObjectId ColumnarSegmentBackend::FlowKeyAt(const Segment& s, size_t row,
                                           bool by_src) const {
  const bool subject_to_object =
      s.direction[row] ==
      static_cast<uint8_t>(FlowDirection::kSubjectToObject);
  // FlowSource is subject when the flow goes subject->object; FlowDest is
  // the other endpoint.
  if (by_src) return subject_to_object ? s.subject[row] : s.object[row];
  return subject_to_object ? s.object[row] : s.subject[row];
}

Event ColumnarSegmentBackend::MaterializeRow(const Segment& s,
                                             size_t row) const {
  Event e;
  e.id = s.ids[row];
  e.subject = s.subject[row];
  e.object = s.object[row];
  e.timestamp = s.ts[row];
  e.amount = s.amount[row];
  e.action = static_cast<ActionType>(s.action[row]);
  e.direction = static_cast<FlowDirection>(s.direction[row]);
  e.host = s.host[row];
  return e;
}

Event ColumnarSegmentBackend::Get(EventId id) const {
  if (!sealed()) return staging_[id];
  if (id < sealed_rows_) {
    const RowRef ref = row_refs_[id];
    return MaterializeRow(segments_[ref.segment], ref.offset);
  }
  return tail_[id - sealed_rows_];
}

bool ColumnarSegmentBackend::ZoneMayMatch(const ZoneMap& z, ObjectId key,
                                          bool by_src) const {
  if (by_src) {
    if (key < z.src_min || key > z.src_max) return false;
    return FingerprintMayContain(z.src_bits, key);
  }
  if (key < z.dest_min || key > z.dest_max) return false;
  return FingerprintMayContain(z.dest_bits, key);
}

size_t ColumnarSegmentBackend::FirstSegmentFor(TimeMicros begin) const {
  // Segments are cut from globally time-sorted rows, so ts_max is
  // non-decreasing across segments: binary search the first candidate.
  // Archived segments (before first_live_) are outside the search domain,
  // which is what makes EvictBefore take effect in every scan path.
  size_t lo = first_live_;
  size_t hi = segments_.size();
  while (lo < hi) {
    const size_t mid = (lo + hi) / 2;
    if (segments_[mid].zone.ts_max < begin) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

std::pair<size_t, size_t> ColumnarSegmentBackend::TailBounds(
    TimeMicros begin, TimeMicros end) const {
  const auto ts_of = [this](uint32_t pos) { return tail_[pos].timestamp; };
  const auto lo = std::lower_bound(
      tail_sorted_.begin(), tail_sorted_.end(), begin,
      [&](uint32_t pos, TimeMicros t) { return ts_of(pos) < t; });
  const auto hi = std::lower_bound(
      lo, tail_sorted_.end(), end,
      [&](uint32_t pos, TimeMicros t) { return ts_of(pos) < t; });
  return {static_cast<size_t>(lo - tail_sorted_.begin()),
          static_cast<size_t>(hi - tail_sorted_.begin())};
}

ColumnarSegmentBackend::PostingList ColumnarSegmentBackend::BuildPostingList(
    const std::vector<ObjectId>& keys) {
  PostingList p;
  p.rows = StableRadixOrder(keys);
  const auto opens_key = [&](size_t i) {
    return i == 0 || keys[p.rows[i]] != keys[p.rows[i - 1]];
  };
  size_t distinct = 0;
  for (size_t i = 0; i < p.rows.size(); ++i) distinct += opens_key(i);
  p.keys.reserve(distinct);
  p.starts.reserve(distinct + 1);
  for (size_t i = 0; i < p.rows.size(); ++i) {
    if (!opens_key(i)) continue;
    p.keys.push_back(keys[p.rows[i]]);
    p.starts.push_back(static_cast<uint32_t>(i));
  }
  p.starts.push_back(static_cast<uint32_t>(p.rows.size()));
  return p;
}

std::span<const uint32_t> ColumnarSegmentBackend::KeyRows(
    const Segment& s, bool by_src, ObjectId key, TimeMicros begin,
    TimeMicros end) {
  const PostingList& p = by_src ? s.src_postings : s.dest_postings;
  const auto k = std::lower_bound(p.keys.begin(), p.keys.end(), key);
  if (k == p.keys.end() || *k != key) return {};
  const size_t slot = static_cast<size_t>(k - p.keys.begin());
  const uint32_t* first = p.rows.data() + p.starts[slot];
  const uint32_t* last = p.rows.data() + p.starts[slot + 1];
  const auto ts_before = [&s](uint32_t row, TimeMicros t) {
    return s.ts[row] < t;
  };
  first = std::lower_bound(first, last, begin, ts_before);
  last = std::lower_bound(first, last, end, ts_before);
  return {first, last};
}

RangeScanBatch ColumnarSegmentBackend::CollectImpl(bool by_src, ObjectId key,
                                                   TimeMicros begin,
                                                   TimeMicros end) const {
  assert(sealed());
  RangeScanBatch batch;
  if (begin >= end) return batch;

  for (size_t i = FirstSegmentFor(begin);
       i < segments_.size() && segments_[i].zone.ts_min < end; ++i) {
    const Segment& s = segments_[i];
    if (!ZoneMayMatch(s.zone, key, by_src)) {
      batch.segments_pruned++;
      continue;
    }
    batch.partitions_probed++;
    const std::span<const uint32_t> hits = KeyRows(s, by_src, key, begin, end);
    for (const uint32_t r : hits) batch.rows.push_back(MaterializeRow(s, r));
    if (!hits.empty()) batch.partitions_seeked++;
  }

  if (!tail_.empty()) {
    const auto [t0, t1] = TailBounds(begin, end);
    if (t0 < t1) {
      batch.partitions_probed++;
      std::vector<Event> tail_hits;
      for (size_t i = t0; i < t1; ++i) {
        const Event& e = tail_[tail_sorted_[i]];
        const ObjectId k = by_src ? e.FlowSource() : e.FlowDest();
        if (k == key) tail_hits.push_back(e);
      }
      if (!tail_hits.empty()) {
        batch.partitions_seeked++;
        batch.rows = MergeScanRows(batch.rows, tail_hits);
      }
    }
  }
  return batch;
}

RangeScanBatch ColumnarSegmentBackend::CollectDest(ObjectId dest,
                                                   TimeMicros begin,
                                                   TimeMicros end) const {
  return CollectImpl(/*by_src=*/false, dest, begin, end);
}

RangeScanBatch ColumnarSegmentBackend::CollectSrc(ObjectId src,
                                                  TimeMicros begin,
                                                  TimeMicros end) const {
  return CollectImpl(/*by_src=*/true, src, begin, end);
}

RangeScanBatch ColumnarSegmentBackend::CollectRange(TimeMicros begin,
                                                    TimeMicros end) const {
  assert(sealed());
  RangeScanBatch batch;
  if (begin >= end) return batch;

  for (size_t i = FirstSegmentFor(begin);
       i < segments_.size() && segments_[i].zone.ts_min < end; ++i) {
    const Segment& s = segments_[i];
    // No key to prune on: every overlapping segment is read in full.
    batch.partitions_probed++;
    batch.partitions_seeked++;
    const auto r0 =
        std::lower_bound(s.ts.begin(), s.ts.end(), begin) - s.ts.begin();
    const auto r1 = std::lower_bound(s.ts.begin() + r0, s.ts.end(), end) -
                    s.ts.begin();
    for (auto r = r0; r < r1; ++r) batch.rows.push_back(MaterializeRow(s, r));
  }

  if (!tail_.empty()) {
    const auto [t0, t1] = TailBounds(begin, end);
    if (t0 < t1) {
      batch.partitions_probed++;
      batch.partitions_seeked++;
      std::vector<Event> tail_rows;
      tail_rows.reserve(t1 - t0);
      for (size_t i = t0; i < t1; ++i) {
        tail_rows.push_back(tail_[tail_sorted_[i]]);
      }
      batch.rows = MergeScanRows(batch.rows, tail_rows);
    }
  }
  return batch;
}

bool ColumnarSegmentBackend::HasIncomingWrite(ObjectId object,
                                              TimeMicros begin,
                                              TimeMicros end) const {
  assert(sealed());
  if (begin >= end) return false;
  for (size_t i = FirstSegmentFor(begin);
       i < segments_.size() && segments_[i].zone.ts_min < end; ++i) {
    const Segment& s = segments_[i];
    if (!ZoneMayMatch(s.zone, object, /*by_src=*/false)) continue;
    if (!KeyRows(s, /*by_src=*/false, object, begin, end).empty()) {
      return true;
    }
  }
  if (!tail_.empty()) {
    const auto [t0, t1] = TailBounds(begin, end);
    for (size_t i = t0; i < t1; ++i) {
      if (tail_[tail_sorted_[i]].FlowDest() == object) return true;
    }
  }
  return false;
}

std::vector<ObjectId> ColumnarSegmentBackend::FlowDestsOf(
    ObjectId src, TimeMicros begin, TimeMicros end) const {
  assert(sealed());
  std::vector<ObjectId> out;
  if (begin >= end) return out;
  for (size_t i = FirstSegmentFor(begin);
       i < segments_.size() && segments_[i].zone.ts_min < end; ++i) {
    const Segment& s = segments_[i];
    if (!ZoneMayMatch(s.zone, src, /*by_src=*/true)) continue;
    for (const uint32_t r : KeyRows(s, /*by_src=*/true, src, begin, end)) {
      out.push_back(FlowKeyAt(s, r, /*by_src=*/false));
    }
  }
  if (!tail_.empty()) {
    const auto [t0, t1] = TailBounds(begin, end);
    for (size_t i = t0; i < t1; ++i) {
      const Event& e = tail_[tail_sorted_[i]];
      if (e.FlowSource() == src) out.push_back(e.FlowDest());
    }
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

}  // namespace aptrace
