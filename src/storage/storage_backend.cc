#include "storage/storage_backend.h"

#include <algorithm>
#include <cassert>
#include <cstdlib>
#include <iterator>
#include <utility>

#include "obs/metrics.h"
#include "obs/names.h"
#include "util/env.h"

namespace aptrace {

const char* StorageBackendName(StorageBackendKind kind) {
  switch (kind) {
    case StorageBackendKind::kRow:
      return "row";
    case StorageBackendKind::kColumnar:
      return "columnar";
  }
  return "unknown";
}

std::optional<StorageBackendKind> ParseStorageBackendKind(
    std::string_view name) {
  if (name == "row") return StorageBackendKind::kRow;
  if (name == "columnar") return StorageBackendKind::kColumnar;
  return std::nullopt;
}

StorageBackendKind DefaultStorageBackendKind() {
  const auto value = GetValidatedEnv(
      kEnvBackend,
      [](const std::string& v) {
        return ParseStorageBackendKind(v).has_value();
      },
      "'row' or 'columnar'");
  if (value.has_value()) return *ParseStorageBackendKind(*value);
  return StorageBackendKind::kRow;
}

size_t DefaultShardCount() {
  const auto value = GetValidatedEnv(
      kEnvShards,
      [](const std::string& v) {
        if (v.empty() || v.size() > 2) return false;
        for (const char c : v) {
          if (c < '0' || c > '9') return false;
        }
        const unsigned long n = std::strtoul(v.c_str(), nullptr, 10);
        return n >= 1 && n <= kMaxStoreShards;
      },
      "an integer shard count in [1, 64]");
  if (value.has_value()) return std::strtoul(value->c_str(), nullptr, 10);
  return 1;
}

/// Aggregate counters (all backends) plus the per-backend query counter:
/// the Prometheus exporter emits one `# TYPE` line per metric name, so the
/// backend dimension is encoded as a name suffix rather than a label.
struct StorageBackend::BackendMetrics {
  obs::Counter* queries;
  obs::Counter* events_scanned;
  obs::Counter* rows_filtered;
  obs::Counter* segments_pruned;
  obs::Counter* backend_queries;
};

const StorageBackend::BackendMetrics& StorageBackend::Bm() const {
  static const BackendMetrics kRowMetrics = {
      obs::Metrics().FindOrCreateCounter(obs::names::kStoreQueries),
      obs::Metrics().FindOrCreateCounter(obs::names::kStoreEventsScanned),
      obs::Metrics().FindOrCreateCounter(obs::names::kStoreRowsFiltered),
      obs::Metrics().FindOrCreateCounter(obs::names::kStoreSegmentsPruned),
      obs::Metrics().FindOrCreateCounter(obs::names::kStoreRowQueries),
  };
  static const BackendMetrics kColumnarMetrics = {
      obs::Metrics().FindOrCreateCounter(obs::names::kStoreQueries),
      obs::Metrics().FindOrCreateCounter(obs::names::kStoreEventsScanned),
      obs::Metrics().FindOrCreateCounter(obs::names::kStoreRowsFiltered),
      obs::Metrics().FindOrCreateCounter(obs::names::kStoreSegmentsPruned),
      obs::Metrics().FindOrCreateCounter(obs::names::kStoreColumnarQueries),
  };
  return kind_ == StorageBackendKind::kColumnar ? kColumnarMetrics
                                                : kRowMetrics;
}

std::vector<Event> MergeScanRows(const std::vector<Event>& a,
                                 const std::vector<Event>& b) {
  std::vector<Event> merged;
  merged.reserve(a.size() + b.size());
  std::merge(a.begin(), a.end(), b.begin(), b.end(),
             std::back_inserter(merged), [](const Event& x, const Event& y) {
               if (x.timestamp != y.timestamp) {
                 return x.timestamp < y.timestamp;
               }
               return x.id < y.id;
             });
  return merged;
}

FinishCollect StorageBackend::StartCollectMany(
    std::span<const CollectProbe> probes) const {
  std::vector<RangeScanBatch> out;
  out.reserve(probes.size());
  for (const CollectProbe& p : probes) {
    switch (p.kind) {
      case ProbeKind::kDest:
        out.push_back(CollectDest(p.key, p.begin, p.end));
        break;
      case ProbeKind::kSrc:
        out.push_back(CollectSrc(p.key, p.begin, p.end));
        break;
      case ProbeKind::kRange:
        out.push_back(CollectRange(p.begin, p.end));
        break;
    }
  }
  return FinishCollect(std::move(out));
}

StorageBackend::StorageBackend(StorageBackendKind kind, CostModel cost_model)
    : kind_(kind), cost_model_(cost_model) {}

void StorageBackend::NoteAppend(const Event& event) {
  min_time_ = std::min(min_time_, event.timestamp);
  max_time_ = std::max(max_time_, event.timestamp);
}

void StorageBackend::MarkSealed(bool empty) {
  if (empty) {
    min_time_ = 0;
    max_time_ = 0;
  }
  sealed_ = true;
}

StoreStats StorageBackend::stats() const {
  MutexLock lock(&stats_mu_);
  return stats_;
}

void StorageBackend::ResetStats() {
  MutexLock lock(&stats_mu_);
  stats_ = StoreStats{};
}

size_t StorageBackend::ReplayScan(const RangeScanBatch& batch, Clock* clock,
                                  const std::function<void(const Event&)>& fn,
                                  const RowFilter& filter,
                                  DurationMicros* cost_out,
                                  ScanProbeStats* probe_out) const {
  assert(sealed_);
  size_t rows = 0;
  size_t filtered = 0;
  for (const Event& e : batch.rows) {
    if (filter && !filter(e)) {
      filtered++;
      continue;
    }
    rows++;
    if (fn) fn(e);
  }
  const DurationMicros cost = cost_model_.QueryCost(
      rows, filtered, batch.partitions_probed, batch.partitions_seeked);
  if (clock != nullptr) clock->AdvanceMicros(cost);
  if (cost_out != nullptr) *cost_out = cost;
  if (probe_out != nullptr) {
    probe_out->rows_delivered = rows;
    probe_out->rows_filtered = filtered;
    probe_out->partitions_probed = batch.partitions_probed;
    probe_out->partitions_seeked = batch.partitions_seeked;
    probe_out->segments_pruned = batch.segments_pruned;
  }
  {
    MutexLock lock(&stats_mu_);
    stats_.queries++;
    stats_.rows_matched += rows;
    stats_.rows_filtered += filtered;
    stats_.partitions_probed += batch.partitions_probed;
    stats_.partitions_seeked += batch.partitions_seeked;
    stats_.segments_pruned += batch.segments_pruned;
    stats_.simulated_cost += cost;
  }
  ChargeQueryMetrics(rows + filtered, filtered, batch.segments_pruned);
  return rows;
}

void StorageBackend::ChargeQueryMetrics(uint64_t rows_scanned,
                                        uint64_t rows_filtered,
                                        uint64_t segments_pruned) const {
  const BackendMetrics& m = Bm();
  m.queries->Add();
  m.backend_queries->Add();
  m.events_scanned->Add(rows_scanned);
  m.rows_filtered->Add(rows_filtered);
  m.segments_pruned->Add(segments_pruned);
}

}  // namespace aptrace
