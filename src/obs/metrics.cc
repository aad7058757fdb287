#include "obs/metrics.h"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "obs/json_dict.h"
#include "obs/names.h"
#include "util/string_util.h"

namespace aptrace::obs {

namespace {

/// %g keeps bucket bounds like 0.001 readable and integers bare.
std::string FormatDouble(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%g", v);
  return buf;
}

}  // namespace

// ----------------------------------------------------------- Histogram

LatencyHistogram::LatencyHistogram(std::string name, std::string help,
                                   std::vector<double> bounds)
    : name_(std::move(name)),
      help_(std::move(help)),
      bounds_(std::move(bounds)),
      buckets_(bounds_.size() + 1) {
  std::sort(bounds_.begin(), bounds_.end());
}

void LatencyHistogram::Observe(double v) {
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), v);
  const size_t idx = static_cast<size_t>(it - bounds_.begin());
  buckets_[idx].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  uint64_t cur = sum_bits_.load(std::memory_order_relaxed);
  uint64_t next;
  do {
    next = std::bit_cast<uint64_t>(std::bit_cast<double>(cur) + v);
  } while (!sum_bits_.compare_exchange_weak(cur, next,
                                            std::memory_order_relaxed));
  MutexLock lock(&mu_);
  if (samples_.count() < kMaxSamples) samples_.Add(v);
}

double LatencyHistogram::sum() const {
  return std::bit_cast<double>(sum_bits_.load(std::memory_order_relaxed));
}

std::vector<uint64_t> LatencyHistogram::BucketCounts() const {
  std::vector<uint64_t> out(buckets_.size());
  for (size_t i = 0; i < buckets_.size(); ++i) {
    out[i] = buckets_[i].load(std::memory_order_relaxed);
  }
  return out;
}

double LatencyHistogram::Percentile(double p) const {
  MutexLock lock(&mu_);
  return samples_.Percentile(p);
}

void LatencyHistogram::Reset() {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_bits_.store(0, std::memory_order_relaxed);
  MutexLock lock(&mu_);
  samples_ = SampleStats();
}

const std::vector<double>& DefaultLatencyBounds() {
  static const std::vector<double> kBounds = {
      0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1, 2, 5, 10, 30, 60, 120, 300, 600};
  return kBounds;
}

// ------------------------------------------------------------ Registry

MetricsRegistry::MetricsRegistry(bool preregister_engine) {
  if (!preregister_engine) return;
  // The engine's full metric surface (names.h): exports from any run list
  // every metric, zero-valued when the subsystem never ran.
  FindOrCreateCounter(names::kExecutorWindowsProcessed,
                      "Execution windows scanned by the responsive engine");
  FindOrCreateCounter(names::kExecutorWindowsEnqueued,
                      "Execution windows pushed onto the priority queue");
  FindOrCreateCounter(names::kExecutorStaleWindows,
                      "Queued windows dropped as stale (excluded or over "
                      "the hop limit)");
  FindOrCreateCounter(names::kExecutorQueueRebuilds,
                      "Full queue rebuilds after a refined context");
  FindOrCreateGauge(names::kExecutorQueueDepth,
                    "Pending execution windows in the priority queue");
  FindOrCreateCounter(names::kDedupWindowClips,
                      "Window enqueues clipped against the per-object scan "
                      "coverage watermark");
  FindOrCreateCounter(names::kExecutorPrefetchHits,
                      "Windows whose rows an earlier batched collect of "
                      "the same run had already collected");
  FindOrCreateCounter(names::kExecutorScanCostMicros,
                      "Total simulated scan cost charged by the executor "
                      "(micros)");
  FindOrCreateCounter(names::kBaselineNodeQueries,
                      "Whole-history node queries issued by the baseline "
                      "engine");
  FindOrCreateCounter(names::kStoreQueries,
                      "Queries answered by the event store");
  FindOrCreateCounter(names::kStoreEventsScanned,
                      "Event rows examined by store scans (delivered plus "
                      "server-side filtered)");
  FindOrCreateCounter(names::kStoreRowsFiltered,
                      "Event rows rejected server-side by pushed filters");
  FindOrCreateCounter(names::kStoreSegmentsPruned,
                      "Column segments skipped via zone maps without "
                      "touching a row (columnar backend)");
  FindOrCreateCounter(names::kStoreRowQueries,
                      "Queries answered by the row-store backend");
  FindOrCreateCounter(names::kStoreColumnarQueries,
                      "Queries answered by the columnar backend");
  FindOrCreateGauge(names::kStoreShards,
                    "Shard count of the most recently constructed sharded "
                    "store (1 = monolithic)");
  FindOrCreateCounter(names::kStoreShardScans,
                      "Scatter-gather scans replayed by the sharded store");
  FindOrCreateCounter(names::kStoreShardFanout,
                      "Shard probes issued by scatter-gather scans (fan-out "
                      "per scan, summed)");
  FindOrCreateCounter(names::kStoreShardBoundaryRows,
                      "Cross-host boundary rows gathered from a shard the "
                      "probed object does not call home");
  FindOrCreateCounter(names::kRefinerReuse,
                      "Script updates that reused the cached graph");
  FindOrCreateCounter(names::kRefinerRestart,
                      "Script updates that forced a restart");
  FindOrCreateCounter(names::kRefinerNoChange,
                      "Script updates with no effective change");
  FindOrCreateCounter(names::kBdlCompiles, "BDL scripts compiled");
  FindOrCreateCounter(names::kBdlCompileErrors,
                      "BDL compilations rejected with an error");
  FindOrCreateHistogram(names::kBdlCompileLatency,
                        "BDL compile wall time (seconds)");
  FindOrCreateCounter(names::kBdlLintRuns, "BDL lint runs");
  FindOrCreateCounter(names::kBdlLintErrors,
                      "Diagnostics with error severity reported by lint");
  FindOrCreateCounter(names::kBdlLintWarnings,
                      "Diagnostics with warning severity reported by lint");
  FindOrCreateHistogram(names::kSessionStepLatency,
                        "Session::Step wall time (seconds)");
  FindOrCreateHistogram(names::kSessionUpdateScriptLatency,
                        "Session::UpdateScript wall time (seconds)");
  FindOrCreateHistogram(names::kUpdateBatchLatency,
                        "Simulated seconds between consecutive graph "
                        "updates (paper Table II)");
}

MetricsRegistry& MetricsRegistry::Global() {
  static MetricsRegistry* const registry =
      new MetricsRegistry(/*preregister_engine=*/true);
  return *registry;
}

Counter* MetricsRegistry::FindOrCreateCounter(std::string_view name,
                                              std::string_view help) {
  MutexLock lock(&mu_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_
             .emplace(std::string(name),
                      std::unique_ptr<Counter>(new Counter(
                          std::string(name), std::string(help))))
             .first;
  }
  return it->second.get();
}

Gauge* MetricsRegistry::FindOrCreateGauge(std::string_view name,
                                          std::string_view help) {
  MutexLock lock(&mu_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_
             .emplace(std::string(name),
                      std::unique_ptr<Gauge>(
                          new Gauge(std::string(name), std::string(help))))
             .first;
  }
  return it->second.get();
}

LatencyHistogram* MetricsRegistry::FindOrCreateHistogram(
    std::string_view name, std::string_view help, std::vector<double> bounds) {
  MutexLock lock(&mu_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    if (bounds.empty()) bounds = DefaultLatencyBounds();
    it = histograms_
             .emplace(std::string(name),
                      std::unique_ptr<LatencyHistogram>(new LatencyHistogram(
                          std::string(name), std::string(help),
                          std::move(bounds))))
             .first;
  }
  return it->second.get();
}

std::string MetricsRegistry::ExportPrometheus() const {
  MutexLock lock(&mu_);
  std::ostringstream os;
  for (const auto& [name, c] : counters_) {
    if (!c->help_.empty()) os << "# HELP " << name << " " << c->help_ << "\n";
    os << "# TYPE " << name << " counter\n";
    os << name << " " << c->value() << "\n";
  }
  for (const auto& [name, g] : gauges_) {
    if (!g->help_.empty()) os << "# HELP " << name << " " << g->help_ << "\n";
    os << "# TYPE " << name << " gauge\n";
    os << name << " " << g->value() << "\n";
  }
  for (const auto& [name, h] : histograms_) {
    if (!h->help_.empty()) os << "# HELP " << name << " " << h->help_ << "\n";
    os << "# TYPE " << name << " histogram\n";
    const auto counts = h->BucketCounts();
    uint64_t cumulative = 0;
    for (size_t i = 0; i < h->bounds().size(); ++i) {
      cumulative += counts[i];
      os << name << "_bucket{le=\"" << FormatDouble(h->bounds()[i]) << "\"} "
         << cumulative << "\n";
    }
    cumulative += counts.back();
    os << name << "_bucket{le=\"+Inf\"} " << cumulative << "\n";
    os << name << "_sum " << FormatDouble(h->sum()) << "\n";
    os << name << "_count " << h->count() << "\n";
    // Exact quantiles from the sample reservoir, as plain sibling series
    // (`{quantile=}` labels are reserved for TYPE summary, and NaN is not
    // valid exposition text, so empty histograms emit no quantile lines).
    if (h->count() > 0) {
      os << name << "_p50 " << FormatDouble(h->Percentile(50)) << "\n";
      os << name << "_p95 " << FormatDouble(h->Percentile(95)) << "\n";
      os << name << "_p99 " << FormatDouble(h->Percentile(99)) << "\n";
    }
  }
  return os.str();
}

std::string MetricsRegistry::ExportJson() const {
  MutexLock lock(&mu_);
  JsonDict counters;
  for (const auto& [name, c] : counters_) counters.Add(name, c->value());
  JsonDict gauges;
  for (const auto& [name, g] : gauges_) gauges.Add(name, g->value());
  JsonDict histograms;
  for (const auto& [name, h] : histograms_) {
    JsonDict entry;
    entry.Add("count", h->count());
    entry.Add("sum", h->sum());
    std::string buckets = "[";
    const auto counts = h->BucketCounts();
    for (size_t i = 0; i < counts.size(); ++i) {
      if (i) buckets += ",";
      JsonDict bucket;
      if (i < h->bounds().size()) {
        bucket.Add("le", h->bounds()[i]);
      } else {
        bucket.Add("le", std::string_view("+Inf"));
      }
      bucket.Add("count", counts[i]);
      buckets += bucket.Str();
    }
    buckets += "]";
    entry.AddRaw("buckets", buckets);
    entry.Add("p50", h->Percentile(50));
    entry.Add("p90", h->Percentile(90));
    entry.Add("p99", h->Percentile(99));
    histograms.AddRaw(name, entry.Str());
  }
  JsonDict root;
  root.AddRaw("counters", counters.Str());
  root.AddRaw("gauges", gauges.Str());
  root.AddRaw("histograms", histograms.Str());
  return root.Str();
}

void MetricsRegistry::Reset() {
  MutexLock lock(&mu_);
  for (auto& [name, c] : counters_) c->Reset();
  for (auto& [name, g] : gauges_) g->Reset();
  for (auto& [name, h] : histograms_) h->Reset();
}

Status WriteMetricsFile(const MetricsRegistry& registry,
                        const std::string& path) {
  const std::string text = EndsWith(path, ".json")
                               ? registry.ExportJson()
                               : registry.ExportPrometheus();
  if (path == "-") {
    std::fputs(registry.ExportPrometheus().c_str(), stdout);
    return Status::Ok();
  }
  std::ofstream f(path);
  if (!f) return Status::InvalidArgument("cannot open for write: " + path);
  f << text;
  if (EndsWith(path, ".json")) f << "\n";
  return Status::Ok();
}

}  // namespace aptrace::obs
