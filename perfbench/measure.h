// Measurement arithmetic of the benchmark: percentiles, fastest-pass
// selection, the ladder of alert sizes, and a span recorder that lives in the benchmark's own memory
// (the library's span ring wraps at 16 Ki records, this one never does).
// Everything here is plain data and pure functions, so `perfbench
// --selftest` can check it on synthetic samples.

#ifndef PERFBENCH_MEASURE_H_
#define PERFBENCH_MEASURE_H_

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// Monotonic wall time in nanoseconds. The library's MonotonicNowMicros
/// steps by 1 us, a visible share of a 14 us gap between updates.
inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Percentile p in [0, 100] by linear interpolation between closest ranks
/// (the rule aptrace::SampleStats uses); NaN when `v` is empty.
inline double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(v.begin(), v.end());
  const double rank = p / 100.0 * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(rank));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (rank - static_cast<double>(lo));
}

/// Harrell-Davis estimate of percentile p in (0, 100): a Beta-weighted
/// mean of all order statistics, so the estimate does not hang on the one
/// or two samples next to the rank the way Percentile does — with the
/// ladder of alerts, those samples are single alerts whose cost varies
/// from seed to seed. NaN when `v` is empty.
inline double HarrellDavis(std::vector<double> v, double p) {
  if (v.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(v.begin(), v.end());
  const double n = static_cast<double>(v.size());
  const double a = p / 100.0 * (n + 1);
  const double b = (1 - p / 100.0) * (n + 1);
  const double log_beta = std::lgamma(a) + std::lgamma(b) - std::lgamma(a + b);
  auto density = [&](double t) {
    if (t <= 0 || t >= 1) return 0.0;
    return std::exp((a - 1) * std::log(t) + (b - 1) * std::log1p(-t) -
                    log_beta);
  };
  // Simpson's rule over each order statistic's slice of (0, 1).
  constexpr int kSteps = 16;
  double total = 0;
  double sum = 0;
  for (size_t i = 0; i < v.size(); ++i) {
    const double lo = static_cast<double>(i) / n;
    const double h = 1 / (n * kSteps);
    double w = density(lo) + density(lo + kSteps * h);
    for (int k = 1; k < kSteps; ++k) {
      w += (k % 2 == 1 ? 4 : 2) * density(lo + k * h);
    }
    w *= h / 3;
    total += w;
    sum += w * v[i];
  }
  return total > 0 ? sum / total : Percentile(std::move(v), p);
}

/// One investigation's wall-clock record from one pass.
struct InvSample {
  int64_t total_ns = 0;          // start to finished graph
  int64_t first_update_ns = -1;  // start to first update batch; -1 = none
  std::vector<int64_t> gaps_ns;  // between consecutive update callbacks
};

/// For every investigation, the pass in which it ran fastest. Interference
/// on a shared host only ever adds time, so the fastest of k warm passes
/// is the least disturbed one; its first-update and gap samples are kept
/// together with its total. `passes[p][i]` is investigation i in pass p;
/// ties keep the earlier pass.
inline std::vector<size_t> FastestPass(
    const std::vector<std::vector<InvSample>>& passes) {
  std::vector<size_t> best;
  if (passes.empty()) return best;
  best.assign(passes[0].size(), 0);
  for (size_t p = 1; p < passes.size(); ++p) {
    for (size_t i = 0; i < best.size(); ++i) {
      if (passes[p][i].total_ns < passes[best[i]][i].total_ns) best[i] = p;
    }
  }
  return best;
}

/// Investigation sizes (work scores, see WorkScore in perfbench.cc) the N
/// alerts of every seed are chosen to match, smallest first. Uniformly
/// sampled alerts make a 100-alert workload's cost swing 2x from seed to
/// seed: a few alerts reach the 2-hour cap, and p50/p90 land wherever the
/// sample's tail happens to fall. The ladder pins the shape instead: its
/// knots are the score quantiles of 600 uniformly sampled alerts over
/// three seeds' traces (every 5 %), interpolated log-linearly, so each rung
/// sits where real alerts are dense and every seed can fill it closely.
inline std::vector<double> LadderTargets(size_t n) {
  static constexpr double kKnots[] = {
      5,    5,    5,    5,     5,     5,     40,    350,   700,
      1000, 1200, 2200, 3900,  4900,  6300,  8600,  11000, 21000,
      24000, 70000, 140000};  // q = 0, 0.05, ..., 1
  constexpr size_t kLast = sizeof(kKnots) / sizeof(kKnots[0]) - 1;
  std::vector<double> t(n);
  for (size_t r = 0; r < n; ++r) {
    const double x = (static_cast<double>(r) + 0.5) /
                     static_cast<double>(n) * static_cast<double>(kLast);
    const size_t k = std::min(static_cast<size_t>(x), kLast - 1);
    const double f = x - static_cast<double>(k);
    t[r] = kKnots[k] * std::pow(kKnots[k + 1] / kKnots[k], f);
  }
  return t;
}

/// Picks targets.size() distinct candidates, order-preserving over the
/// candidates sorted by value, minimising the summed |log(value / target)|
/// — an exact dynamic program (candidates x targets). Returns indices into
/// `values`; empty when there are fewer candidates than targets.
inline std::vector<size_t> MatchLadder(const std::vector<double>& values,
                                       const std::vector<double>& targets) {
  const size_t p = values.size();
  const size_t n = targets.size();
  if (p < n) return {};
  std::vector<size_t> order(p);
  for (size_t i = 0; i < p; ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return values[a] < values[b];
  });
  const double inf = std::numeric_limits<double>::infinity();
  // cost[i][j]: best cost of matching the first j targets within the
  // first i sorted candidates; take[i][j]: candidate i-1 took target j-1.
  std::vector<std::vector<double>> cost(p + 1, std::vector<double>(n + 1, inf));
  std::vector<std::vector<char>> take(p + 1, std::vector<char>(n + 1, 0));
  for (size_t i = 0; i <= p; ++i) cost[i][0] = 0;
  for (size_t i = 1; i <= p; ++i) {
    const double v = std::max(values[order[i - 1]], 1.0);
    for (size_t j = 1; j <= std::min(i, n); ++j) {
      const double skip = cost[i - 1][j];
      const double use =
          cost[i - 1][j - 1] + std::fabs(std::log(v / targets[j - 1]));
      if (use <= skip) {
        cost[i][j] = use;
        take[i][j] = 1;
      } else {
        cost[i][j] = skip;
      }
    }
  }
  std::vector<size_t> picked;
  for (size_t i = p, j = n; j > 0; --i) {
    if (take[i][j]) {
      picked.push_back(order[i - 1]);
      --j;
    }
  }
  std::reverse(picked.begin(), picked.end());
  return picked;
}

/// One recorded span. `parent` indexes the same recorder; -1 for a root.
struct Span {
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int32_t parent = -1;
};

/// Spans of one thread, nested by a stack of open spans: a span begun
/// while another is open becomes its child. Single-threaded by design;
/// each client thread owns its own recorder.
class SpanRecorder {
 public:
  int32_t Begin(const char* name) {
    Span s;
    s.name = name;
    s.start_ns = NowNs();
    s.parent = open_.empty() ? -1 : open_.back();
    spans_.push_back(s);
    open_.push_back(static_cast<int32_t>(spans_.size() - 1));
    return open_.back();
  }

  void End(int32_t id) {
    spans_[static_cast<size_t>(id)].end_ns = NowNs();
    // Spans close innermost first; tolerate an out-of-order End by
    // dropping everything opened after `id`.
    while (!open_.empty()) {
      const int32_t top = open_.back();
      open_.pop_back();
      if (top == id) break;
    }
  }

  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
  std::vector<int32_t> open_;
};

/// Self time of every span: its duration minus the part of its interval
/// that its children cover (overlapping children count once).
inline std::vector<int64_t> SelfTimes(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<int64_t, int64_t>>> kids(spans.size());
  for (const Span& s : spans) {
    if (s.parent < 0) continue;
    const Span& p = spans[static_cast<size_t>(s.parent)];
    const int64_t a = std::max(s.start_ns, p.start_ns);
    const int64_t b = std::min(s.end_ns, p.end_ns);
    if (a < b) kids[static_cast<size_t>(s.parent)].emplace_back(a, b);
  }
  std::vector<int64_t> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    int64_t covered = 0;
    int64_t cur_a = 0;
    int64_t cur_b = std::numeric_limits<int64_t>::min();
    for (const auto& [a, b] : iv) {
      if (a > cur_b) {
        if (cur_b > cur_a) covered += cur_b - cur_a;
        cur_a = a;
        cur_b = b;
      } else {
        cur_b = std::max(cur_b, b);
      }
    }
    if (cur_b > cur_a) covered += cur_b - cur_a;
    self[i] = spans[i].end_ns - spans[i].start_ns - covered;
  }
  return self;
}

}  // namespace perfbench

#endif  // PERFBENCH_MEASURE_H_
