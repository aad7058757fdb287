#ifndef APTRACE_CORE_EXEC_WINDOW_H_
#define APTRACE_CORE_EXEC_WINDOW_H_

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "event/event.h"
#include "util/clock.h"

namespace aptrace {

/// An execution window (paper Section III-B1): the unit in which the
/// Executor retrieves dependents from the database. A window is the
/// 3-tuple <begin, finish, e> of Algorithm 1 plus the bookkeeping the
/// priority queue needs. The scan it stands for is: events whose flow
/// destination is `frontier` with timestamps in [begin, finish).
struct ExecWindow {
  TimeMicros begin = 0;
  TimeMicros finish = 0;
  EventId dep_event = kInvalidEventId;  // the event being explored
  ObjectId frontier = kInvalidObjectId;  // FlowSource(dep_event)
  int hop = 0;      // hop of the frontier node
  int state = 0;    // maintainer state of the frontier at enqueue time
  bool boosted = false;  // set by a matched prioritize rule
  uint64_t seq = 0;      // FIFO tie-break

  /// Temporal priority key: higher = explored earlier. Backward windows
  /// use `finish` (later finish = closer to the starting point); forward
  /// windows use `-begin` (earlier begin = closer). Filled by the
  /// generators below.
  TimeMicros priority_key = 0;
};

/// Max-heap ordering for the window priority queue:
///  1. boosted windows first (prioritize rules),
///  2. higher maintainer state first (intermediate-point prioritization,
///     Section III-B2),
///  3. later `finish` first — i.e. the window temporally closest to the
///     starting point (Section III-B1),
///  4. FIFO on ties.
///
/// `temporal` disables rule 3 (pure FIFO beyond boost/state), which is
/// the ablation knob for the paper's temporal-locality design claim.
struct ExecWindowLess {
  bool temporal = true;

  bool operator()(const ExecWindow& a, const ExecWindow& b) const {
    if (a.boosted != b.boosted) return !a.boosted;  // a < b when not boosted
    if (a.state != b.state) return a.state < b.state;
    if (temporal && a.priority_key != b.priority_key) {
      return a.priority_key < b.priority_key;
    }
    return a.seq > b.seq;  // smaller seq = earlier = higher priority
  }
};

/// The Executor's window priority queue: a binary max-heap over
/// ExecWindowLess with the extra std::priority_queue cannot offer — a
/// sorted snapshot, for checkpointing.
///
/// Pop order is identical to std::priority_queue with the same comparator:
/// ExecWindowLess is a strict *total* order (the seq tie-break), so every
/// valid heap yields the same pop sequence — the batched executor, which
/// pops windows ahead and pushes them back, leans on this.
class WindowQueue {
 public:
  explicit WindowQueue(ExecWindowLess less = {}) : less_(less) {}

  void push(ExecWindow w) {
    heap_.push_back(std::move(w));
    std::push_heap(heap_.begin(), heap_.end(), less_);
  }
  const ExecWindow& top() const { return heap_.front(); }
  void pop() {
    std::pop_heap(heap_.begin(), heap_.end(), less_);
    heap_.pop_back();
  }
  bool empty() const { return heap_.empty(); }
  size_t size() const { return heap_.size(); }
  void clear() { heap_.clear(); }

  /// A copy of the pending windows in pop (priority) order.
  std::vector<ExecWindow> SortedSnapshot() const {
    std::vector<ExecWindow> out = heap_;
    std::sort_heap(out.begin(), out.end(), less_);
    std::reverse(out.begin(), out.end());  // sort_heap leaves ascending
    return out;
  }

 private:
  ExecWindowLess less_;
  std::vector<ExecWindow> heap_;
};

/// Cuts the monolithic window [global_start, e.timestamp) into at most `k`
/// pieces whose lengths form a geometric sequence with common ratio 2,
/// starting from the event and growing backwards in time:
///
///   sigma = (te - ts) / (2^k - 1)
///   windows (nearest first): [te-sigma, te), [te-3*sigma, te-sigma), ...
///
/// The last window absorbs integer-rounding remainders so the union is
/// exactly [clip_begin, te). Windows are clipped to `clip_begin` (coverage
/// deduplication); empty windows are dropped. Windows are returned nearest
/// (latest) first.
///
/// Preconditions: k >= 1. Returns an empty vector when clip_begin >= te.
std::vector<ExecWindow> GenExeWindows(const Event& e, TimeMicros global_start,
                                      TimeMicros clip_begin, int k);

/// Forward-tracking mirror: cuts (e.timestamp, global_end) into at most
/// `k` geometrically growing windows starting just after the event,
/// nearest (earliest) first; the frontier is the event's flow
/// *destination* (the tainted object) and windows are clipped above at
/// `clip_end` (forward coverage deduplication).
std::vector<ExecWindow> GenExeWindowsForward(const Event& e,
                                             TimeMicros global_end,
                                             TimeMicros clip_end, int k);

}  // namespace aptrace

#endif  // APTRACE_CORE_EXEC_WINDOW_H_
