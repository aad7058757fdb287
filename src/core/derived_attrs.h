#ifndef APTRACE_CORE_DERIVED_ATTRS_H_
#define APTRACE_CORE_DERIVED_ATTRS_H_

#include <unordered_map>

#include "event/schema.h"
#include "storage/event_store.h"
#include "util/clock.h"
#include "util/sync.h"

namespace aptrace {

/// DerivedAttrs provider backed by the event store, scoped to the analysis
/// time range (paper Section IV-C1, "Excluding Read-Only Files and
/// Write-Through Processes").
///
/// Answers are memoized per object: during one analysis the underlying
/// data is immutable, and the same object is typically tested many times.
///
/// Thread-safe: the memo caches are mutex-guarded, so one provider may be
/// queried from any thread. The answers themselves are pure functions of
/// the immutable store, so races on *who* fills a cache slot cannot
/// change any result.
class StoreDerivedAttrs : public DerivedAttrs {
 public:
  StoreDerivedAttrs(const EventStore* store, TimeMicros range_begin,
                    TimeMicros range_end)
      : store_(store), begin_(range_begin), end_(range_end) {}

  /// A file is read-only iff nothing flowed *into* it during the analyzed
  /// period (no write/rename/delete touched it).
  bool IsReadOnly(ObjectId file) const override;

  /// A process is write-through iff all of its outgoing flows during the
  /// analyzed period target one single other process (a helper process
  /// that only returns results to its parent).
  bool IsWriteThrough(ObjectId proc) const override;

 private:
  const EventStore* store_;
  TimeMicros begin_;
  TimeMicros end_;
  mutable Mutex mu_{"StoreDerivedAttrs::mu_"};
  mutable std::unordered_map<ObjectId, bool> read_only_cache_
      APTRACE_GUARDED_BY(mu_);
  mutable std::unordered_map<ObjectId, bool> write_through_cache_
      APTRACE_GUARDED_BY(mu_);
};

}  // namespace aptrace

#endif  // APTRACE_CORE_DERIVED_ATTRS_H_
