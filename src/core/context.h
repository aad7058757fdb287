#ifndef APTRACE_CORE_CONTEXT_H_
#define APTRACE_CORE_CONTEXT_H_

#include <memory>
#include <optional>
#include <unordered_set>
#include <vector>

#include "bdl/spec.h"
#include "core/derived_attrs.h"
#include "storage/event_store.h"
#include "util/status.h"

namespace aptrace {

/// A run-ready analysis context: the compiled TrackingSpec with every
/// store-dependent piece resolved — the concrete global time range, the
/// host filter as HostIds, the derived-attribute provider, and the
/// starting point. Produced by the Refiner before handing the Executor
/// its metadata (paper Figure 3).
struct TrackingContext {
  const EventStore* store = nullptr;
  bdl::TrackingSpec spec;

  /// Resolved global range [ts, te): spec range intersected with the
  /// store's span; ts is Algorithm 1's "pre-defined global starting time".
  TimeMicros ts = 0;
  TimeMicros te = 0;

  /// Engaged host filter; nullopt = all hosts.
  std::optional<std::unordered_set<HostId>> host_filter;

  std::shared_ptr<StoreDerivedAttrs> derived;

  /// The anomaly event backtracking starts from, and the graph node that
  /// matched the chain's first pattern (usually the event's flow
  /// destination).
  Event start_event;
  ObjectId start_node = kInvalidObjectId;

  /// True when `host` passes the host filter.
  bool HostAllowed(HostId host) const {
    return !host_filter.has_value() || host_filter->count(host) != 0;
  }

  /// The starting event's endpoints are the analyst's anchor: the where
  /// statement never deletes them (mirroring the graph's guarantee that
  /// the start node survives pruning).
  bool IsAnchor(ObjectId id) const {
    return id == start_event.FlowSource() || id == start_event.FlowDest();
  }

  /// Filter interpretation of the where statement for a candidate object
  /// reached through `event`: keep unless the condition positively fails.
  bool WhereKeeps(const SystemObject& object, const Event* event) const;
};

/// A start-point candidate: the matching event plus the graph node that
/// satisfied the chain's first pattern.
struct StartMatch {
  Event event;
  ObjectId node = kInvalidObjectId;
};

/// Finds the events in the store matching the spec's starting-point
/// pattern (chain[0]) within the spec's time/host range. When the pattern
/// constrains `event_time` with equality, the scan is narrowed to that
/// instant; otherwise the whole range is scanned (and charged to `clock`).
/// Returns matches in ascending time order, capped at `limit`.
std::vector<StartMatch> FindStartEvents(const EventStore& store,
                                        const bdl::TrackingSpec& spec,
                                        Clock* clock, size_t limit = 16);

/// Builds a TrackingContext for `spec`. If `start_override` is set, it is
/// used as the starting event (the experiment harness injects random
/// alerts this way); otherwise the start point is searched with
/// FindStartEvents and the earliest match is taken.
Result<TrackingContext> ResolveContext(const EventStore& store,
                                       bdl::TrackingSpec spec, Clock* clock,
                                       std::optional<Event> start_override =
                                           std::nullopt);

}  // namespace aptrace

#endif  // APTRACE_CORE_CONTEXT_H_
