#ifndef APTRACE_EVENT_EVENT_H_
#define APTRACE_EVENT_EVENT_H_

#include <cstdint>
#include <string>

#include "event/object.h"
#include "util/clock.h"

namespace aptrace {

using EventId = uint64_t;
constexpr EventId kInvalidEventId = ~static_cast<EventId>(0);

/// Direction of the data flow of an event (paper Section II): either from
/// the subject (the initiating process) to the object, or vice versa.
enum class FlowDirection : uint8_t {
  kSubjectToObject = 0,  // e.g. process writes file, process sends to socket
  kObjectToSubject = 1,  // e.g. process reads file, process receives
};

/// Syscall-level action kind recorded by the audit framework. BDL's
/// "action_type" field matches against the names from ActionTypeName().
enum class ActionType : uint8_t {
  kRead = 0,     // subject reads object (file/socket) : object -> subject
  kWrite = 1,    // subject writes object               : subject -> object
  kStart = 2,    // subject starts/forks a process      : subject -> object
  kConnect = 3,  // subject opens an outbound socket    : subject -> object
  kAccept = 4,   // subject accepts an inbound socket   : object -> subject
  kInject = 5,   // subject injects into process memory : subject -> object
  kRename = 6,   // subject renames/moves a file        : subject -> object
  kDelete = 7,   // subject unlinks a file              : subject -> object
};

const char* ActionTypeName(ActionType a);

/// The canonical flow direction implied by an action type.
FlowDirection ActionDefaultDirection(ActionType a);

/// A system event: an interaction between the subject (always a process
/// instance) and an object, with a direction of data flow and a timestamp
/// (paper Section II). `amount` carries the number of bytes moved, used by
/// quantity-based heuristics (paper Program 2).
struct Event {
  EventId id = kInvalidEventId;
  ObjectId subject = kInvalidObjectId;  // always a process
  ObjectId object = kInvalidObjectId;
  TimeMicros timestamp = 0;
  uint64_t amount = 0;  // bytes transferred (0 when not applicable)
  ActionType action = ActionType::kRead;
  FlowDirection direction = FlowDirection::kObjectToSubject;
  HostId host = kInvalidHostId;

  /// Data-flow source: the node the data came from.
  ObjectId FlowSource() const {
    return direction == FlowDirection::kSubjectToObject ? subject : object;
  }
  /// Data-flow destination: the node the data went to.
  ObjectId FlowDest() const {
    return direction == FlowDirection::kSubjectToObject ? object : subject;
  }

  bool operator==(const Event&) const = default;
};

/// An event `b` backward-depends on `a` iff `a` happened strictly before
/// `b` and the destination of `a`'s flow is the source of `b`'s flow
/// (paper Section II).
inline bool BackwardDependsOn(const Event& b, const Event& a) {
  return a.timestamp < b.timestamp && a.FlowDest() == b.FlowSource();
}

}  // namespace aptrace

#endif  // APTRACE_EVENT_EVENT_H_
