#ifndef APTRACE_GRAPH_DEP_GRAPH_H_
#define APTRACE_GRAPH_DEP_GRAPH_H_

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "event/event.h"
#include "event/object.h"

namespace aptrace {

/// The tracking graph (paper Section II): nodes are system objects, edges
/// are system events, and edge direction is the direction of data flow.
/// Backtracking grows this graph from the starting point "backwards"
/// against the flow.
///
/// Node bookkeeping carried for the engine:
///  * `hop`   — minimum number of edges from the start object, used by the
///              `where hop <= N` termination heuristic;
///  * `state` — the state-propagation index maintained by the Dependency
///              Graph Maintainer for intermediate-point prioritization
///              (paper Section III-B2). 0 = matches no prefix; i means the
///              node was reached along a path matching chain patterns
///              n1..ni.
class DepGraph {
 public:
  struct Node {
    ObjectId object = kInvalidObjectId;
    int hop = 0;
    int state = 0;
    // Edges incident to this node, by event id.
    std::vector<EventId> in_edges;   // edges whose flow dest is this node
    std::vector<EventId> out_edges;  // edges whose flow source is this node
  };

  struct Edge {
    EventId event = kInvalidEventId;
    ObjectId src = kInvalidObjectId;  // flow source
    ObjectId dst = kInvalidObjectId;  // flow destination
    TimeMicros timestamp = 0;
    ActionType action = ActionType::kRead;
    uint64_t amount = 0;
  };

  enum class AddResult : uint8_t {
    kDuplicate,       // edge already present
    kNewEdge,         // edge added, both endpoints already known
    kNewEdgeAndNode,  // edge added and at least one endpoint is new
  };

  DepGraph() = default;

  /// Declares the starting object (hop 0, state 1 = matched n1).
  void SetStart(ObjectId start);
  ObjectId start() const { return start_; }

  /// Inserts the event as an edge (flow source -> flow dest), creating any
  /// missing endpoint nodes. New nodes get hop = hop(existing endpoint)+1
  /// when discovered from a known node, else 0.
  AddResult AddEventEdge(const Event& event);

  bool HasNode(ObjectId id) const { return nodes_.count(id) != 0; }
  bool HasEdge(EventId id) const { return edges_.count(id) != 0; }

  /// Precondition: node/edge exists.
  const Node& GetNode(ObjectId id) const { return nodes_.at(id); }
  const Edge& GetEdge(EventId id) const { return edges_.at(id); }

  size_t NumNodes() const { return nodes_.size(); }
  size_t NumEdges() const { return edges_.size(); }

  int HopOf(ObjectId id) const;
  int StateOf(ObjectId id) const;
  void SetState(ObjectId id, int state);
  /// Overrides a node's hop (checkpoint restore only: hops are
  /// insertion-order dependent, so they are persisted, not recomputed).
  /// Precondition: hop >= 0.
  void SetHop(ObjectId id, int hop);
  /// Resets every node's state to 0 (start back to 1). Used when the
  /// Refiner re-propagates states after the chain changed.
  void ClearStates();

  /// Largest hop value over all nodes — the graph "diameter" from the
  /// start, which `where hop <= N` bounds. O(1): read off the per-hop
  /// node counts every hop change keeps current (0 on an empty graph).
  int MaxHop() const {
    return hop_counts_.empty() ? 0
                               : static_cast<int>(hop_counts_.size()) - 1;
  }

  /// Removes every node for which `pred` returns true, along with all
  /// incident edges. Returns the number of nodes removed. The start node
  /// is never removed.
  size_t RemoveNodesIf(const std::function<bool(ObjectId)>& pred);

  /// Removes every edge for which `pred` returns true (endpoints stay,
  /// possibly orphaned — follow with reachability pruning). Returns the
  /// number of edges removed.
  size_t RemoveEdgesIf(const std::function<bool(const Edge&)>& pred);

  /// Iteration helpers.
  void ForEachNode(const std::function<void(const Node&)>& fn) const;
  void ForEachEdge(const std::function<void(const Edge&)>& fn) const;

  /// Returns all node ids (unordered).
  std::vector<ObjectId> NodeIds() const;

 private:
  Node& EnsureNode(ObjectId id);
  /// Every hop change goes through these so hop_counts_ stays exact.
  void AssignHop(Node& n, int hop);
  void CountHop(int hop);
  void UncountHop(int hop);

  ObjectId start_ = kInvalidObjectId;
  std::unordered_map<ObjectId, Node> nodes_;
  std::unordered_map<EventId, Edge> edges_;
  /// hop_counts_[h] = number of nodes at hop h, trimmed so the last slot
  /// is non-zero: its index is MaxHop().
  std::vector<size_t> hop_counts_;
};

}  // namespace aptrace

#endif  // APTRACE_GRAPH_DEP_GRAPH_H_
